//===- LeafRegistry.h - Leaf-task function registry ------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Leaf task variants name external functions (the analogue of the paper's
/// call-external / CuTe dispatch). The registry resolves those names for
/// functional execution on the simulator. Builtin leaves cover the kernels
/// shipped with the library (WGMMA, clears, stores, reductions, softmax
/// pieces); applications may register their own.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SIM_LEAFREGISTRY_H
#define CYPRESS_SIM_LEAFREGISTRY_H

#include "sim/TensorView.h"
#include "support/Error.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cypress {

/// Signature of a functional leaf implementation.
using LeafFn = std::function<void(std::vector<TensorView> &Args,
                                  const std::vector<int64_t> &Scalars)>;

/// Name-to-implementation table for leaf tasks. A registry may delegate
/// misses to an immutable fallback registry, so a caller's table holds only
/// its own leaves and shares one builtin table process-wide instead of
/// copying it per run.
class LeafRegistry {
public:
  LeafRegistry() = default;
  explicit LeafRegistry(const LeafRegistry *Fallback) : Fallback(Fallback) {}

  void add(std::string Name, LeafFn Fn) {
    Table[std::move(Name)] = std::move(Fn);
  }

  bool has(const std::string &Name) const {
    return Table.count(Name) != 0 || (Fallback && Fallback->has(Name));
  }

  const LeafFn &lookup(const std::string &Name) const {
    auto It = Table.find(Name);
    if (It != Table.end())
      return It->second;
    if (Fallback)
      return Fallback->lookup(Name);
    cypressUnreachable("unknown leaf function");
  }

  /// The registry preloaded with the builtin leaves used by the shipped
  /// kernels (wgmma_fp16, clear, store, row reductions, online softmax).
  /// Returns a fresh copy; prefer sharedBuiltins() unless you mutate it.
  static LeafRegistry builtins();

  /// One immutable process-wide builtin registry (thread-safe magic-static
  /// initialization); meant as the Fallback of per-kernel registries.
  static const LeafRegistry &sharedBuiltins();

private:
  std::map<std::string, LeafFn> Table;
  const LeafRegistry *Fallback = nullptr;
};

} // namespace cypress

#endif // CYPRESS_SIM_LEAFREGISTRY_H
