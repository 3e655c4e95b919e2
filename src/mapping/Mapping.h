//===- Mapping.h - Mapping specification -----------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mapping-specification half of a Cypress program (Section 3.3,
/// Figure 5b). A mapping statically instantiates a tree of task instances:
/// each instance names the task variant it executes, the processor level it
/// runs on, the memory for every tensor argument, concrete values for the
/// variant's tunables, and the instance each launched child task dispatches
/// to. Instances can additionally request warp specialization, a software
/// pipeline depth, and a shared-memory budget for the resource allocator.
/// Mapping decisions may affect performance only, never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_MAPPING_MAPPING_H
#define CYPRESS_MAPPING_MAPPING_H

#include "frontend/Task.h"
#include "machine/Machine.h"
#include "support/Error.h"
#include "support/Hash.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cypress {

/// One task-mapping object ("instance", Figure 5b).
struct TaskMapping {
  /// Unique instance name referenced by other instances' Calls lists.
  std::string Instance;
  /// The task variant this instance executes.
  std::string Variant;
  /// Processor level the variant runs on.
  Processor Proc = Processor::Host;
  /// Memory placement for each tensor argument (in signature order).
  std::vector<Memory> Mems;
  /// Concrete values for the variant's integer tunables.
  std::map<std::string, int64_t> Tunables;
  /// Concrete values for the variant's processor tunables.
  std::map<std::string, Processor> ProcTunables;
  /// Memory placement for temporaries created with make_tensor, by name;
  /// temporaries default to Memory::None (materialize further down).
  std::map<std::string, Memory> TempMems;
  /// Instances child launches dispatch to. At a launch of task T, dispatch
  /// goes to the first entry whose variant implements T.
  std::vector<std::string> Calls;
  /// Entry point of the computation (exactly one instance).
  bool Entrypoint = false;
  /// Request warp specialization of this instance's body (Section 4.2.5).
  bool WarpSpecialize = false;
  /// Software pipeline depth for the instance's main sequential loop
  /// (1 = no pipelining).
  int64_t PipelineDepth = 1;
  /// Upper bound on shared-memory usage for the resource allocator
  /// (Section 4.2.4); 0 = the machine's full per-block capacity.
  int64_t SharedLimitBytes = 0;
  /// Per-parameter override of the multi-buffering depth used when the
  /// named argument is staged into shared memory, keyed by the variant's
  /// parameter name. Absent parameters inherit the enclosing pipelined
  /// loop's depth (the historical behavior); an entry must be >= 1. This
  /// is the mapping-level knob behind the autotuner's PIPE_A/PIPE_B axes:
  /// deep-pipeline one stream while keeping the other shallow.
  std::map<std::string, int64_t> ArgPipeline;
  /// Variant parameter names whose launch-boundary copies are pinned to
  /// the SIMT units instead of the TMA. Normally exec-unit assignment
  /// routes bulk global<->shared traffic through the TMA; pinning a
  /// parameter here makes its staging copies compete with the consumer
  /// warpgroups instead — a real exec-unit assignment axis (warp
  /// specialization only offloads TMA copies to the DMA agent).
  std::vector<std::string> SimtCopyParams;
};

/// A full mapping specification plus lookup and validation.
class MappingSpec {
public:
  MappingSpec() : MappingSpec(std::vector<TaskMapping>()) {}
  explicit MappingSpec(std::vector<TaskMapping> Instances);

  const std::vector<TaskMapping> &instances() const { return Instances; }

  bool hasInstance(const std::string &Name) const {
    return Index.count(Name) != 0;
  }
  const TaskMapping &instance(const std::string &Name) const;

  /// The unique entrypoint instance.
  const TaskMapping &entrypoint() const;

  /// Resolves the instance a launch of \p Task dispatches to from within
  /// \p Parent, following the parent's Calls list.
  ErrorOr<std::string> dispatch(const TaskRegistry &Registry,
                                const TaskMapping &Parent,
                                const std::string &Task) const;

  /// Canonical content serialization: every instance in declaration order
  /// with its variant, processor, memory placements, tunables, calls, and
  /// pipeline/warp-specialization knobs. Two specs with equal fingerprints
  /// lower identically, so mappings are comparable as values. This is the
  /// human-readable identity (diagnostics, fault-injection keys, equality);
  /// caches key on digest().
  std::string fingerprint() const;

  /// 128-bit digest of every field fingerprint() serializes, with explicit
  /// length framing. Computed once in the constructor (a spec is immutable
  /// afterwards) and carried by copies and moves, so the CompilerSession
  /// kernel-cache key costs two words for the whole mapping.
  const Digest128 &digest() const { return Digest; }

  /// Content equality (fingerprint comparison). Enumerated candidate specs
  /// from the autotuner compare by what they say, never by address.
  bool operator==(const MappingSpec &Other) const {
    return fingerprint() == Other.fingerprint();
  }
  bool operator!=(const MappingSpec &Other) const { return !(*this == Other); }

  /// Static validation against the registry and machine model:
  ///  * every referenced variant exists and arities match,
  ///  * exactly one entrypoint,
  ///  * argument memories are addressable from the instance's processor
  ///    (or None),
  ///  * Calls entries resolve to known instances,
  ///  * child instances run at the same or a deeper processor level,
  ///  * child privileges do not exceed the parent's.
  ErrorOrVoid validate(const TaskRegistry &Registry,
                       const MachineModel &Machine) const;

private:
  std::vector<TaskMapping> Instances;
  std::map<std::string, size_t> Index;
  Digest128 Digest;
};

} // namespace cypress

#endif // CYPRESS_MAPPING_MAPPING_H
