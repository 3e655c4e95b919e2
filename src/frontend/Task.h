//===- Task.h - Logical description: tasks, variants, privileges ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The logical-description half of a Cypress program (Section 3.2,
/// Figure 3/5a), embedded in C++. Tasks are named computations with one or
/// more variants. Inner variants decompose work by partitioning tensors and
/// launching sub-tasks through an InnerContext (the analogue of the paper's
/// Python-embedded DSL); they may not touch tensor data. Leaf variants name
/// an external function (resolved by the runtime's leaf registry) plus the
/// execution unit it drives and a FLOP estimate for the cost model.
///
/// Privileges (read / write / read-write) are declared per tensor parameter
/// and drive the dependence analysis; sub-launches may not request
/// privileges the parent lacks.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_FRONTEND_TASK_H
#define CYPRESS_FRONTEND_TASK_H

#include "ir/IR.h"
#include "machine/Machine.h"
#include "support/Hash.h"
#include "tensor/Partition.h"
#include "tensor/Shape.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cypress {

/// Access privilege a task declares on a tensor parameter.
enum class Privilege : uint8_t {
  Read,
  Write,
  ReadWrite,
};

inline bool privilegeReads(Privilege P) { return P != Privilege::Write; }
inline bool privilegeWrites(Privilege P) { return P != Privilege::Read; }
const char *privilegeName(Privilege P);

/// Returns true if a child request \p Child is allowed under parent
/// privilege \p Parent (a reader may not launch writers, Section 3.2).
inline bool privilegeAllows(Privilege Parent, Privilege Child) {
  if (privilegeReads(Child) && !privilegeReads(Parent))
    return false;
  if (privilegeWrites(Child) && !privilegeWrites(Parent))
    return false;
  return true;
}

/// One tensor parameter of a task signature.
struct TaskParam {
  std::string Name;
  unsigned Rank = 2;
  ElementType Element = ElementType::F16;
  Privilege Priv = Privilege::Read;
};

/// Handle to a tensor (or a partition piece) inside an inner task body.
/// Opaque to user code; minted and interpreted by the compiler.
struct TensorHandle {
  uint32_t Index = ~0u;
  bool valid() const { return Index != ~0u; }
};

/// Handle to a partition created inside an inner task body.
struct PartitionHandle {
  uint32_t Index = ~0u;
  bool valid() const { return Index != ~0u; }
};

class InnerContext;

/// Body of an inner task variant: records partitions and sub-task launches
/// against the context. Invoked once per mapped instantiation with symbolic
/// loop indices, so bodies must be deterministic straight-line recorders.
using InnerBody =
    std::function<void(InnerContext &Ctx, std::vector<TensorHandle> Args)>;

/// Description of a leaf variant's external computation.
struct LeafInfo {
  /// Name looked up in the runtime leaf-function registry for functional
  /// execution (the analogue of call-external / CuTe dispatch in Fig. 5a).
  std::string Function;
  /// Which functional unit the call drives (WGMMA leaf tasks occupy the
  /// Tensor Core; everything else issues SIMT work).
  ExecUnit Unit = ExecUnit::SIMT;
  /// FLOPs performed given the argument shapes; used by the cost model and
  /// the TFLOP/s accounting.
  std::function<double(const std::vector<Shape> &)> Flops;
};

/// Task variant kinds (Figure 3).
enum class VariantKind : uint8_t { Inner, Leaf };

/// One variant of a task.
struct TaskVariant {
  std::string Task;    ///< Task name this variant implements.
  std::string Variant; ///< Unique variant name.
  VariantKind Kind = VariantKind::Inner;
  std::vector<TaskParam> Params;
  InnerBody Body;    ///< Inner variants.
  LeafInfo Leaf;     ///< Leaf variants.
};

/// Registry of all task variants of a program.
class TaskRegistry {
public:
  TaskRegistry() : Uid(nextUid()) { refreshDigest(); }
  /// Copies get a fresh uid: inner bodies are opaque callables, so a copy
  /// cannot be proven behaviorally identical to its source.
  TaskRegistry(const TaskRegistry &Other)
      : Variants(Other.Variants), Uid(nextUid()) {
    refreshDigest();
  }
  TaskRegistry &operator=(const TaskRegistry &Other) {
    Variants = Other.Variants;
    Uid = nextUid();
    refreshDigest();
    return *this;
  }
  /// A move hands the identity over and leaves the source an empty
  /// registry with a fresh uid, so refilling it never aliases the target.
  TaskRegistry(TaskRegistry &&Other)
      : Variants(std::move(Other.Variants)), Uid(Other.Uid),
        Digest(Other.Digest) {
    Other.reset();
  }
  TaskRegistry &operator=(TaskRegistry &&Other) {
    if (this != &Other) {
      Variants = std::move(Other.Variants);
      Uid = Other.Uid;
      Digest = Other.Digest;
      Other.reset();
    }
    return *this;
  }

  /// Registers an inner variant; asserts the variant name is fresh.
  void addInner(std::string Task, std::string Variant,
                std::vector<TaskParam> Params, InnerBody Body);

  /// Registers a leaf variant.
  void addLeaf(std::string Task, std::string Variant,
               std::vector<TaskParam> Params, LeafInfo Leaf);

  bool hasVariant(const std::string &Variant) const {
    return Variants.count(Variant) != 0;
  }
  const TaskVariant &variant(const std::string &Variant) const;

  /// All variants implementing \p Task.
  std::vector<std::string> variantsOf(const std::string &Task) const;

  /// Every registered variant, keyed by variant name.
  const std::map<std::string, TaskVariant> &variants() const {
    return Variants;
  }

  /// Process-unique registry identity (assigned at construction, never
  /// recycled). Inner bodies are opaque std::functions whose content
  /// cannot be fingerprinted, so the session cache keys on this instead of
  /// the object address, which the allocator may reuse.
  uint64_t uid() const { return Uid; }

  /// 128-bit digest of the uid plus the registry's structure: every
  /// variant's task, name, kind, parameter signature, and leaf binding.
  /// Refreshed by addInner/addLeaf (the only mutators), so the session
  /// cache key reads it instead of walking the variants.
  const Digest128 &digest() const { return Digest; }

private:
  static uint64_t nextUid();
  void refreshDigest();
  /// Empty registry with a fresh uid (the state a move leaves behind).
  void reset();

  std::map<std::string, TaskVariant> Variants;
  uint64_t Uid;
  Digest128 Digest;
};

/// The recording interface available to inner task bodies. Implemented by
/// the compiler's dependence analysis (Section 4.2.1), which interprets the
/// task tree while building IR.
class InnerContext {
public:
  virtual ~InnerContext();

  //===--- Introspection -------------------------------------------------===//

  /// Concrete shape of a tensor argument (shapes are static per kernel
  /// instantiation; the paper reads them via `C.shape[i]`).
  virtual const Shape &shapeOf(TensorHandle Handle) = 0;

  /// Integer tunable bound by the mapping for this task instance.
  virtual int64_t tunable(const std::string &Name) = 0;

  /// Processor-valued tunable (the paper's `tunable(processor)`).
  virtual Processor tunableProc(const std::string &Name) = 0;

  /// Scalar arguments this task instance was launched with (forwarded to
  /// sub-launches explicitly; e.g. the softmax scale threading through the
  /// attention task tree).
  virtual const std::vector<ScalarExpr> &scalarArgs() = 0;

  //===--- Data decomposition --------------------------------------------===//

  /// Fresh temporary tensor local to this task (the paper's make_tensor).
  virtual TensorHandle makeTensor(const std::string &Name, Shape Dims,
                                  ElementType Element) = 0;

  /// Tiling partition (partition_by_blocks).
  virtual PartitionHandle partitionByBlocks(TensorHandle Tensor,
                                            Shape TileShape) = 0;

  /// Tensor-core partition (partition_by_mma).
  virtual PartitionHandle partitionByMma(TensorHandle Tensor,
                                         MmaInstruction Instr,
                                         Processor Proc,
                                         MmaOperand Operand) = 0;

  /// Selects piece \p Color of a partition (the indexing operator).
  virtual TensorHandle index(PartitionHandle Part,
                             std::vector<ScalarExpr> Color) = 0;

  //===--- Task launches --------------------------------------------------===//

  /// Inline launch of a single sub-task.
  virtual void launch(const std::string &Task,
                      std::vector<TensorHandle> Args,
                      std::vector<ScalarExpr> Scalars = {}) = 0;

  /// Sequential group launch: body invoked once with a symbolic induction
  /// variable ranging over [0, Extent).
  virtual void srange(ScalarExpr Extent,
                      const std::function<void(ScalarExpr)> &Body) = 0;

  /// Parallel group launch over a (possibly multi-dimensional) domain; the
  /// body sees one symbolic index per dimension. Launched tasks must not
  /// perform aliasing writes (sequential semantics are preserved either
  /// way; the compiler checks partition disjointness where it can).
  virtual void prange(std::vector<ScalarExpr> Extents,
                      const std::function<void(std::vector<ScalarExpr>)>
                          &Body) = 0;
};

/// Ceiling-division helper matching the paper's `cdiv`.
inline ScalarExpr cdiv(ScalarExpr Num, int64_t Den) {
  return (Num + ScalarExpr(Den - 1)).floorDiv(ScalarExpr(Den));
}

} // namespace cypress

#endif // CYPRESS_FRONTEND_TASK_H
