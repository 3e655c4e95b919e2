//===- IR.h - Cypress event-based intermediate representation -------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-based IR of Section 4.1 (Figure 7). Asynchronous operations
/// (copies, leaf-task calls, loops) produce events; each operation carries a
/// set of precondition events, so the IR encodes a dependence graph. Event
/// types are either unit or arrays with processor-annotated dimensions;
/// event arrays are indexed point-wise or with the broadcast operator `[:]`,
/// which denotes all events of that dimension completing. The IR is in SSA
/// form: any valid ordering of operations satisfies all event dependencies.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_IR_IR_H
#define CYPRESS_IR_IR_H

#include "ir/Scalar.h"
#include "machine/Machine.h"
#include "support/InlineVector.h"
#include "tensor/Partition.h"
#include "tensor/Shape.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cypress {

using TensorId = uint32_t;
using PartitionId = uint32_t;
using EventId = uint32_t;
using OpId = uint32_t;

constexpr TensorId InvalidTensorId = ~0u;
constexpr EventId InvalidEventId = ~0u;

//===----------------------------------------------------------------------===//
// Tensors and partitions
//===----------------------------------------------------------------------===//

/// A tensor allocation in the IR: `t ::= (int list, m)` of Figure 7.
/// Memory::None tensors are placeholders that must be eliminated by copy
/// elimination (Section 3.3); reaching resource allocation with a None
/// tensor still live is a compile error reported to the user.
struct IRTensor {
  TensorId Id = InvalidTensorId;
  std::string Name;
  TensorType Type;
  Memory Mem = Memory::None;
  /// Pipelining multiplies the allocation by the pipeline depth and indexes
  /// buffers with (k mod PIPE); a value > 1 records that multi-buffering.
  int64_t PipelineDepth = 1;
  /// The processor level of the task instance that created the tensor; one
  /// storage instance exists per processor instance at this level (e.g. a
  /// register fragment per thread, a staging buffer per block).
  Processor HomeProc = Processor::Host;
  /// True for kernel arguments (pre-existing global allocations).
  bool IsEntryArg = false;
  /// Mapping request (TaskMapping::SimtCopyParams): copies into or out of
  /// this tensor run on the SIMT units even when they would qualify for
  /// the TMA. Exec-unit assignment consults this flag.
  bool ForceSimtCopy = false;
};

struct IRPartition;

/// A reference to data in the IR: either a whole tensor or one piece of a
/// partition selected by symbolic color expressions. Because partitions are
/// declared over slices (see IRPartition::Base), pieces of pieces arise
/// naturally when copy elimination forwards an unmaterialized tensor to the
/// slice it aliases.
struct TensorSlice {
  /// Root tensor ultimately referenced (through the partition base chain).
  TensorId Tensor = InvalidTensorId;
  /// Partition piece selection; empty when referencing the whole tensor.
  std::optional<PartitionId> Part;
  /// Piece colors, inline up to rank 2 (every shipped partition fits):
  /// slices are the compiler's most-copied structure.
  InlineVector<ScalarExpr, 2> Color;
  /// Pipelined buffer index (k mod PIPE); constant 0 when not pipelined.
  ScalarExpr BufferIndex = ScalarExpr(0);

  static TensorSlice whole(TensorId Tensor) {
    TensorSlice Slice;
    Slice.Tensor = Tensor;
    return Slice;
  }
  static TensorSlice piece(TensorId Tensor, PartitionId Part,
                           std::vector<ScalarExpr> Color) {
    TensorSlice Slice;
    Slice.Tensor = Tensor;
    Slice.Part = Part;
    Slice.Color.assign(Color.begin(), Color.end());
    return Slice;
  }

  bool isWhole() const { return !Part.has_value(); }
};

/// A partition declaration: how one slice (often a whole tensor) is
/// decomposed into pieces.
struct IRPartition {
  PartitionId Id = 0;
  /// The data being partitioned. Partitioning a piece of another partition
  /// composes the coordinate maps (SubTensor chains).
  TensorSlice Base;
  Partition Spec;
};

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

/// One dimension of an event array: extent plus the processor level whose
/// parallel instances the dimension ranges over.
struct EventDim {
  int64_t Extent = 0;
  Processor Proc = Processor::Thread;

  bool operator==(const EventDim &Other) const {
    return Extent == Other.Extent && Proc == Other.Proc;
  }
};

/// `et ::= () | (N, p) list` of Figure 7.
struct EventType {
  std::vector<EventDim> Dims;

  bool isUnit() const { return Dims.empty(); }
  bool operator==(const EventType &Other) const { return Dims == Other.Dims; }
};

/// An event definition. Events are defined by asynchronous operations and by
/// loops (the loop's completion); vectorization promotes events defined in
/// flattened pfor bodies to arrays.
struct IREvent {
  EventId Id = InvalidEventId;
  std::string Name;
  EventType Type;
  OpId Producer = ~0u;
};

/// One index into an event array: an expression or the broadcast `[:]`.
struct EventIndex {
  enum class Kind : uint8_t { Expr, Broadcast } IKind = Kind::Broadcast;
  ScalarExpr Index;

  static EventIndex expr(ScalarExpr E) {
    EventIndex Result;
    Result.IKind = Kind::Expr;
    Result.Index = std::move(E);
    return Result;
  }
  static EventIndex broadcast() { return EventIndex(); }

  bool isBroadcast() const { return IKind == Kind::Broadcast; }
};

/// `ev ::= x | ev[ei]` — a use of an event, fully indexed.
/// The number of indices must equal the rank of the event's type.
/// Index lists stay inline up to rank 4 (every kernel's events fit):
/// EventRefs are copied and spliced on the compiler's hottest paths.
struct EventRef {
  EventId Event = InvalidEventId;
  InlineVector<EventIndex, 4> Indices;
  /// Pipelining lag: a reference with IterLag = L inside a loop waits on the
  /// event instance from iteration (k - L) and is vacuously satisfied for
  /// the first L iterations. This encodes the backward write-after-read
  /// anti-dependence edges of Section 4.2.5 (dashed edges in Figure 12);
  /// codegen lowers them onto mbarrier phases.
  int64_t IterLag = 0;

  static EventRef unit(EventId Event) {
    EventRef Ref;
    Ref.Event = Event;
    return Ref;
  }

  /// True if any dimension is broadcast (synchronizes that processor level).
  bool hasBroadcast() const {
    for (const EventIndex &I : Indices)
      if (I.isBroadcast())
        return true;
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

enum class OpKind : uint8_t {
  Alloc,     ///< Declares a tensor allocation.
  MakePart,  ///< Declares a partition of a tensor.
  Copy,      ///< Asynchronous data movement between slices.
  Call,      ///< Leaf-task invocation (arbitrary computation).
  For,       ///< Sequential loop.
  PFor,      ///< Parallel loop over processor instances.
};

class Operation;

/// `b ::= o; yield ev` — a block of operations yielding a completion event.
struct IRBlock {
  std::vector<std::unique_ptr<Operation>> Ops;
  /// The event reference yielded as the loop iteration's completion; may be
  /// empty for blocks whose completion is implied (e.g. after lowering).
  std::optional<EventRef> Yield;
};

/// Functional units that execute asynchronous operations. Assigned during
/// lowering from the mapping (copies into shared memory from global use the
/// TMA; WGMMA leaf tasks use the Tensor Core; everything else is SIMT).
enum class ExecUnit : uint8_t {
  TMA,        ///< Tensor Memory Accelerator (global <-> shared bulk copies).
  TensorCore, ///< WGMMA matrix engine.
  SIMT,       ///< Regular CUDA cores (register copies, scalar math).
};

const char *execUnitName(ExecUnit Unit);

/// A single IR operation. A tagged union kept deliberately simple; passes
/// match on Kind and the relevant payload fields.
class Operation {
public:
  OpKind Kind;
  OpId Id = ~0u;

  /// Event produced (Copy/Call/For/PFor); InvalidEventId for Alloc/MakePart.
  EventId Result = InvalidEventId;
  /// Precondition events that must complete before this op starts.
  std::vector<EventRef> Preconds;

  // Alloc payload.
  TensorId AllocTensor = InvalidTensorId;

  // MakePart payload.
  PartitionId Part = 0;

  // Copy payload.
  TensorSlice CopySrc;
  TensorSlice CopyDst;
  /// True for copies emitted by the launch-boundary copy-in/copy-out
  /// discipline of the dependence analysis; copy elimination may forward
  /// through them by construction (Section 4.2.3).
  bool LaunchBoundary = false;
  /// For launch-boundary copies: the fresh argument tensor the copy was
  /// created for (its dst for copy-ins, src for copy-outs). Stable across
  /// slice rewrites, so forwarding always resolves the intended pair.
  TensorId BoundaryTensor = InvalidTensorId;

  // Call payload.
  std::string Callee;                ///< Leaf function name (runtime lookup).
  std::vector<TensorSlice> Args;     ///< Tensor arguments.
  std::vector<bool> ArgIsWritten;    ///< Per-arg write privilege.
  std::vector<ScalarExpr> ScalarArgs;///< Scalar arguments (e.g. loop index).
  double Flops = 0.0;                ///< Cost-model FLOP estimate.

  // Copy/Call execution placement.
  ExecUnit Unit = ExecUnit::SIMT;
  /// Processor level this op executes on (granularity of its launch).
  Processor ExecProc = Processor::Thread;

  // For/PFor payload.
  LoopVarId LoopVar = 0;
  std::string LoopVarName;
  ScalarExpr LoopLo = ScalarExpr(0);
  ScalarExpr LoopHi = ScalarExpr(0);
  Processor PForProc = Processor::Thread; ///< PFor: processor level.
  IRBlock Body;
  /// For: software pipeline depth requested by the mapping (1 = none).
  int64_t ForPipeline = 1;
  /// PFor at Block level: warp-specialize the body (Section 4.2.5).
  bool WarpSpecialize = false;

  /// Flattened parallel context surrounding this op after vectorization
  /// (outermost first): the op executes once per index combination of these
  /// processor dimensions. Inline: assigned to every op the flattener
  /// touches.
  InlineVector<EventDim, 4> VecContext;

  /// Warp-specialization agent assignment (set by the warp-spec pass):
  /// true if this op belongs to the data-movement (DMA) agent.
  bool DmaAgent = false;

  /// Deep copy (fresh unique_ptrs; ids preserved). Used by pipelining's
  /// unroll-and-compact transformation.
  std::unique_ptr<Operation> clone() const;
};

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

/// A compiled kernel in IR form: the arena for tensors, partitions, and
/// events, plus the root block (host-level program).
class IRModule {
public:
  IRModule() = default;
  IRModule(IRModule &&) = default;
  IRModule &operator=(IRModule &&) = default;

  //===--- Arena construction ----------------------------------------===//

  TensorId addTensor(std::string Name, TensorType Type, Memory Mem);
  PartitionId addPartition(TensorSlice Base, Partition Spec);
  EventId addEvent(std::string Name, EventType Type);
  LoopVarId freshLoopVar() { return NextLoopVar++; }
  OpId freshOpId() { return NextOpId++; }

  //===--- Access ------------------------------------------------------===//

  IRTensor &tensor(TensorId Id) {
    assert(Id < Tensors.size() && "tensor id out of range");
    return Tensors[Id];
  }
  const IRTensor &tensor(TensorId Id) const {
    assert(Id < Tensors.size() && "tensor id out of range");
    return Tensors[Id];
  }
  const std::vector<IRTensor> &tensors() const { return Tensors; }

  IRPartition &partition(PartitionId Id) {
    assert(Id < Partitions.size() && "partition id out of range");
    return Partitions[Id];
  }
  const IRPartition &partition(PartitionId Id) const {
    assert(Id < Partitions.size() && "partition id out of range");
    return Partitions[Id];
  }
  std::vector<IRPartition> &partitions() { return Partitions; }
  const std::vector<IRPartition> &partitionsConst() const {
    return Partitions;
  }

  IREvent &event(EventId Id) {
    assert(Id < Events.size() && "event id out of range");
    return Events[Id];
  }
  const IREvent &event(EventId Id) const {
    assert(Id < Events.size() && "event id out of range");
    return Events[Id];
  }
  size_t numEvents() const { return Events.size(); }

  IRBlock &root() { return Root; }
  const IRBlock &root() const { return Root; }

  /// Kernel-argument tensors in entrypoint signature order.
  std::vector<TensorId> &entryArgs() { return EntryArgs; }
  const std::vector<TensorId> &entryArgs() const { return EntryArgs; }

  /// The concrete shape of the data referenced by \p Slice (the piece shape
  /// for constant colors, the uniform tile shape for symbolic ones).
  Shape sliceShape(const TensorSlice &Slice) const;

  /// Evaluates \p Slice's piece under \p Env (all colors concrete).
  SubTensor resolveSlice(const TensorSlice &Slice, const ScalarEnv &Env) const;

  /// Element count of \p Slice without materializing its shape (no
  /// allocation; the verifier's copy checks run after every pass).
  int64_t sliceNumElements(const TensorSlice &Slice) const;

  /// Bytes moved by a copy between these slices (size of the data, using the
  /// source element type).
  int64_t sliceBytes(const TensorSlice &Slice) const;

private:
  std::vector<IRTensor> Tensors;
  std::vector<IRPartition> Partitions;
  std::vector<IREvent> Events;
  IRBlock Root;
  std::vector<TensorId> EntryArgs;
  LoopVarId NextLoopVar = 0;
  OpId NextOpId = 0;
};

//===----------------------------------------------------------------------===//
// Utilities shared by passes
//===----------------------------------------------------------------------===//

/// Invokes \p Fn on every operation in \p Block, recursing into loop bodies
/// (pre-order).
void walkOps(IRBlock &Block, const std::function<void(Operation &)> &Fn);
void walkOps(const IRBlock &Block,
             const std::function<void(const Operation &)> &Fn);

/// Warpgroup replication count of \p Op: the extent of its warpgroup
/// processor dimension, 1 when it has none.
int64_t warpgroupExtent(const Operation &Op);

/// Number of operations in the module, recursing into loop bodies. The
/// pass manager records this after every stage as its IR-size statistic.
size_t countOps(const IRModule &Module);

/// Prints the module in the textual form used in the paper's Figure 8/9
/// examples. Stable across runs; golden-tested.
std::string printModule(const IRModule &Module);
std::string printBlock(const IRModule &Module, const IRBlock &Block,
                       unsigned Indent);

/// Structural well-formedness checks (SSA event order, index ranks, slice
/// ranks, privilege flags). Returns a diagnostic on the first violation.
ErrorOrVoid verifyModule(const IRModule &Module);

} // namespace cypress

#endif // CYPRESS_IR_IR_H
