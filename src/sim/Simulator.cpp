//===- Simulator.cpp - Discrete-event Hopper SM simulator ------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of both execution modes described in Simulator.h. The
/// timing model treats the TMA and Tensor Core as asynchronous units — the
/// issuing agent only pays an issue cost, and downstream operations wait on
/// the completion events the compiler wired — so schedules that overlap
/// copies, matrix ops, and SIMT math are rewarded exactly as on Hopper.
///
/// The timing hot path is built on dense, pre-sized tables rather than
/// ordered maps. After a static pre-walk, each op's instance template is
/// resolved once per run (cost, agent, in-grid preconditions, shared-memory
/// buffer placements); one expansion pass then enumerates every operation
/// instance into per-agent streams, evaluating only the template's
/// environment-dependent expressions (warpgroup and buffer indices) and
/// interning iteration coordinates, loop-instance paths, precondition
/// descriptors, and shared-memory byte ranges into flat arenas. Event
/// completion times live in a single flat array indexed by a strided
/// linear coordinate key computed from the loop extents observed during
/// expansion, so the scheduler's readiness checks are array loads, and a
/// head blocked on an empty completion slot is re-checked only once that
/// slot fills. All arenas are pooled in a thread-local scratch that
/// survives across simulation runs, which makes repeated `runTiming` calls
/// (the autotuner's candidate evaluation loop) allocation-free in steady
/// state.
///
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

using namespace cypress;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Warpgroup replication count of an op (1 when it has no warpgroup dim).
int64_t warpgroupExtent(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return Dim.Extent;
  return 1;
}

bool hasWarpgroupDim(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Timing simulation of one block
//===----------------------------------------------------------------------===//

/// Per-op execution cost, computed once per op and cached.
struct Cost {
  double IssueCycles = 0;   ///< Time the issuing agent is occupied.
  double UnitCycles = 0;    ///< Occupancy of the shared unit (TMA/TC).
  double Latency = 0;       ///< Extra completion latency after transfer.
  enum class UnitKind : uint8_t { None, Tma, TensorCore } Unit = UnitKind::None;
};

/// One in-grid precondition of an op, resolved once per run by
/// buildTemplates. Only the warpgroup index depends on the instance; its
/// expression is kept for expansion to evaluate.
struct PrecondTmpl {
  EventId Event = InvalidEventId;
  int64_t IterLag = 0;
  const ScalarExpr *WgIndex = nullptr; ///< Null when not indexed.
  bool Broadcast = false;
};

/// One shared-memory access of an op, resolved once per run by
/// buildTemplates: the tensor's allocation, with the buffer index
/// expression kept for expansion to evaluate.
struct SmemTmpl {
  TensorId Tensor = InvalidTensorId;
  int64_t Offset = 0;   ///< Allocation offset of buffer 0.
  int64_t BufBytes = 0; ///< Bytes of one pipeline buffer.
  const ScalarExpr *BufferIndex = nullptr;
  bool Write = false;
};

/// One precondition of one instance, with the warpgroup index already
/// evaluated under the instance's environment, so the scheduler's inner
/// loop never evaluates an expression.
struct PrecondDesc {
  EventId Event = InvalidEventId;
  int64_t IterLag = 0;
  int32_t WantWg = -1; ///< Concrete warpgroup index; -1 when not indexed.
  bool Broadcast = false;
};

/// Static half of a shared-memory access trace entry; Start/End are filled
/// in when the instance executes.
struct SmemPre {
  TensorId Tensor = InvalidTensorId;
  OpId Op = ~0u;
  int64_t Lo = 0, Hi = 0; ///< Byte range.
  size_t IterHash = 0;
  int32_t Wg = -1;
  bool Write = false;
};

/// Shared-memory access trace entry for the WAR race detector.
struct SmemAccess {
  TensorId Tensor;
  int64_t Lo = 0, Hi = 0; ///< Byte range.
  double Start = 0, End = 0;
  bool Write = false;
  /// Identity of the accessing instance (op id, warpgroup, iteration hash)
  /// so an instance is never raced against itself.
  OpId Op = ~0u;
  int64_t Wg = -1;
  size_t IterHash = 0;
};

/// Per-op record in the dense op table (indexed by a dense id assigned by
/// the static pre-walk). For Copy/Call ops it also holds the op's
/// instance template (see buildTemplates).
struct OpRec {
  const Operation *Op = nullptr;
  Cost C;
  uint32_t Depth = 0;    ///< Number of enclosing sequential loops.
  uint32_t ChainOff = 0; ///< Enclosing loop ops (dense ids), in ChainArena.
  /// For `For` ops: the coordinate range this loop iterates over, across
  /// all its instantiations (min Lo .. max Hi-1). Sizes the slabs of every
  /// event produced under this loop.
  int64_t MinCoord = std::numeric_limits<int64_t>::max();
  int64_t MaxCoord = std::numeric_limits<int64_t>::min();
  /// Template: [Off, Off + Count) ranges of the PrecondTmpls/SmemTmpls
  /// arenas, the warpgroup replica count (-1 when the op has no warpgroup
  /// dim), and whether the DMA agent issues the op.
  uint32_t PrecondTmplOff = 0, PrecondTmplCount = 0;
  uint32_t SmemTmplOff = 0, SmemTmplCount = 0;
  int64_t WgExtent = -1;
  bool Dma = false;
  /// Dense slots are assigned by a static pre-walk, so an op can hold a
  /// slot without ever being reached (a zero-trip enclosing loop). Events
  /// produced by unreached ops must size their slabs as if the producer
  /// were unknown, exactly as when slots were assigned at first visit.
  bool Visited = false;
};

/// One executable instance of an operation. All variable-length payloads
/// (iteration coordinates, loop-instance path, precondition descriptors,
/// smem ranges) live in the scratch arenas; the instance stores offsets.
struct InstRec {
  const Operation *Op = nullptr;
  int32_t Wg = -1;      ///< -1 when the op has no warpgroup dim.
  uint32_t OpIdx = 0;   ///< Dense op table index.
  uint32_t Depth = 0;   ///< Enclosing loop count == coordinate count.
  uint32_t CoordOff = 0;
  uint32_t LoopOff = 0;
  uint32_t PrecondOff = 0, PrecondCount = 0;
  uint32_t SmemOff = 0, SmemCount = 0;
};

/// Per-event completion table descriptor. Completion cycles for the event's
/// (warpgroup, iteration-prefix) instances live in the shared Times arena
/// at [TimesOff, TimesOff + WgSlots * CoordCount); NaN marks "not yet
/// completed". Slot 0 holds the unreplicated (-1) warpgroup key, slots
/// 1..Wgs the per-warpgroup keys of replicated events. The coordinate box
/// is the producer's own enclosing-loop ranges (ChainOff into the chain
/// arena), so a slab is exactly as large as the set of keys the producer
/// can ever register — sibling loops with skewed extents don't inflate it.
struct EventRec {
  uint64_t TimesOff = 0;
  uint64_t CoordCount = 1;
  uint32_t WgSlots = 1;
  uint32_t Depth = 0;    ///< Number of enclosing loops of the producer.
  uint32_t ChainOff = 0; ///< Producer's enclosing loop ops (dense ids).
  bool WgReplicated = false;
  bool Known = false; ///< Produced inside the grid body.
};

/// Outstanding body-instance count per loop instance (one For op entered at
/// one enclosing iteration prefix).
struct LoopInst {
  int64_t Remaining = 0;
  double MaxTime = 0;
  EventId Event = InvalidEventId;
};

/// One top-level unit of expansion work: a bare Copy/Call directly in the
/// grid body, or one iteration of a top-level sequential loop. The unit
/// list is what the sharded expansion distributes — contiguous ranges of
/// it expand independently into private buffers, and concatenating the
/// shards in index order reproduces the sequential instance order
/// byte-for-byte.
struct TopUnit {
  const Operation *Op = nullptr;
  int64_t Iter = 0;       ///< Loop iteration value (loop units only).
  uint32_t TopLoop = ~0u; ///< Global loop-instance id; ~0u for bare ops.
};

/// Per-op facts one shard accumulates privately; the merge folds them into
/// the global dense op table. Everything here is order-independent: min
/// and max commute, and Visited is a disjunction.
struct OpAcc {
  int64_t MinCoord = std::numeric_limits<int64_t>::max();
  int64_t MaxCoord = std::numeric_limits<int64_t>::min();
  bool Visited = false;
};

/// Private output buffers of one expansion shard, mirroring the arena
/// layout of TimerScratch. Loop-path entries are encoded so the merge can
/// renumber without a per-shard map: values below the top-loop count name
/// a global (pre-created) top-level loop instance, values at or above it
/// name this shard's local loop instances and are shifted by the shard's
/// final base offset. Pooled inside TimerScratch so steady-state sharded
/// runs allocate nothing.
struct ShardBuf {
  std::vector<InstRec> Insts;
  std::vector<std::vector<uint32_t>> Streams; ///< Shard-local inst indices.
  std::vector<int64_t> Coords;
  std::vector<uint32_t> LoopPaths; ///< Encoded loop-instance ids.
  std::vector<PrecondDesc> Preconds;
  std::vector<SmemPre> SmemPres;
  std::vector<LoopInst> Loops;       ///< Nested loop instances (local ids).
  std::vector<int64_t> TopRemaining; ///< Contributions to top-level loops.
  std::vector<OpAcc> Ops;
  // Expansion cursor state (kept here so its capacity pools too).
  std::vector<int64_t> CoordStack;
  std::vector<uint32_t> LoopPath;
  /// The cursor's coordinates and loop path interned into Coords and
  /// LoopPaths, shared by every instance expanded under it; StackDirty
  /// marks a cursor change since the last interning.
  uint32_t StackCoordOff = 0, StackLoopOff = 0;
  size_t StackHash = 0;
  bool StackDirty = true;
  /// Loop-variable bindings are overwritten in place and deliberately NOT
  /// erased on scope exit or between runs: each erase/re-emplace pair is a
  /// map-node allocation, which would put an alloc on every top-level loop
  /// iteration. The verifier guarantees expressions only reference
  /// in-scope variables, so stale bindings are never read.
  ScalarEnv Env;
  std::optional<Diagnostic> Failure;

  void reset(size_t NumAgents, size_t NumOps, size_t NumTopLoops) {
    Insts.clear();
    Coords.clear();
    LoopPaths.clear();
    Preconds.clear();
    SmemPres.clear();
    Loops.clear();
    Streams.resize(NumAgents);
    for (std::vector<uint32_t> &Stream : Streams)
      Stream.clear();
    TopRemaining.assign(NumTopLoops, 0);
    Ops.assign(NumOps, OpAcc());
    CoordStack.clear();
    LoopPath.clear();
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    Failure.reset();
  }
};

/// Times index meaning "no empty completion slot" (see HeadBlockedAt).
constexpr uint64_t NoSlot = ~uint64_t(0);

/// All per-run state of the timing simulator, pooled across runs: clear()
/// resets sizes but keeps capacity, so steady-state simulation performs no
/// allocation. One scratch exists per thread (runTiming is const and may be
/// called concurrently on shared kernels).
struct TimerScratch {
  std::vector<InstRec> Insts;
  std::vector<std::vector<uint32_t>> Streams; ///< Instance indices per agent.
  std::vector<int64_t> Coords;                ///< Iteration-coordinate arena.
  std::vector<uint32_t> LoopPaths;            ///< Loop-instance-path arena.
  std::vector<PrecondDesc> Preconds;
  std::vector<SmemPre> SmemPres;
  std::vector<OpRec> Ops;
  std::vector<PrecondTmpl> PrecondTmpls; ///< Per-op template arenas.
  std::vector<SmemTmpl> SmemTmpls;
  std::vector<uint32_t> OpDense; ///< OpId -> dense op index (~0u absent).
  std::vector<EventRec> Events;  ///< Indexed by EventId.
  std::vector<std::pair<EventId, OpId>> KnownEvents;
  std::vector<double> Times; ///< Shared completion-time arena (NaN = absent).
  std::vector<LoopInst> Loops;
  std::vector<SmemAccess> Accesses;
  std::vector<uint32_t> ChainArena; ///< Enclosing-loop dense ids per op.
  std::vector<TopUnit> Units;       ///< Top-level expansion work list.
  std::vector<ShardBuf> Shards;     ///< Per-shard buffers (pooled).
  // Scheduler / race-detector scratch.
  std::vector<size_t> Cursor;
  std::vector<double> Ready;
  /// Per agent: the head's final precondition time once a check found it
  /// ready (NaN until then), and the Times index of the empty completion
  /// slot that failed its last check (NoSlot when the failure was not an
  /// empty slot, or no check has failed).
  std::vector<double> HeadWait;
  std::vector<uint64_t> HeadBlockedAt;
  std::vector<uint32_t> RaceWrites, RaceReads;

  /// Clears everything except the per-agent streams, which are sized once
  /// the static pre-walk has counted the warpgroups (see buildStreams).
  void reset(size_t NumEvents, const SimHints *Hints) {
    Insts.clear();
    Coords.clear();
    LoopPaths.clear();
    Preconds.clear();
    SmemPres.clear();
    Ops.clear();
    PrecondTmpls.clear();
    SmemTmpls.clear();
    OpDense.clear();
    KnownEvents.clear();
    // Pooling keeps steady-state runs allocation-free, but one outsized
    // simulation must not pin its completion-time arena to the thread for
    // the process lifetime; release anything beyond a generous ceiling.
    Times.clear();
    if (Times.capacity() > (size_t(1) << 22))
      Times.shrink_to_fit();
    Loops.clear();
    Accesses.clear();
    ChainArena.clear();
    Units.clear();
    // Shards are reset per run by the expansion (only the ones it uses).
    Events.assign(NumEvents, EventRec());
    if (Hints) {
      // IR statistics from the compile that produced the module (the pass
      // manager's PipelineStats) pre-size the per-run tables.
      Ops.reserve(Hints->NumOps);
      OpDense.reserve(Hints->NumOps);
      Insts.reserve(Hints->NumOps);
      KnownEvents.reserve(Hints->NumEvents);
    }
  }
};

TimerScratch &timerScratch() {
  static thread_local TimerScratch Scratch;
  return Scratch;
}

class BlockTimer {
public:
  BlockTimer(const IRModule &Module, const SharedAllocation &Alloc,
             const SimConfig &Config, const Operation &Grid,
             TimerScratch &S, const SimHints *Hints, SimWorkerPool *Pool,
             const Cancellation *Cancel)
      : Module(Module), Alloc(Alloc), Config(Config), Grid(Grid), S(S),
        Hints(Hints), Pool(Pool), Cancel(Cancel) {
    if (Cancel)
      SchedCheck = CancelCheck(*Cancel);
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    WgIndex = Env.ProcIndices.find(Processor::Warpgroup);
  }

  ErrorOr<SimResult> run() {
    buildStreams();
    if (Failure)
      return *Failure;
    buildEventTables();
    if (Failure)
      return *Failure;
    schedule();
    if (Failure)
      return *Failure;
    detectRaces();

    SimResult Result;
    Result.BlockCycles = Finish;
    Result.TotalFlops = BlockFlops;
    Result.TmaBusyCycles = TmaBusy;
    Result.TensorCoreBusyCycles = TcBusy;
    Result.Races = std::move(Races);
    return Result;
  }

private:
  //===--- Stream construction --------------------------------------------===//

  void buildStreams() {
    S.reset(Module.numEvents(), Hints);

    // One static pre-walk over the grid body replaces the former
    // warpgroup-count walk, the known-event walk, and the first-visit
    // dense-id assignment of the dynamic expansion: it records every
    // For/Copy/Call op's dense slot, depth, and enclosing-loop chain,
    // takes the widest warpgroup extent, and marks the events produced
    // inside the body (references to anything else are host-level and
    // vacuously ready). Static ids are what let expansion shards run
    // without shared mutable state.
    indexOps(Grid.Body);
    buildTemplates();

    // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
    NumAgents = 1 + static_cast<size_t>(Wgs);
    S.Streams.resize(NumAgents);
    for (std::vector<uint32_t> &Stream : S.Streams)
      Stream.clear();

    buildUnits();
    if (Failure)
      return;
    expandShards();
  }

  /// The static pre-walk (see buildStreams). Mirrors walkOps order — op
  /// before body, recursing into For and PFor alike — so the known-event
  /// list is recorded in the same order as before. Dense slots are only
  /// assigned to For/Copy/Call ops; ops under a PFor keep none, exactly
  /// like the dynamic scheme (reaching a PFor fails the expansion, so
  /// their slots could never have been created).
  void indexOps(const IRBlock &Block) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      Wgs = std::max(Wgs, warpgroupExtent(*Op));
      if (Op->Result != InvalidEventId) {
        EventRec &Rec = S.Events[Op->Result];
        Rec.Known = true;
        Rec.WgReplicated = hasWarpgroupDim(*Op);
        S.KnownEvents.emplace_back(Op->Result, Op->Id);
      }
      switch (Op->Kind) {
      case OpKind::Alloc:
      case OpKind::MakePart:
        break;
      case OpKind::For:
        LoopOpStack.push_back(assignDense(*Op));
        indexOps(Op->Body);
        LoopOpStack.pop_back();
        break;
      case OpKind::PFor:
        indexOps(Op->Body);
        break;
      case OpKind::Copy:
      case OpKind::Call:
        assignDense(*Op);
        break;
      }
    }
  }

  /// Dense op-table slot for \p Op. Nesting is static, so the op's depth
  /// and enclosing-loop chain are recorded once, at slot creation.
  uint32_t assignDense(const Operation &Op) {
    if (Op.Id >= S.OpDense.size())
      S.OpDense.resize(Op.Id + 1, ~0u);
    uint32_t Slot = static_cast<uint32_t>(S.Ops.size());
    S.OpDense[Op.Id] = Slot;
    S.Ops.emplace_back();
    OpRec &Rec = S.Ops.back();
    Rec.Op = &Op;
    Rec.Depth = static_cast<uint32_t>(LoopOpStack.size());
    Rec.ChainOff = static_cast<uint32_t>(S.ChainArena.size());
    S.ChainArena.insert(S.ChainArena.end(), LoopOpStack.begin(),
                        LoopOpStack.end());
    return Slot;
  }

  /// Resolves every Copy/Call op's instance template once per run, after
  /// the pre-walk has marked the in-grid events: its cost, its agent and
  /// warpgroup replication, its in-grid preconditions (references to
  /// other events are always ready, so they are dropped here rather than
  /// skipped by every readiness check), and the allocation of every
  /// shared-memory tensor it touches. Expansion then evaluates only the
  /// warpgroup and buffer index expressions.
  void buildTemplates() {
    for (OpRec &Rec : S.Ops) {
      const Operation &Op = *Rec.Op;
      if (Op.Kind != OpKind::Copy && Op.Kind != OpKind::Call)
        continue;
      Rec.C = costOf(Op);
      Rec.WgExtent = hasWarpgroupDim(Op) ? warpgroupExtent(Op) : -1;
      Rec.Dma = Grid.WarpSpecialize && Op.DmaAgent;

      Rec.PrecondTmplOff = static_cast<uint32_t>(S.PrecondTmpls.size());
      for (const EventRef &Ref : Op.Preconds) {
        if (Ref.Event >= S.Events.size() || !S.Events[Ref.Event].Known)
          continue;
        PrecondTmpl P;
        P.Event = Ref.Event;
        P.IterLag = Ref.IterLag;
        const EventType &Type = Module.event(Ref.Event).Type;
        for (size_t D = 0; D < Ref.Indices.size() && D < Type.Dims.size();
             ++D) {
          if (Ref.Indices[D].isBroadcast())
            P.Broadcast = true; // Warp/thread broadcast: plus a barrier.
          else if (Type.Dims[D].Proc == Processor::Warpgroup)
            P.WgIndex = &Ref.Indices[D].Index;
        }
        S.PrecondTmpls.push_back(P);
      }
      Rec.PrecondTmplCount =
          static_cast<uint32_t>(S.PrecondTmpls.size()) - Rec.PrecondTmplOff;

      Rec.SmemTmplOff = static_cast<uint32_t>(S.SmemTmpls.size());
      auto Record = [&](const TensorSlice &Slice, bool Write) {
        const IRTensor &T = Module.tensor(Slice.Tensor);
        if (T.Mem != Memory::Shared)
          return;
        const SharedAllocation::Entry *Entry = Alloc.find(Slice.Tensor);
        if (!Entry)
          return;
        S.SmemTmpls.push_back(
            {Slice.Tensor, Entry->Offset,
             Entry->Bytes / std::max<int64_t>(T.PipelineDepth, 1),
             &Slice.BufferIndex, Write});
      };
      if (Op.Kind == OpKind::Copy) {
        Record(Op.CopySrc, false);
        Record(Op.CopyDst, true);
      } else {
        for (size_t I = 0; I < Op.Args.size(); ++I)
          Record(Op.Args[I], Op.ArgIsWritten[I]);
      }
      Rec.SmemTmplCount =
          static_cast<uint32_t>(S.SmemTmpls.size()) - Rec.SmemTmplOff;
    }
  }

  /// Flattens the grid body's top level into the unit work list: one unit
  /// per bare Copy/Call and one per iteration of each top-level For. The
  /// top-level loops' instances are created here (ids 0..NumTopLoops-1)
  /// because their iterations may be split across shards — each shard
  /// counts its body instances privately and the merge sums them.
  void buildUnits() {
    for (const std::unique_ptr<Operation> &Op : Grid.Body.Ops) {
      switch (Op->Kind) {
      case OpKind::Alloc:
      case OpKind::MakePart:
        break; // No runtime cost; addresses come from the allocator.
      case OpKind::For: {
        OpRec &Rec = S.Ops[S.OpDense[Op->Id]];
        Rec.Visited = true;
        WgIndex->second = 0;
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        if (Lo < Hi) {
          Rec.MinCoord = std::min(Rec.MinCoord, Lo);
          Rec.MaxCoord = std::max(Rec.MaxCoord, Hi - 1);
        }
        uint32_t LI = static_cast<uint32_t>(S.Loops.size());
        S.Loops.push_back({0, 0.0, Op->Result});
        for (int64_t K = Lo; K < Hi; ++K)
          S.Units.push_back({Op.get(), K, LI});
        break;
      }
      case OpKind::PFor:
        fail("nested parallel loops must be flattened before simulation");
        return;
      case OpKind::Copy:
      case OpKind::Call:
        S.Units.push_back({Op.get(), 0, ~0u});
        break;
      }
    }
    NumTopLoops = static_cast<uint32_t>(S.Loops.size());
  }

  /// Splits the unit list into contiguous shards, expands each into its
  /// private buffers (across the worker pool when one is available), and
  /// merges in shard order. The shard count never changes results — only
  /// which thread produced which contiguous slice — so any parallelism,
  /// including none, yields bit-identical timing.
  void expandShards() {
    size_t NumUnits = S.Units.size();
    size_t NumShards = 1;
    if (Pool && NumUnits > 1)
      NumShards = std::min(Pool->parallelism(), NumUnits);
    if (S.Shards.size() < NumShards)
      S.Shards.resize(NumShards);
    for (size_t I = 0; I < NumShards; ++I) {
      ShardBuf &B = S.Shards[I];
      B.reset(NumAgents, S.Ops.size(), NumTopLoops);
      if (Hints && Hints->NumOps) {
        // The same IR statistics that pre-size the global tables, divided
        // across the shards (each sees roughly 1/NumShards of the work).
        size_t PerShard = Hints->NumOps / NumShards + 1;
        B.Insts.reserve(PerShard);
        B.Preconds.reserve(PerShard);
        B.SmemPres.reserve(PerShard);
      }
    }
    auto Work = [&](size_t Shard) {
      expandUnitRange(S.Shards[Shard], NumUnits * Shard / NumShards,
                      NumUnits * (Shard + 1) / NumShards);
    };
    if (NumShards > 1)
      Pool->parallelFor(NumShards, Work);
    else
      Work(0);
    mergeShards(NumShards);
  }

  /// Expands units [Begin, End) into \p B. Runs on a pool worker: reads
  /// only immutable state (the IR, the allocation, the pre-walked dense
  /// tables and event flags) and writes only \p B.
  void expandUnitRange(ShardBuf &B, size_t Begin, size_t End) {
    ScalarEnv &Env = B.Env;
    auto WgIt = Env.ProcIndices.find(Processor::Warpgroup);
    // Each shard polls its own checkpoint (the stride counter is
    // per-thread state); shards that notice the stop write their failure
    // and the in-order merge surfaces the first one, so the exit is as
    // deterministic as the expansion itself.
    CancelCheck Check = Cancel ? CancelCheck(*Cancel) : CancelCheck();
    for (size_t U = Begin; U < End && !B.Failure; ++U) {
      if (Check.enabled() && Check.shouldStop()) {
        B.Failure = Check.diagnostic("simulation shard expansion");
        return;
      }
      const TopUnit &Unit = S.Units[U];
      B.CoordStack.clear();
      B.LoopPath.clear();
      B.StackDirty = true;
      if (Unit.TopLoop != ~0u) {
        auto [VarIt, Inserted] =
            Env.LoopVars.emplace(Unit.Op->LoopVar, Unit.Iter);
        (void)Inserted;
        VarIt->second = Unit.Iter;
        B.CoordStack.push_back(Unit.Iter);
        B.LoopPath.push_back(Unit.TopLoop);
        expandShardBlock(B, Env, WgIt, Unit.Op->Body);
      } else {
        expandShardOp(B, Env, WgIt, *Unit.Op);
      }
    }
  }

  void expandShardBlock(ShardBuf &B, ScalarEnv &Env,
                        std::map<Processor, int64_t>::iterator WgIt,
                        const IRBlock &Block) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (B.Failure)
        return;
      switch (Op->Kind) {
      case OpKind::Alloc:
      case OpKind::MakePart:
        break; // No runtime cost; addresses come from the allocator.
      case OpKind::For: {
        OpAcc &Acc = B.Ops[S.OpDense[Op->Id]];
        Acc.Visited = true;
        WgIt->second = 0;
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        if (Lo < Hi) {
          Acc.MinCoord = std::min(Acc.MinCoord, Lo);
          Acc.MaxCoord = std::max(Acc.MaxCoord, Hi - 1);
        }
        // Encoded local id: shifted past the global top-level loops.
        uint32_t LI = NumTopLoops + static_cast<uint32_t>(B.Loops.size());
        B.Loops.push_back({0, 0.0, Op->Result});
        B.LoopPath.push_back(LI);
        auto [VarIt, Inserted] = Env.LoopVars.emplace(Op->LoopVar, 0);
        (void)Inserted;
        for (int64_t K = Lo; K < Hi; ++K) {
          VarIt->second = K;
          B.CoordStack.push_back(K);
          B.StackDirty = true;
          expandShardBlock(B, Env, WgIt, Op->Body);
          B.CoordStack.pop_back();
        }
        B.LoopPath.pop_back();
        B.StackDirty = true;
        break;
      }
      case OpKind::PFor:
        if (!B.Failure)
          B.Failure = Diagnostic(
              "nested parallel loops must be flattened before simulation");
        return;
      case OpKind::Copy:
      case OpKind::Call:
        expandShardOp(B, Env, WgIt, *Op);
        break;
      }
    }
  }

  void expandShardOp(ShardBuf &B, ScalarEnv &Env,
                     std::map<Processor, int64_t>::iterator WgIt,
                     const Operation &Op) {
    uint32_t OpIdx = S.OpDense[Op.Id];
    const OpRec &T = S.Ops[OpIdx];
    if (B.StackDirty) {
      // Every instance under one cursor position shares one interned copy
      // of its coordinates and loop path.
      B.StackCoordOff = static_cast<uint32_t>(B.Coords.size());
      B.Coords.insert(B.Coords.end(), B.CoordStack.begin(),
                      B.CoordStack.end());
      B.StackLoopOff = static_cast<uint32_t>(B.LoopPaths.size());
      B.LoopPaths.insert(B.LoopPaths.end(), B.LoopPath.begin(),
                         B.LoopPath.end());
      B.StackHash = 0;
      for (int64_t I : B.CoordStack)
        B.StackHash = B.StackHash * 1000003u + static_cast<size_t>(I + 1);
      B.StackDirty = false;
    }
    if (T.WgExtent >= 0) {
      for (int64_t Wg = 0; Wg < T.WgExtent; ++Wg)
        pushInstance(B, Env, WgIt, T, OpIdx, Wg,
                     T.Dma ? 0 : 1 + static_cast<size_t>(Wg));
    } else {
      pushInstance(B, Env, WgIt, T, OpIdx, -1, T.Dma ? 0 : 1);
    }
  }

  /// Materializes one executable instance of template \p T into \p B:
  /// evaluates its warpgroup and buffer indices under the instance's
  /// environment, counts it against every enclosing loop instance, and
  /// appends it to its agent's stream.
  void pushInstance(ShardBuf &B, ScalarEnv &Env,
                    std::map<Processor, int64_t>::iterator WgIt,
                    const OpRec &T, uint32_t OpIdx, int64_t Wg,
                    size_t Agent) {
    B.Ops[OpIdx].Visited = true;
    InstRec R;
    R.Op = T.Op;
    R.Wg = static_cast<int32_t>(Wg);
    R.OpIdx = OpIdx;
    R.Depth = static_cast<uint32_t>(B.CoordStack.size());
    R.CoordOff = B.StackCoordOff;
    R.LoopOff = B.StackLoopOff;

    // Count every instance against every enclosing loop so the loop's
    // completion event fires when all body instances have finished. The
    // top-level loop a shard shares with its peers is counted privately
    // and summed at merge time.
    for (uint32_t LI : B.LoopPath) {
      if (LI < NumTopLoops)
        ++B.TopRemaining[LI];
      else
        ++B.Loops[LI - NumTopLoops].Remaining;
    }

    WgIt->second = std::max<int64_t>(Wg, 0);

    R.PrecondOff = static_cast<uint32_t>(B.Preconds.size());
    R.PrecondCount = T.PrecondTmplCount;
    const PrecondTmpl *P = S.PrecondTmpls.data() + T.PrecondTmplOff;
    for (uint32_t I = 0; I < T.PrecondTmplCount; ++I, ++P)
      B.Preconds.push_back(
          {P->Event, P->IterLag,
           P->WgIndex ? static_cast<int32_t>(P->WgIndex->evaluate(Env)) : -1,
           P->Broadcast});

    R.SmemOff = static_cast<uint32_t>(B.SmemPres.size());
    R.SmemCount = T.SmemTmplCount;
    const SmemTmpl *M = S.SmemTmpls.data() + T.SmemTmplOff;
    for (uint32_t I = 0; I < T.SmemTmplCount; ++I, ++M) {
      int64_t Lo = M->Offset + M->BufferIndex->evaluate(Env) * M->BufBytes;
      B.SmemPres.push_back({M->Tensor, T.Op->Id, Lo, Lo + M->BufBytes,
                            B.StackHash, static_cast<int32_t>(Wg), M->Write});
    }

    B.Insts.push_back(R);
    B.Streams[Agent].push_back(static_cast<uint32_t>(B.Insts.size() - 1));
  }

  /// Concatenates the shard buffers into the global arenas in shard
  /// order, fixing up offsets and renumbering shard-local loop instances
  /// past the top-level ones. Because shards cover contiguous unit ranges
  /// in order, the merged instance order is exactly the sequential
  /// dynamic expansion order.
  void mergeShards(size_t NumShards) {
    for (size_t I = 0; I < NumShards && !Failure; ++I)
      if (S.Shards[I].Failure)
        Failure = S.Shards[I].Failure;
    if (Failure)
      return;
    uint32_t LoopShift = 0; // Sum of earlier shards' local loop counts.
    for (size_t SI = 0; SI < NumShards; ++SI) {
      ShardBuf &B = S.Shards[SI];
      for (size_t O = 0, E = B.Ops.size(); O != E; ++O) {
        const OpAcc &Acc = B.Ops[O];
        if (!Acc.Visited)
          continue; // Shards only write facts about ops they reached.
        OpRec &R = S.Ops[O];
        R.Visited = true;
        R.MinCoord = std::min(R.MinCoord, Acc.MinCoord);
        R.MaxCoord = std::max(R.MaxCoord, Acc.MaxCoord);
      }
      for (uint32_t T = 0; T < NumTopLoops; ++T)
        S.Loops[T].Remaining += B.TopRemaining[T];
      S.Loops.insert(S.Loops.end(), B.Loops.begin(), B.Loops.end());

      if (SI == 0) {
        // The global arenas are still empty, so shard 0's offsets and
        // loop ids are final: adopt its buffers instead of copying them.
        // (The swapped-out buffers keep their capacity in the shard.)
        S.Insts.swap(B.Insts);
        S.Coords.swap(B.Coords);
        S.LoopPaths.swap(B.LoopPaths);
        S.Preconds.swap(B.Preconds);
        S.SmemPres.swap(B.SmemPres);
        for (size_t A = 0; A < NumAgents; ++A)
          S.Streams[A].swap(B.Streams[A]);
        LoopShift = static_cast<uint32_t>(B.Loops.size());
        continue;
      }

      uint32_t InstBase = static_cast<uint32_t>(S.Insts.size());
      uint32_t CoordBase = static_cast<uint32_t>(S.Coords.size());
      uint32_t LoopPathBase = static_cast<uint32_t>(S.LoopPaths.size());
      uint32_t PrecondBase = static_cast<uint32_t>(S.Preconds.size());
      uint32_t SmemBase = static_cast<uint32_t>(S.SmemPres.size());
      for (const InstRec &Inst : B.Insts) {
        InstRec R = Inst;
        R.CoordOff += CoordBase;
        R.LoopOff += LoopPathBase;
        R.PrecondOff += PrecondBase;
        R.SmemOff += SmemBase;
        S.Insts.push_back(R);
      }
      S.Coords.insert(S.Coords.end(), B.Coords.begin(), B.Coords.end());
      S.Preconds.insert(S.Preconds.end(), B.Preconds.begin(),
                        B.Preconds.end());
      S.SmemPres.insert(S.SmemPres.end(), B.SmemPres.begin(),
                        B.SmemPres.end());
      for (uint32_t Entry : B.LoopPaths)
        S.LoopPaths.push_back(Entry < NumTopLoops ? Entry
                                                  : Entry + LoopShift);
      for (size_t A = 0; A < NumAgents; ++A)
        for (uint32_t Idx : B.Streams[A])
          S.Streams[A].push_back(Idx + InstBase);
      LoopShift += static_cast<uint32_t>(B.Loops.size());
    }
  }

  //===--- Completion-time tables -----------------------------------------===//

  /// Sizes the flat completion-time arena: one slab per in-grid event,
  /// (Wgs + 1) warpgroup slots when replicated, times the coordinate box of
  /// the producer's own enclosing loops (ranges observed during expansion).
  /// Sizing each slab from the producer's chain — not a per-depth union —
  /// means the arena holds exactly the keys producers can register, the
  /// same cardinality the sparse ordered map used to reach.
  void buildEventTables() {
    uint64_t Total = 0;
    for (auto [Event, ProducerId] : S.KnownEvents) {
      EventRec &Rec = S.Events[Event];
      uint32_t Dense =
          ProducerId < S.OpDense.size() ? S.OpDense[ProducerId] : ~0u;
      // A statically indexed producer that was never reached (zero-trip
      // enclosing loop) sizes like an unknown one, as it did when slots
      // were assigned at first dynamic visit.
      if (Dense != ~0u && !S.Ops[Dense].Visited)
        Dense = ~0u;
      Rec.Depth = 0;
      Rec.ChainOff = 0;
      Rec.CoordCount = 1;
      if (Dense != ~0u) {
        const OpRec &Producer = S.Ops[Dense];
        Rec.Depth = Producer.Depth;
        Rec.ChainOff = Producer.ChainOff;
        for (uint32_t D = 0; D < Rec.Depth; ++D) {
          const OpRec &Loop = S.Ops[S.ChainArena[Rec.ChainOff + D]];
          // The op was reached, so every enclosing loop ran >= 1 iteration.
          Rec.CoordCount *= static_cast<uint64_t>(Loop.MaxCoord -
                                                  Loop.MinCoord + 1);
          if (Rec.CoordCount > (uint64_t(1) << 32))
            break;
        }
      }
      Rec.WgSlots =
          Rec.WgReplicated ? static_cast<uint32_t>(NumAgents) : 1;
      Rec.TimesOff = Total;
      Total += static_cast<uint64_t>(Rec.WgSlots) * Rec.CoordCount;
    }
    // A nest this size would also have been hopeless for the sparse map
    // (one key per executed iteration); fail with a diagnostic instead of
    // allocating gigabytes per thread.
    if (Total > (uint64_t(1) << 27)) {
      fail("simulation iteration space too large for dense event tables");
      return;
    }
    // The NaN fill of the completion-time arena is the one O(iteration
    // space) initialization; chunk it across the pool when the arena is
    // big enough for the fan-out to pay for itself. Disjoint ranges, so
    // any chunk order produces the same bytes.
    S.Times.resize(Total);
    double *Data = S.Times.data();
    const double NaN = std::numeric_limits<double>::quiet_NaN();
    size_t Chunks = Pool ? Pool->parallelism() : 1;
    if (Chunks > 1 && Total > (uint64_t(1) << 16)) {
      Pool->parallelFor(Chunks, [&](size_t C) {
        std::fill(Data + Total * C / Chunks,
                  Data + Total * (C + 1) / Chunks, NaN);
      });
    } else {
      std::fill(Data, Data + Total, NaN);
    }
  }

  /// Strided linear index of the coordinate prefix Coords[0..Len) within
  /// \p Rec's producer coordinate box, with the last coordinate overridden
  /// by \p Last (pipeline lag). False when any coordinate falls outside
  /// the box (no producer instance exists there).
  bool coordIndex(const EventRec &Rec, const int64_t *Coords, uint32_t Len,
                  int64_t Last, uint64_t &Out) const {
    uint64_t Idx = 0;
    const uint32_t *Chain = S.ChainArena.data() + Rec.ChainOff;
    for (uint32_t D = 0; D < Len; ++D) {
      const OpRec &Loop = S.Ops[Chain[D]];
      int64_t C = (D + 1 == Len) ? Last : Coords[D];
      if (C < Loop.MinCoord || C > Loop.MaxCoord)
        return false;
      Idx = Idx * static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1) +
            static_cast<uint64_t>(C - Loop.MinCoord);
    }
    Out = Idx;
    return true;
  }

  /// Completion cycle of the warpgroup \p Wg instance (-1: unreplicated)
  /// of the key at coordinate index \p Idx (see coordIndex) of \p Rec;
  /// false when that instance has not completed, with \p Pending set to
  /// its still-empty Times slot, or when the event has no such warpgroup
  /// slot (Pending = NoSlot).
  bool lookupTime(const EventRec &Rec, int64_t Wg, uint64_t Idx, double &Out,
                  uint64_t &Pending) const {
    uint64_t Slot = Wg < 0 ? 0 : static_cast<uint64_t>(Wg) + 1;
    if (Slot >= Rec.WgSlots) {
      Pending = NoSlot;
      return false;
    }
    uint64_t At = Rec.TimesOff + Slot * Rec.CoordCount + Idx;
    double T = S.Times[At];
    if (std::isnan(T)) {
      Pending = At;
      return false;
    }
    Out = T;
    return true;
  }

  //===--- Cost model -------------------------------------------------------===//

  Cost costOf(const Operation &Op) const {
    Cost C;
    if (Op.Kind == OpKind::Copy) {
      int64_t Bytes = Module.sliceBytes(Op.CopySrc);
      Memory Src = Module.tensor(Op.CopySrc.Tensor).Mem;
      Memory Dst = Module.tensor(Op.CopyDst.Tensor).Mem;
      bool Global = Src == Memory::Global || Dst == Memory::Global;
      if (Op.Unit == ExecUnit::TMA) {
        C.Unit = Cost::UnitKind::Tma;
        C.IssueCycles = Config.SimtLatency;
        C.UnitCycles = static_cast<double>(Bytes) / Config.TmaBytesPerCycle;
        C.Latency = Config.GlobalLatency;
      } else if (Global) {
        // SIMT path to global memory (the no-TMA fallback).
        C.IssueCycles = Config.SimtLatency +
                        static_cast<double>(Bytes) /
                            Config.SimtGlobalBytesPerCycle;
        C.Latency = Config.GlobalLatency;
      } else {
        C.IssueCycles = Config.SimtLatency +
                        static_cast<double>(Bytes) /
                            Config.SimtLocalBytesPerCycle;
      }
      return C;
    }
    assert(Op.Kind == OpKind::Call && "costOf expects copies or calls");
    if (Op.Unit == ExecUnit::TensorCore) {
      C.Unit = Cost::UnitKind::TensorCore;
      C.IssueCycles = Config.SimtLatency;
      C.UnitCycles = Op.Flops / Config.TensorCoreFlopsPerCycle;
      C.Latency = Config.TensorCoreLatency;
    } else {
      C.IssueCycles = Config.SimtLatency +
                      Op.Flops / Config.SimtFlopsPerCycle;
    }
    return C;
  }

  //===--- Scheduling --------------------------------------------------------===//

  void schedule() {
    const double NaN = std::numeric_limits<double>::quiet_NaN();
    S.Cursor.assign(NumAgents, 0);
    S.Ready.assign(NumAgents, 0.0);
    S.HeadWait.assign(NumAgents, NaN);
    S.HeadBlockedAt.assign(NumAgents, NoSlot);

    // Time-ordered scheduling: of all agents whose next instruction has
    // satisfied preconditions, execute the one that can start earliest.
    // (Greedy per-agent draining would let one warpgroup book the shared
    // Tensor Core arbitrarily far ahead of its peers, which the hardware
    // warp scheduler does not do.)
    //
    // Each head is checked incrementally. Completion slots are written
    // once per run and never cleared, and precondsReady stops at the
    // first unmet precondition, so a ready head's wait time is final
    // (HeadWait), and a head that failed on an empty slot fails the same
    // way until that slot fills (HeadBlockedAt): skipping it costs one
    // load. A failure without an empty slot is re-checked every step.
    //
    // Start times never decrease from one step to the next: the chosen
    // head starts no earlier than any other ready head, and a head this
    // step makes ready waits on a completion it wrote, which is no earlier
    // than its start. The race sweep relies on that order (anyRace).
    while (true) {
      // Relaxation checkpoint: one strided poll per scheduling step, so a
      // deadline cuts even a pathological event graph off instead of
      // spinning to the end of its streams.
      if (SchedCheck.enabled() && SchedCheck.shouldStop()) {
        fail(SchedCheck.diagnostic("simulation event relaxation"));
        return;
      }
      size_t BestAgent = ~size_t(0);
      double BestStart = 0.0, BestWait = 0.0;
      bool AnyPending = false;
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        if (S.Cursor[Agent] >= S.Streams[Agent].size())
          continue;
        AnyPending = true;
        double &WaitTime = S.HeadWait[Agent];
        if (std::isnan(WaitTime)) {
          uint64_t &Blocked = S.HeadBlockedAt[Agent];
          if (Blocked != NoSlot && std::isnan(S.Times[Blocked]))
            continue;
          double Wait;
          if (!precondsReady(S.Insts[S.Streams[Agent][S.Cursor[Agent]]],
                             Wait, Blocked))
            continue;
          WaitTime = Wait;
        }
        double Start = std::max(S.Ready[Agent], WaitTime);
        if (BestAgent == ~size_t(0) || Start < BestStart) {
          BestAgent = Agent;
          BestStart = Start;
          BestWait = WaitTime;
        }
      }
      if (!AnyPending)
        break;
      if (BestAgent == ~size_t(0)) {
        for (size_t Agent = 0; Agent < NumAgents; ++Agent)
          if (S.Cursor[Agent] < S.Streams[Agent].size()) {
            fail(formatString(
                "simulation deadlock: agent %zu blocked at instruction %zu "
                "(missing event producer)",
                Agent, S.Cursor[Agent]));
            return;
          }
      }
      executeInstance(S.Insts[S.Streams[BestAgent][S.Cursor[BestAgent]]],
                      S.Ready[BestAgent], BestWait);
      ++S.Cursor[BestAgent];
      S.HeadWait[BestAgent] = NaN;
      S.HeadBlockedAt[BestAgent] = NoSlot;
    }
    for (size_t Agent = 0; Agent < NumAgents; ++Agent)
      Finish = std::max(Finish, S.Ready[Agent]);
    // Outstanding async completions also bound the block time.
    Finish = std::max(Finish, LastCompletion);
  }

  /// Checks the preconditions of an instance in order, stopping at the
  /// first unmet one; on success \p WaitTime is the cycle when the last of
  /// them completes, on failure \p BlockedAt is the empty Times slot it
  /// waits on (NoSlot when no slot holds its key).
  bool precondsReady(const InstRec &Inst, double &WaitTime,
                     uint64_t &BlockedAt) const {
    WaitTime = 0.0;
    const PrecondDesc *P = S.Preconds.data() + Inst.PrecondOff;
    const int64_t *Coords = S.Coords.data() + Inst.CoordOff;
    for (uint32_t I = 0; I < Inst.PrecondCount; ++I, ++P) {
      // Expansion keeps only in-grid events (see buildTemplates).
      const EventRec &Rec = S.Events[P->Event];
      uint32_t KeyLen = std::min<uint32_t>(Inst.Depth, Rec.Depth);
      int64_t Last = KeyLen ? Coords[KeyLen - 1] : 0;
      if (P->IterLag > 0) {
        if (KeyLen == 0)
          continue; // Lag at depth zero: vacuously satisfied.
        Last -= P->IterLag;
        if (Last < 0)
          continue; // First PIPE iterations: buffer not yet reused.
      }

      // Producers always register keys at their own depth; a shorter
      // prefix (consumer shallower than producer) can never match, nor can
      // a key outside the producer's coordinate box.
      uint64_t Idx;
      if (KeyLen != Rec.Depth ||
          !coordIndex(Rec, Coords, KeyLen, Last, Idx)) {
        BlockedAt = NoSlot;
        return false;
      }
      double Cycle = 0.0;
      if (Rec.WgReplicated) {
        if (P->WantWg >= 0 && !P->Broadcast) {
          if (!lookupTime(Rec, P->WantWg, Idx, Cycle, BlockedAt))
            return false;
        } else {
          // All warpgroup instances must exist.
          int64_t Wgs = static_cast<int64_t>(NumAgents) - 1;
          for (int64_t Wg = 0; Wg < Wgs; ++Wg) {
            double T;
            if (!lookupTime(Rec, Wg, Idx, T, BlockedAt))
              return false;
            Cycle = std::max(Cycle, T);
          }
          Cycle += Config.BarrierLatency;
        }
      } else {
        if (!lookupTime(Rec, -1, Idx, Cycle, BlockedAt))
          return false;
        if (P->Broadcast)
          Cycle += Config.BarrierLatency;
      }
      WaitTime = std::max(WaitTime, Cycle);
    }
    return true;
  }

  void executeInstance(const InstRec &Inst, double &Ready, double WaitTime) {
    const Operation &Op = *Inst.Op;
    const Cost &C = S.Ops[Inst.OpIdx].C;

    double Start = std::max(Ready, WaitTime);
    double Completion;
    if (C.Unit == Cost::UnitKind::Tma) {
      double UnitStart = std::max(Start + C.IssueCycles, TmaFree);
      TmaFree = UnitStart + C.UnitCycles;
      TmaBusy += C.UnitCycles;
      Completion = TmaFree + C.Latency;
      Ready = Start + C.IssueCycles; // Issuing agent moves on (async).
    } else if (C.Unit == Cost::UnitKind::TensorCore) {
      double UnitStart = std::max(Start + C.IssueCycles, TcFree);
      TcFree = UnitStart + C.UnitCycles;
      TcBusy += C.UnitCycles;
      Completion = TcFree + C.Latency;
      Ready = Start + C.IssueCycles; // wgmma is asynchronous too.
    } else {
      Completion = Start + C.IssueCycles;
      Ready = Completion;
    }
    LastCompletion = std::max(LastCompletion, Completion);

    const int64_t *Coords = S.Coords.data() + Inst.CoordOff;

#ifdef CYPRESS_SIM_TRACE
    if (Inst.Depth > 0 && Coords[0] < 8)
      std::fprintf(stderr,
                   "[trace] op%u %s wg=%d k=%lld start=%.0f done=%.0f "
                   "wait=%.0f\n",
                   Op.Id, Op.Kind == OpKind::Copy ? "copy" : Op.Callee.c_str(),
                   Inst.Wg,
                   (long long)(Inst.Depth == 0 ? -1 : Coords[0]), Start,
                   Completion, WaitTime);
#endif

    if (Op.Kind == OpKind::Call)
      BlockFlops += Op.Flops;

    if (Op.Result != InvalidEventId) {
      EventRec &Rec = S.Events[Op.Result];
      uint32_t KeyLen = std::min(Inst.Depth, S.Ops[Inst.OpIdx].Depth);
      uint64_t Idx = 0;
      bool InRange = coordIndex(
          Rec, Coords, KeyLen, KeyLen ? Coords[KeyLen - 1] : 0, Idx);
      assert(InRange && KeyLen == Rec.Depth &&
             "producer key outside its own coordinate box");
      (void)InRange;
      uint64_t Slot = Inst.Wg < 0 ? 0 : static_cast<uint64_t>(Inst.Wg) + 1;
      S.Times[Rec.TimesOff + Slot * Rec.CoordCount + Idx] = Completion;
    }

    // Credit the completion to every enclosing loop; when the last body
    // instance of a loop instance finishes, the loop's completion event
    // becomes available (Figure 8's `for` events).
    const uint32_t *Path = S.LoopPaths.data() + Inst.LoopOff;
    for (uint32_t D = 0; D < Inst.Depth; ++D) {
      LoopInst &Loop = S.Loops[Path[D]];
      Loop.MaxTime = std::max(Loop.MaxTime, Completion);
      if (--Loop.Remaining == 0 && Loop.Event != InvalidEventId) {
        EventRec &Rec = S.Events[Loop.Event];
        Rec.Depth = D;
        uint64_t Idx = 0;
        bool InRange =
            coordIndex(Rec, Coords, D, D ? Coords[D - 1] : 0, Idx);
        assert(InRange && "loop prefix outside its own coordinate box");
        (void)InRange;
        S.Times[Rec.TimesOff + Idx] = Loop.MaxTime; // Warpgroup slot -1.
      }
    }

    const SmemPre *Pre = S.SmemPres.data() + Inst.SmemOff;
    for (uint32_t I = 0; I < Inst.SmemCount; ++I, ++Pre)
      S.Accesses.push_back({Pre->Tensor, Pre->Lo, Pre->Hi, Start, Completion,
                            Pre->Write, Pre->Op, Pre->Wg, Pre->IterHash});
  }

  //===--- Race detection ----------------------------------------------------===//

  static bool isRacePair(const SmemAccess &A, const SmemAccess &B) {
    // Same-tensor conflicts are real too: an unsynchronized loop would
    // overwrite a buffer another iteration is still reading. Only the
    // exact same instance (and the read side of its own write) is exempt.
    if (A.Op == B.Op && A.Wg == B.Wg && A.IterHash == B.IterHash)
      return false;
    if (!(A.Write || B.Write))
      return false;
    // Distinct warpgroups touch disjoint slices of per-warpgroup tensors;
    // the byte-range trace is per-tensor, so cross-warpgroup pairs on the
    // same tensor cannot be classified and are skipped.
    if (A.Tensor == B.Tensor && A.Wg != B.Wg)
      return false;
    bool AddrOverlap = A.Lo < B.Hi && B.Lo < A.Hi;
    bool TimeOverlap = A.Start < B.End && B.Start < A.End;
    return AddrOverlap && TimeOverlap;
  }

  /// Interval sweep over the access trace in start order: an access only
  /// needs checking against the accesses still in flight when it starts,
  /// so the all-clear case (every healthy kernel) is near-linear.
  bool anyRace() {
    size_t N = S.Accesses.size();
    if (N < 2)
      return false;
    // The scheduler never starts an instance before the previous one (see
    // schedule), so the trace is already in start order.
    assert(std::is_sorted(S.Accesses.begin(), S.Accesses.end(),
                          [](const SmemAccess &A, const SmemAccess &B) {
                            return A.Start < B.Start;
                          }) &&
           "shared-memory trace out of start order");
    // Checks B against one list of earlier accesses, dropping expired ones.
    auto Sweep = [&](std::vector<uint32_t> &Active, const SmemAccess &B) {
      size_t Keep = 0;
      for (uint32_t ActiveIdx : Active) {
        const SmemAccess &A = S.Accesses[ActiveIdx];
        if (A.End <= B.Start)
          continue; // Expired: can never overlap anything later either.
        if (isRacePair(A, B))
          return true;
        Active[Keep++] = ActiveIdx;
      }
      Active.resize(Keep);
      return false;
    };
    // Two reads never race, so in-flight reads and writes are kept apart
    // and a read is checked against the writes only.
    S.RaceWrites.clear();
    S.RaceReads.clear();
    for (uint32_t Idx = 0; Idx < N; ++Idx) {
      const SmemAccess &B = S.Accesses[Idx];
      if (Sweep(S.RaceWrites, B) || (B.Write && Sweep(S.RaceReads, B)))
        return true;
      (B.Write ? S.RaceWrites : S.RaceReads).push_back(Idx);
    }
    return false;
  }

  void detectRaces() {
    // Fast path: prove the trace race-free with the interval sweep. Only
    // when a hazard exists does the exact pairwise scan run, so diagnostics
    // keep their historical order and cap.
    if (!anyRace())
      return;
    for (size_t I = 0; I < S.Accesses.size(); ++I) {
      for (size_t J = I + 1; J < S.Accesses.size(); ++J) {
        const SmemAccess &A = S.Accesses[I];
        const SmemAccess &B = S.Accesses[J];
        if (!isRacePair(A, B))
          continue;
        Races.push_back(formatString(
            "shared-memory hazard between %s and %s (aliased bytes "
            "[%lld, %lld) overlap in time)",
            Module.tensor(A.Tensor).Name.c_str(),
            Module.tensor(B.Tensor).Name.c_str(),
            static_cast<long long>(std::max(A.Lo, B.Lo)),
            static_cast<long long>(std::min(A.Hi, B.Hi))));
        if (Races.size() > 8)
          return; // Enough evidence.
      }
    }
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }
  void fail(Diagnostic Diag) {
    if (!Failure)
      Failure = std::move(Diag);
  }

  const IRModule &Module;
  const SharedAllocation &Alloc;
  const SimConfig &Config;
  const Operation &Grid;
  TimerScratch &S;
  const SimHints *Hints;
  SimWorkerPool *Pool; ///< Null: expand in one shard on this thread.
  const Cancellation *Cancel = nullptr;
  CancelCheck SchedCheck; ///< The scheduling loop's (main-thread) poll.

  size_t NumAgents = 0;
  int64_t Wgs = 1;          ///< Widest warpgroup dim (static pre-walk).
  uint32_t NumTopLoops = 0; ///< Global loop instances from buildUnits.

  /// Top-level environment for buildUnits' bound evaluation (per-shard
  /// expansion keeps its own; see expandUnitRange).
  ScalarEnv Env;
  std::map<Processor, int64_t>::iterator WgIndex;
  std::vector<uint32_t> LoopOpStack; ///< Pre-walk: enclosing For dense ids.

  std::vector<std::string> Races;

  double TmaFree = 0, TcFree = 0;
  double TmaBusy = 0, TcBusy = 0;
  double Finish = 0, LastCompletion = 0;
  double BlockFlops = 0;
  std::optional<Diagnostic> Failure;
};

} // namespace

//===----------------------------------------------------------------------===//
// Functional execution
//===----------------------------------------------------------------------===//

namespace {

/// Storage key of one tensor instance: the values of the processor indices
/// the tensor's alloc context names, inline (the context is at most one
/// index per machine processor level).
struct StorageKey {
  std::array<int64_t, 6> Values{};
  uint32_t Len = 0;

  bool operator==(const StorageKey &Other) const {
    if (Len != Other.Len)
      return false;
    for (uint32_t I = 0; I < Len; ++I)
      if (Values[I] != Other.Values[I])
        return false;
    return true;
  }
};

struct StorageKeyHash {
  size_t operator()(const StorageKey &Key) const {
    uint64_t Hash = 1469598103934665603ull;
    for (uint32_t I = 0; I < Key.Len; ++I)
      Hash = (Hash ^ static_cast<uint64_t>(Key.Values[I])) *
             1099511628211ull;
    return static_cast<size_t>(Hash ^ Key.Len);
  }
};

class FunctionalExec {
public:
  FunctionalExec(const IRModule &Module, const LeafRegistry &Leaves,
                 const std::vector<TensorData *> &EntryBuffers)
      : Module(Module), Leaves(Leaves), EntryBuffers(EntryBuffers) {}

  ErrorOrVoid run() {
    // Map alloc contexts (which processor dims key a tensor's storage):
    // flat per-tensor pointers into the IR, no ordered map.
    AllocContext.assign(Module.tensors().size(), nullptr);
    Storage.resize(Module.tensors().size());
    walkOps(Module.root(), [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        AllocContext[Op.AllocTensor] = &Op.VecContext;
    });
    execBlockSeq(Module.root(), BaseEnv());
    if (Failure)
      return *Failure;
    return ErrorOrVoid::success();
  }

private:
  ScalarEnv BaseEnv() const {
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    return Env;
  }

  /// Storage key: the values of the processor indices the tensor's alloc
  /// context names, plus the block index (block-scoped reuse is fine since
  /// blocks execute sequentially, but register tensors per warp/thread need
  /// distinct instances).
  StorageKey storageKey(TensorId Tensor, const ScalarEnv &Env) {
    StorageKey Key;
    const InlineVector<EventDim, 4> *Ctx = AllocContext[Tensor];
    if (!Ctx)
      return Key;
    if (Ctx->size() > Key.Values.size()) {
      fail("alloc context deeper than the machine processor hierarchy");
      return Key;
    }
    for (const EventDim &Dim : *Ctx)
      Key.Values[Key.Len++] = Env.ProcIndices.at(Dim.Proc);
    return Key;
  }

  TensorData &storage(TensorId Tensor, const ScalarEnv &Env, int64_t Buf) {
    const IRTensor &T = Module.tensor(Tensor);
    if (T.IsEntryArg) {
      for (size_t I = 0; I < Module.entryArgs().size(); ++I)
        if (Module.entryArgs()[I] == Tensor)
          return *EntryBuffers[I];
      cypressUnreachable("entry arg not found");
    }
    auto &Buffers = Storage[Tensor][storageKey(Tensor, Env)];
    if (Buffers.empty())
      Buffers.assign(static_cast<size_t>(std::max<int64_t>(T.PipelineDepth,
                                                           1)),
                     TensorData(T.Type));
    assert(Buf >= 0 &&
           Buf < static_cast<int64_t>(Buffers.size()) &&
           "pipeline buffer index out of range");
    return Buffers[static_cast<size_t>(Buf)];
  }

  /// Executes a block sequentially under \p Env (loop vars bound).
  void execBlockSeq(const IRBlock &Block, ScalarEnv Env) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Failure)
        return;
      switch (Op->Kind) {
      case OpKind::MakePart:
        break;
      case OpKind::Alloc:
        execAlloc(*Op, Env);
        break;
      case OpKind::For: {
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          execBlockSeq(Op->Body, Env);
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::PFor: {
        // Grid (or host-level) parallel loop: iterations are independent by
        // construction; execute sequentially.
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          if (Op->PForProc == Processor::Block)
            Env.ProcIndices[Processor::Block] = K;
          execBlockSeq(Op->Body, Env);
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::Copy:
      case OpKind::Call:
        forEachProcInstance(*Op, Env, [&](const ScalarEnv &InstEnv) {
          if (Op->Kind == OpKind::Copy)
            execCopy(*Op, InstEnv);
          else
            execCall(*Op, InstEnv);
        });
        break;
      }
    }
  }

  /// Iterates all combinations of the op's flattened processor dims with an
  /// iterative odometer (innermost dim fastest, matching a nested loop).
  template <typename Fn>
  void forEachProcInstance(const Operation &Op, const ScalarEnv &Env,
                           Fn &&Body) {
    const InlineVector<EventDim, 4> &Dims = Op.VecContext;
    ScalarEnv InstEnv = Env;
    if (Dims.empty()) {
      Body(InstEnv);
      return;
    }
    for (const EventDim &Dim : Dims)
      if (Dim.Extent <= 0)
        return;
    Odometer.assign(Dims.size(), 0);
    while (true) {
      for (size_t D = 0; D < Dims.size(); ++D)
        InstEnv.ProcIndices[Dims[D].Proc] = Odometer[D];
      Body(InstEnv);
      size_t D = Dims.size();
      while (D-- > 0) {
        if (++Odometer[D] < Dims[D].Extent)
          break;
        Odometer[D] = 0;
      }
      if (D == ~size_t(0))
        return; // Every dimension wrapped: enumeration complete.
    }
  }

  void execAlloc(const Operation &Op, const ScalarEnv &Env) {
    // (Re)create every instance of the allocation for the current block:
    // enumerate the alloc's own context dims.
    forEachProcInstance(Op, Env, [&](const ScalarEnv &InstEnv) {
      const IRTensor &T = Module.tensor(Op.AllocTensor);
      auto &Buffers =
          Storage[Op.AllocTensor][storageKey(Op.AllocTensor, InstEnv)];
      Buffers.assign(static_cast<size_t>(std::max<int64_t>(T.PipelineDepth,
                                                           1)),
                     TensorData(T.Type));
    });
  }

  void execCopy(const Operation &Op, const ScalarEnv &Env) {
    SubTensor SrcMap = Module.resolveSlice(Op.CopySrc, Env);
    SubTensor DstMap = Module.resolveSlice(Op.CopyDst, Env);
    TensorData &Src = storage(Op.CopySrc.Tensor, Env,
                              Op.CopySrc.BufferIndex.evaluate(Env));
    TensorData &Dst = storage(Op.CopyDst.Tensor, Env,
                              Op.CopyDst.BufferIndex.evaluate(Env));
    int64_t Count = SrcMap.shape().numElements();
    if (Count != DstMap.shape().numElements()) {
      fail(formatString("copy size mismatch at runtime (%lld vs %lld)",
                        static_cast<long long>(Count),
                        static_cast<long long>(
                            DstMap.shape().numElements())));
      return;
    }
    for (int64_t I = 0; I < Count; ++I) {
      std::vector<int64_t> SrcIdx =
          SrcMap.mapToParent(SrcMap.shape().delinearize(I));
      std::vector<int64_t> DstIdx =
          DstMap.mapToParent(DstMap.shape().delinearize(I));
      Dst.set(DstIdx, Src.at(SrcIdx));
    }
  }

  void execCall(const Operation &Op, const ScalarEnv &Env) {
    if (!Leaves.has(Op.Callee)) {
      fail(formatString("no functional implementation registered for leaf "
                        "%s",
                        Op.Callee.c_str()));
      return;
    }
    std::vector<TensorView> Views;
    for (const TensorSlice &Slice : Op.Args) {
      SubTensor Map = Module.resolveSlice(Slice, Env);
      TensorData &Data =
          storage(Slice.Tensor, Env, Slice.BufferIndex.evaluate(Env));
      Views.emplace_back(Data, std::move(Map));
    }
    std::vector<int64_t> Scalars;
    for (const ScalarExpr &Expr : Op.ScalarArgs)
      Scalars.push_back(Expr.evaluate(Env));
    Leaves.lookup(Op.Callee)(Views, Scalars);
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }

  const IRModule &Module;
  const LeafRegistry &Leaves;
  const std::vector<TensorData *> &EntryBuffers;
  /// TensorId -> the alloc op's processor context (null = no alloc seen).
  std::vector<const InlineVector<EventDim, 4> *> AllocContext;
  /// TensorId -> storage-key -> pipeline buffers.
  std::vector<std::unordered_map<StorageKey, std::vector<TensorData>,
                                 StorageKeyHash>>
      Storage;
  std::vector<int64_t> Odometer;
  std::optional<Diagnostic> Failure;
};

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

ErrorOr<SimResult> cypress::simulate(const IRModule &Module,
                                     const SharedAllocation &Alloc,
                                     const SimConfig &Config,
                                     const LeafRegistry &Leaves,
                                     const std::vector<TensorData *> &EntryBuffers,
                                     const SimHints *Hints,
                                     SimWorkerPool *Pool,
                                     const Cancellation *Cancel) {
  SimResult Total;
  bool FoundGrid = false;

  // Entry checkpoint: a request that arrives already cancelled or past
  // its deadline never touches the scratch tables.
  if (Cancel) {
    CancelCheck Entry(*Cancel);
    if (Entry.enabled() && Entry.shouldStopNow())
      return Entry.diagnostic("simulation");
  }

  for (const std::unique_ptr<Operation> &Op : Module.root().Ops) {
    if (Op->Kind != OpKind::PFor || Op->PForProc != Processor::Block)
      continue;
    FoundGrid = true;
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    int64_t Blocks = Op->LoopHi.evaluate(Env) - Op->LoopLo.evaluate(Env);

    BlockTimer Timer(Module, Alloc, Config, *Op, timerScratch(), Hints,
                     Pool, Cancel);
    ErrorOr<SimResult> BlockResult = Timer.run();
    if (!BlockResult)
      return BlockResult.diagnostic();

    int64_t Waves = ceilDiv(Blocks, Config.NumSMs);
    double Cycles =
        BlockResult->BlockCycles * static_cast<double>(Waves) +
        Config.BlockOverhead;
    double Seconds = Cycles / (Config.ClockGHz * 1e9);

    Total.BlockCycles += BlockResult->BlockCycles;
    Total.TotalSeconds += Seconds;
    Total.TotalFlops +=
        BlockResult->TotalFlops * static_cast<double>(Blocks);
    Total.Blocks += Blocks;
    Total.Waves += Waves;
    Total.TmaBusyCycles += BlockResult->TmaBusyCycles;
    Total.TensorCoreBusyCycles += BlockResult->TensorCoreBusyCycles;
    for (std::string &Race : BlockResult->Races)
      Total.Races.push_back(std::move(Race));
  }

  if (!FoundGrid)
    return Diagnostic("module has no block-level parallel loop to simulate");

  // DRAM floor: every kernel argument crosses the pins at least once.
  double Compulsory = 0;
  for (TensorId Id : Module.entryArgs())
    Compulsory += static_cast<double>(Module.tensor(Id).Type.sizeBytes());
  Total.TotalSeconds =
      std::max(Total.TotalSeconds, Compulsory / Config.DramBytesPerSec);

  if (Total.TotalSeconds > 0)
    Total.TFlops = Total.TotalFlops / Total.TotalSeconds / 1e12;

  if (!EntryBuffers.empty()) {
    FunctionalExec Exec(Module, Leaves, EntryBuffers);
    if (ErrorOrVoid Err = Exec.run(); !Err)
      return Err.diagnostic();
    Total.FunctionalRan = true;
  }
  return Total;
}
