//===- Schedule.cpp - Warp-specialized agent schedule of one block --------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expansion of one grid body into the agent schedule described in
/// Schedule.h: the static pre-walk, the per-op instance templates, the
/// sharded expansion and its in-order merge, and the completion table.
///
//===----------------------------------------------------------------------===//

#include "sim/Schedule.h"

using namespace cypress;

namespace {

bool hasWarpgroupDim(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return true;
  return false;
}

} // namespace

/// One in-grid precondition of an op, resolved once per expansion by
/// buildTemplates. Only the warpgroup index depends on the instance; its
/// expression is kept for expansion to evaluate.
struct Schedule::PrecondTmpl {
  EventId Event = InvalidEventId;
  int64_t IterLag = 0;
  const ScalarExpr *WgIndex = nullptr; ///< Null when not indexed.
  bool Broadcast = false;
};

/// One shared-memory access of an op, resolved once per expansion by
/// buildTemplates: the tensor's allocation, with the buffer index
/// expression kept for expansion to evaluate.
struct Schedule::SmemTmpl {
  TensorId Tensor = InvalidTensorId;
  int64_t Offset = 0;   ///< Allocation offset of buffer 0.
  int64_t BufBytes = 0; ///< Bytes of one pipeline buffer.
  const ScalarExpr *BufferIndex = nullptr;
  bool Write = false;
};

/// One top-level unit of expansion work: a bare Copy/Call directly in the
/// grid body, or one iteration of a top-level sequential loop. The unit
/// list is what the sharded expansion distributes — contiguous ranges of
/// it expand independently into private buffers, and concatenating the
/// shards in index order reproduces the sequential instance order
/// byte-for-byte.
struct Schedule::TopUnit {
  const Operation *Op = nullptr;
  int64_t Iter = 0;       ///< Loop iteration value (loop units only).
  uint32_t TopLoop = ~0u; ///< Global loop-instance id; ~0u for bare ops.
};

/// Per-op facts one shard accumulates privately; the merge folds them into
/// the global dense op table. Everything here is order-independent: min
/// and max commute, and Visited is a disjunction.
struct Schedule::OpAcc {
  int64_t MinCoord = std::numeric_limits<int64_t>::max();
  int64_t MaxCoord = std::numeric_limits<int64_t>::min();
  bool Visited = false;
};

/// Private output buffers of one expansion shard, mirroring the arena
/// layout of the schedule. Loop-path entries are encoded so the merge can
/// renumber without a per-shard map: values below the top-level loop count
/// name a global (pre-created) top-level loop instance, values at or above
/// it name this shard's local loop instances and are shifted by the
/// shard's final base offset. Pooled inside the schedule so steady-state
/// sharded runs allocate nothing.
struct Schedule::ShardBuf {
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
  std::map<Processor, int64_t>::iterator WgIt; ///< Env's warpgroup index.
  std::optional<Diagnostic> Failure;

  void reset(size_t NumAgents, size_t NumOps, size_t NumTopLoops,
             const ScalarEnv &Base) {
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
    // Overwritten in place like the loop bindings: once a binding exists,
    // rebinding it for the next run allocates nothing.
    for (const auto &[Proc, Value] : Base.ProcIndices)
      Env.ProcIndices[Proc] = Value;
    for (const auto &[Var, Value] : Base.LoopVars)
      Env.LoopVars[Var] = Value;
    WgIt = Env.ProcIndices.find(Processor::Warpgroup);
    assert(WgIt != Env.ProcIndices.end() && "base binds no warpgroup index");
    Failure.reset();
  }
};

Schedule::Schedule() = default;
Schedule::~Schedule() = default;

ErrorOrVoid Schedule::expand(const IRModule &Module, const Operation &Grid,
                             const ScalarEnv &Base,
                             const Cancellation *Cancel,
                             const char *CheckpointLabel,
                             const SharedAllocation *Alloc,
                             const SimHints *Hints, SimWorkerPool *Pool) {
  // Clear every table but keep its capacity. The per-agent streams are
  // sized below, once the pre-walk has counted the warpgroups.
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
  // expansion must not pin its completion-time arena to the thread for the
  // process lifetime; release anything beyond a generous ceiling.
  Times.clear();
  if (Times.capacity() > (size_t(1) << 22))
    Times.shrink_to_fit();
  Loops.clear();
  ChainArena.clear();
  Units.clear();
  // Shards are reset by expandShards (only the ones it uses).
  Events.assign(Module.numEvents(), EventRec());
  if (Hints) {
    // IR statistics from the compile that produced the module (the pass
    // manager's PipelineStats) pre-size the per-run tables.
    Ops.reserve(Hints->NumOps);
    OpDense.reserve(Hints->NumOps);
    Insts.reserve(Hints->NumOps);
    KnownEvents.reserve(Hints->NumEvents);
  }
  Wgs = 1;
  NumTopLoops = 0;
  Failure.reset();

  indexOps(Grid.Body);
  buildTemplates(Module, Grid, Alloc);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Streams.resize(NumAgents);
  for (std::vector<uint32_t> &Stream : Streams)
    Stream.clear();

  buildUnits(Grid, Base);
  if (!Failure)
    expandShards(Base, Hints, Pool, Cancel, CheckpointLabel);
  if (!Failure)
    buildEventTables(Pool);
  if (Failure)
    return *Failure;
  return ErrorOrVoid::success();
}

/// The static pre-walk: records every For/Copy/Call op's dense slot, depth
/// and enclosing-loop chain, takes the widest warpgroup extent, and marks
/// the events produced inside the body (references to anything else are
/// host-level and vacuously ready). Static ids are what let expansion
/// shards run without shared mutable state. Mirrors walkOps order — op
/// before body, recursing into For and PFor alike. Ops under a PFor get no
/// slot (reaching a PFor fails the expansion, so they are never used).
void Schedule::indexOps(const IRBlock &Block) {
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    Wgs = std::max(Wgs, warpgroupExtent(*Op));
    if (Op->Result != InvalidEventId) {
      EventRec &Rec = Events[Op->Result];
      Rec.Known = true;
      Rec.WgReplicated = hasWarpgroupDim(*Op);
      KnownEvents.emplace_back(Op->Result, Op->Id);
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
uint32_t Schedule::assignDense(const Operation &Op) {
  if (Op.Id >= OpDense.size())
    OpDense.resize(Op.Id + 1, ~0u);
  uint32_t Slot = static_cast<uint32_t>(Ops.size());
  OpDense[Op.Id] = Slot;
  Ops.emplace_back();
  OpRec &Rec = Ops.back();
  Rec.Op = &Op;
  Rec.Depth = static_cast<uint32_t>(LoopOpStack.size());
  Rec.ChainOff = static_cast<uint32_t>(ChainArena.size());
  ChainArena.insert(ChainArena.end(), LoopOpStack.begin(), LoopOpStack.end());
  return Slot;
}

/// Resolves every Copy/Call op's instance template once per expansion,
/// after the pre-walk has marked the in-grid events: its agent and
/// warpgroup replication, its in-grid preconditions (references to other
/// events are always ready, so they are dropped here rather than skipped
/// by every readiness check), and the allocation of every shared-memory
/// tensor it touches. Expansion then evaluates only the warpgroup and
/// buffer index expressions.
void Schedule::buildTemplates(const IRModule &Module, const Operation &Grid,
                              const SharedAllocation *Alloc) {
  for (OpRec &Rec : Ops) {
    const Operation &Op = *Rec.Op;
    if (Op.Kind != OpKind::Copy && Op.Kind != OpKind::Call)
      continue;
    Rec.WgExtent = hasWarpgroupDim(Op) ? warpgroupExtent(Op) : -1;
    Rec.Dma = Grid.WarpSpecialize && Op.DmaAgent;

    Rec.PrecondTmplOff = static_cast<uint32_t>(PrecondTmpls.size());
    for (const EventRef &Ref : Op.Preconds) {
      if (Ref.Event >= Events.size() || !Events[Ref.Event].Known)
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
      PrecondTmpls.push_back(P);
    }
    Rec.PrecondTmplCount =
        static_cast<uint32_t>(PrecondTmpls.size()) - Rec.PrecondTmplOff;

    Rec.SmemTmplOff = static_cast<uint32_t>(SmemTmpls.size());
    auto Record = [&](const TensorSlice &Slice, bool Write) {
      const IRTensor &T = Module.tensor(Slice.Tensor);
      if (!Alloc || T.Mem != Memory::Shared)
        return; // Without a placement there is nothing to trace.
      const SharedAllocation::Entry *Entry = Alloc->find(Slice.Tensor);
      if (!Entry)
        return;
      SmemTmpls.push_back(
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
        static_cast<uint32_t>(SmemTmpls.size()) - Rec.SmemTmplOff;
  }
}

/// Flattens the grid body's top level into the unit work list: one unit
/// per bare Copy/Call and one per iteration of each top-level For. The
/// top-level loops' instances are created here (ids 0..NumTopLoops-1)
/// because their iterations may be split across shards — each shard
/// counts its body instances privately and the merge sums them.
void Schedule::buildUnits(const Operation &Grid, const ScalarEnv &Base) {
  for (const std::unique_ptr<Operation> &Op : Grid.Body.Ops) {
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break; // No instances; storage and addresses are the driver's.
    case OpKind::For: {
      OpRec &Rec = Ops[OpDense[Op->Id]];
      Rec.Visited = true;
      int64_t Lo = Op->LoopLo.evaluate(Base);
      int64_t Hi = Op->LoopHi.evaluate(Base);
      if (Lo < Hi) {
        Rec.MinCoord = std::min(Rec.MinCoord, Lo);
        Rec.MaxCoord = std::max(Rec.MaxCoord, Hi - 1);
      }
      uint32_t LI = static_cast<uint32_t>(Loops.size());
      Loops.push_back({0, 0.0, Op->Result});
      for (int64_t K = Lo; K < Hi; ++K)
        Units.push_back({Op.get(), K, LI});
      break;
    }
    case OpKind::PFor:
      Failure = Diagnostic(
          "nested parallel loops must be flattened before simulation");
      return;
    case OpKind::Copy:
    case OpKind::Call:
      Units.push_back({Op.get(), 0, ~0u});
      break;
    }
  }
  NumTopLoops = static_cast<uint32_t>(Loops.size());
}

/// Splits the unit list into contiguous shards, expands each into its
/// private buffers (across the worker pool when one is available), and
/// merges in shard order. The shard count never changes results — only
/// which thread produced which contiguous slice — so any parallelism,
/// including none, yields a bit-identical schedule.
void Schedule::expandShards(const ScalarEnv &Base, const SimHints *Hints,
                            SimWorkerPool *Pool, const Cancellation *Cancel,
                            const char *CheckpointLabel) {
  size_t NumUnits = Units.size();
  size_t NumShards = 1;
  if (Pool && NumUnits > 1)
    NumShards = std::min(Pool->parallelism(), NumUnits);
  if (Shards.size() < NumShards)
    Shards.resize(NumShards);
  for (size_t I = 0; I < NumShards; ++I) {
    ShardBuf &B = Shards[I];
    B.reset(NumAgents, Ops.size(), NumTopLoops, Base);
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
    expandUnitRange(Shards[Shard], NumUnits * Shard / NumShards,
                    NumUnits * (Shard + 1) / NumShards, Cancel,
                    CheckpointLabel);
  };
  if (NumShards > 1)
    Pool->parallelFor(NumShards, Work);
  else
    Work(0);
  mergeShards(NumShards);
}

/// Expands units [Begin, End) into \p B. Runs on a pool worker: reads
/// only immutable state (the IR, the pre-walked dense tables and event
/// flags, the templates) and writes only \p B.
void Schedule::expandUnitRange(ShardBuf &B, size_t Begin, size_t End,
                               const Cancellation *Cancel,
                               const char *CheckpointLabel) {
  ScalarEnv &Env = B.Env;
  // Each shard polls its own checkpoint (the stride counter is per-thread
  // state); shards that notice the stop write their failure and the
  // in-order merge surfaces the first one, so the exit is as deterministic
  // as the expansion itself.
  CancelCheck Check = Cancel ? CancelCheck(*Cancel) : CancelCheck();
  for (size_t U = Begin; U < End && !B.Failure; ++U) {
    if (Check.enabled() && Check.shouldStop()) {
      B.Failure = Check.diagnostic(CheckpointLabel);
      return;
    }
    const TopUnit &Unit = Units[U];
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
      expandShardBlock(B, Unit.Op->Body);
    } else {
      expandShardOp(B, *Unit.Op);
    }
  }
}

void Schedule::expandShardBlock(ShardBuf &B, const IRBlock &Block) {
  ScalarEnv &Env = B.Env;
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    if (B.Failure)
      return;
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break; // No instances; storage and addresses are the driver's.
    case OpKind::For: {
      OpAcc &Acc = B.Ops[OpDense[Op->Id]];
      Acc.Visited = true;
      B.WgIt->second = 0;
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
        expandShardBlock(B, Op->Body);
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
      expandShardOp(B, *Op);
      break;
    }
  }
}

void Schedule::expandShardOp(ShardBuf &B, const Operation &Op) {
  uint32_t OpIdx = OpDense[Op.Id];
  const OpRec &T = Ops[OpIdx];
  if (B.StackDirty) {
    // Every instance under one cursor position shares one interned copy
    // of its coordinates and loop path.
    B.StackCoordOff = static_cast<uint32_t>(B.Coords.size());
    B.Coords.insert(B.Coords.end(), B.CoordStack.begin(), B.CoordStack.end());
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
      pushInstance(B, T, OpIdx, Wg, T.Dma ? 0 : 1 + static_cast<size_t>(Wg));
  } else {
    pushInstance(B, T, OpIdx, -1, T.Dma ? 0 : 1);
  }
}

/// Materializes one executable instance of template \p T into \p B:
/// evaluates its warpgroup and buffer indices under the instance's
/// environment, counts it against every enclosing loop instance, and
/// appends it to its agent's stream.
void Schedule::pushInstance(ShardBuf &B, const OpRec &T, uint32_t OpIdx,
                            int64_t Wg, size_t Agent) {
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
  // top-level loop a shard shares with its peers is counted privately and
  // summed at merge time.
  for (uint32_t LI : B.LoopPath) {
    if (LI < NumTopLoops)
      ++B.TopRemaining[LI];
    else
      ++B.Loops[LI - NumTopLoops].Remaining;
  }

  B.WgIt->second = std::max<int64_t>(Wg, 0);
  const ScalarEnv &Env = B.Env;

  R.PrecondOff = static_cast<uint32_t>(B.Preconds.size());
  R.PrecondCount = T.PrecondTmplCount;
  const PrecondTmpl *P = PrecondTmpls.data() + T.PrecondTmplOff;
  for (uint32_t I = 0; I < T.PrecondTmplCount; ++I, ++P)
    B.Preconds.push_back(
        {P->Event, P->IterLag,
         P->WgIndex ? static_cast<int32_t>(P->WgIndex->evaluate(Env)) : -1,
         P->Broadcast});

  R.SmemOff = static_cast<uint32_t>(B.SmemPres.size());
  R.SmemCount = T.SmemTmplCount;
  const SmemTmpl *M = SmemTmpls.data() + T.SmemTmplOff;
  for (uint32_t I = 0; I < T.SmemTmplCount; ++I, ++M) {
    int64_t Lo = M->Offset + M->BufferIndex->evaluate(Env) * M->BufBytes;
    B.SmemPres.push_back({M->Tensor, T.Op->Id, Lo, Lo + M->BufBytes,
                          B.StackHash, static_cast<int32_t>(Wg), M->Write});
  }

  B.Insts.push_back(R);
  B.Streams[Agent].push_back(static_cast<uint32_t>(B.Insts.size() - 1));
}

/// Concatenates the shard buffers into the global arenas in shard order,
/// fixing up offsets and renumbering shard-local loop instances past the
/// top-level ones. Because shards cover contiguous unit ranges in order,
/// the merged instance order is exactly the sequential expansion order.
void Schedule::mergeShards(size_t NumShards) {
  for (size_t I = 0; I < NumShards && !Failure; ++I)
    if (Shards[I].Failure)
      Failure = Shards[I].Failure;
  if (Failure)
    return;
  uint32_t LoopShift = 0; // Sum of earlier shards' local loop counts.
  for (size_t SI = 0; SI < NumShards; ++SI) {
    ShardBuf &B = Shards[SI];
    for (size_t O = 0, E = B.Ops.size(); O != E; ++O) {
      const OpAcc &Acc = B.Ops[O];
      if (!Acc.Visited)
        continue; // Shards only write facts about ops they reached.
      OpRec &R = Ops[O];
      R.Visited = true;
      R.MinCoord = std::min(R.MinCoord, Acc.MinCoord);
      R.MaxCoord = std::max(R.MaxCoord, Acc.MaxCoord);
    }
    for (uint32_t T = 0; T < NumTopLoops; ++T)
      Loops[T].Remaining += B.TopRemaining[T];
    Loops.insert(Loops.end(), B.Loops.begin(), B.Loops.end());

    if (SI == 0) {
      // The global arenas are still empty, so shard 0's offsets and loop
      // ids are final: adopt its buffers instead of copying them. (The
      // swapped-out buffers keep their capacity in the shard.)
      Insts.swap(B.Insts);
      Coords.swap(B.Coords);
      LoopPaths.swap(B.LoopPaths);
      Preconds.swap(B.Preconds);
      SmemPres.swap(B.SmemPres);
      for (size_t A = 0; A < NumAgents; ++A)
        Streams[A].swap(B.Streams[A]);
      LoopShift = static_cast<uint32_t>(B.Loops.size());
      continue;
    }

    uint32_t InstBase = static_cast<uint32_t>(Insts.size());
    uint32_t CoordBase = static_cast<uint32_t>(Coords.size());
    uint32_t LoopPathBase = static_cast<uint32_t>(LoopPaths.size());
    uint32_t PrecondBase = static_cast<uint32_t>(Preconds.size());
    uint32_t SmemBase = static_cast<uint32_t>(SmemPres.size());
    for (const InstRec &Inst : B.Insts) {
      InstRec R = Inst;
      R.CoordOff += CoordBase;
      R.LoopOff += LoopPathBase;
      R.PrecondOff += PrecondBase;
      R.SmemOff += SmemBase;
      Insts.push_back(R);
    }
    Coords.insert(Coords.end(), B.Coords.begin(), B.Coords.end());
    Preconds.insert(Preconds.end(), B.Preconds.begin(), B.Preconds.end());
    SmemPres.insert(SmemPres.end(), B.SmemPres.begin(), B.SmemPres.end());
    for (uint32_t Entry : B.LoopPaths)
      LoopPaths.push_back(Entry < NumTopLoops ? Entry : Entry + LoopShift);
    for (size_t A = 0; A < NumAgents; ++A)
      for (uint32_t Idx : B.Streams[A])
        Streams[A].push_back(Idx + InstBase);
    LoopShift += static_cast<uint32_t>(B.Loops.size());
  }
}

/// Sizes the flat completion-time arena: one slab per in-grid event,
/// (Wgs + 1) warpgroup slots when replicated, times the coordinate box of
/// the producer's own enclosing loops (ranges observed during expansion).
/// Sizing each slab from the producer's chain — not a per-depth union —
/// means the arena holds exactly the keys producers can register.
void Schedule::buildEventTables(SimWorkerPool *Pool) {
  uint64_t Total = 0;
  for (auto [Event, ProducerId] : KnownEvents) {
    EventRec &Rec = Events[Event];
    uint32_t Dense = ProducerId < OpDense.size() ? OpDense[ProducerId] : ~0u;
    // A statically indexed producer that was never reached (zero-trip
    // enclosing loop) sizes like an unknown one: it registers no keys.
    if (Dense != ~0u && !Ops[Dense].Visited)
      Dense = ~0u;
    Rec.Depth = 0;
    Rec.ChainOff = 0;
    Rec.CoordCount = 1;
    if (Dense != ~0u) {
      const OpRec &Producer = Ops[Dense];
      Rec.Depth = Producer.Depth;
      Rec.ChainOff = Producer.ChainOff;
      for (uint32_t D = 0; D < Rec.Depth; ++D) {
        const OpRec &Loop = Ops[ChainArena[Rec.ChainOff + D]];
        // The op was reached, so every enclosing loop ran >= 1 iteration.
        Rec.CoordCount *=
            static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1);
        if (Rec.CoordCount > (uint64_t(1) << 32))
          break;
      }
    }
    Rec.WgSlots = Rec.WgReplicated ? static_cast<uint32_t>(NumAgents) : 1;
    Rec.TimesOff = Total;
    Total += static_cast<uint64_t>(Rec.WgSlots) * Rec.CoordCount;
  }
  // A nest this size would also have been hopeless for a sparse map (one
  // key per executed iteration); fail with a diagnostic instead of
  // allocating gigabytes per thread.
  if (Total > (uint64_t(1) << 27)) {
    Failure = Diagnostic(
        "simulation iteration space too large for dense event tables");
    return;
  }
  // The NaN fill of the completion-time arena is the one O(iteration
  // space) initialization; chunk it across the pool when the arena is big
  // enough for the fan-out to pay for itself. Disjoint ranges, so any
  // chunk order produces the same bytes.
  Times.resize(Total);
  double *Data = Times.data();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  size_t Chunks = Pool ? Pool->parallelism() : 1;
  if (Chunks > 1 && Total > (uint64_t(1) << 16)) {
    Pool->parallelFor(Chunks, [&](size_t C) {
      std::fill(Data + Total * C / Chunks, Data + Total * (C + 1) / Chunks,
                NaN);
    });
  } else {
    std::fill(Data, Data + Total, NaN);
  }
}
