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
/// expression is kept for evaluation per replica or per instance.
struct Schedule::PrecondTmpl {
  EventId Event = InvalidEventId;
  int64_t IterLag = 0;
  const ScalarExpr *WgIndex = nullptr; ///< Null when not indexed.
  bool Broadcast = false;

  PrecondDesc desc(const ScalarEnv &Env) const {
    return {Event, IterLag,
            WgIndex ? static_cast<int32_t>(WgIndex->evaluate(Env)) : -1,
            Broadcast};
  }
};

namespace {

int64_t bufferLo(const Schedule::SmemSite &Site, const ScalarEnv &Env) {
  return Site.Offset + Site.BufferIndex->evaluate(Env) * Site.Bytes;
}

} // namespace

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
/// shard's final base offset. A loop-dependent instance's precondition and
/// smem offsets count from the end of the schedule's tables, as if its
/// shard came first; the merge shifts the later shards'. Pooled inside the
/// schedule so steady-state sharded runs allocate nothing.
struct Schedule::ShardBuf {
  std::vector<std::vector<InstRec>> Streams;
  std::vector<int64_t> Coords;
  std::vector<uint32_t> LoopPaths; ///< Encoded loop-instance ids.
  std::vector<PrecondDesc> Preconds; ///< Loop-dependent instances' only.
  std::vector<int64_t> SmemLo;       ///< Loop-dependent instances' only.
  std::vector<LoopInst> Loops;       ///< Nested loop instances (local ids).
  std::vector<int64_t> TopRemaining; ///< Contributions to top-level loops.
  std::vector<OpAcc> Ops;
  // Expansion cursor state (kept here so its capacity pools too).
  std::vector<int64_t> CoordStack;
  std::vector<uint32_t> LoopPath;
  /// The cursor's coordinates and loop path interned into Coords and
  /// LoopPaths at one offset, shared by every instance expanded under it;
  /// StackDirty marks a cursor change since the last interning.
  uint32_t StackOff = 0;
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
    Coords.clear();
    LoopPaths.clear();
    Preconds.clear();
    SmemLo.clear();
    Loops.clear();
    Streams.resize(NumAgents);
    for (std::vector<InstRec> &Stream : Streams)
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
  Coords.clear();
  LoopPaths.clear();
  Preconds.clear();
  SmemLo.clear();
  Ops.clear();
  PrecondTmpls.clear();
  SmemSites.clear();
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
  Boxes.clear();
  Units.clear();
  // Shards are reset by expandShards (only the ones it uses).
  Events.assign(Module.numEvents(), EventRec());
  if (Hints) {
    // IR statistics from the compile that produced the module (the pass
    // manager's PipelineStats) pre-size the per-run tables.
    Ops.reserve(Hints->NumOps);
    OpDense.reserve(Hints->NumOps);
    KnownEvents.reserve(Hints->NumEvents);
  }
  Wgs = 1;
  NumTopLoops = 0;
  Failure.reset();

  indexOps(Grid.Body);
  buildTemplates(Module, Grid, Base, Alloc);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Streams.resize(NumAgents);
  for (std::vector<InstRec> &Stream : Streams)
    Stream.clear();

  buildUnits(Grid, Base);
  if (!Failure)
    expandShards(Base, Pool, Cancel, CheckpointLabel);
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
  Rec.Result = Op.Result;
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
/// tensor it touches. An op's warpgroup and buffer indices usually depend
/// on its replica alone; fillTables then evaluates them once per replica,
/// and expansion evaluates only those of loop-dependent ops.
void Schedule::buildTemplates(const IRModule &Module, const Operation &Grid,
                              const ScalarEnv &Base,
                              const SharedAllocation *Alloc) {
  // Overwritten in place, like a shard's environment: steady-state runs
  // allocate no map nodes.
  for (const auto &[Proc, Value] : Base.ProcIndices)
    TableEnv.ProcIndices[Proc] = Value;
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
    Rec.PrecondCount =
        static_cast<uint32_t>(PrecondTmpls.size()) - Rec.PrecondTmplOff;

    Rec.SmemSiteOff = static_cast<uint32_t>(SmemSites.size());
    auto Record = [&](const TensorSlice &Slice, bool Write) {
      const IRTensor &T = Module.tensor(Slice.Tensor);
      if (!Alloc || T.Mem != Memory::Shared)
        return; // Without a placement there is nothing to trace.
      const SharedAllocation::Entry *Entry = Alloc->find(Slice.Tensor);
      if (!Entry)
        return;
      SmemSites.push_back(
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
    Rec.SmemCount = static_cast<uint32_t>(SmemSites.size()) - Rec.SmemSiteOff;
    fillTables(Rec);
  }
  FixedPreconds = static_cast<uint32_t>(Preconds.size());
  FixedSmem = static_cast<uint32_t>(SmemLo.size());
}

/// Builds \p Rec's per-(op, warpgroup) tables: the precondition
/// descriptors when no warpgroup index mentions a loop variable, the
/// buffer byte offsets when no buffer index does. Such an index depends
/// only on the block's processor indices and the replica, which is all
/// TableEnv binds (expansion changes nothing else), so one evaluation per
/// replica gives every instance's value.
void Schedule::fillTables(OpRec &Rec) {
  const PrecondTmpl *P = PrecondTmpls.data() + Rec.PrecondTmplOff;
  bool PrecondsFixed =
      std::none_of(P, P + Rec.PrecondCount, [](const PrecondTmpl &T) {
        return T.WgIndex && T.WgIndex->usesAnyLoopVar();
      });
  const SmemSite *M = SmemSites.data() + Rec.SmemSiteOff;
  bool SmemFixed = std::none_of(M, M + Rec.SmemCount, [](const SmemSite &S) {
    return S.BufferIndex->usesAnyLoopVar();
  });
  Rec.SmemPerReplica = std::any_of(M, M + Rec.SmemCount, [](const SmemSite &S) {
    return S.BufferIndex->usesProcIndex();
  });
  Rec.PrecondTable = PrecondsFixed ? static_cast<uint32_t>(Preconds.size())
                                   : NoTable;
  Rec.SmemTable = SmemFixed ? static_cast<uint32_t>(SmemLo.size()) : NoTable;
  if (!PrecondsFixed && !SmemFixed)
    return;
  int64_t &WgIndex = TableEnv.ProcIndices[Processor::Warpgroup];
  for (int64_t Wg = 0; Wg < std::max<int64_t>(Rec.WgExtent, 1); ++Wg) {
    WgIndex = Wg;
    for (uint32_t I = 0; PrecondsFixed && I < Rec.PrecondCount; ++I)
      Preconds.push_back(P[I].desc(TableEnv));
    for (uint32_t I = 0; SmemFixed && I < Rec.SmemCount; ++I)
      SmemLo.push_back(bufferLo(M[I], TableEnv));
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
void Schedule::expandShards(const ScalarEnv &Base, SimWorkerPool *Pool,
                            const Cancellation *Cancel,
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
  uint32_t Replicas =
      T.WgExtent >= 0 ? static_cast<uint32_t>(T.WgExtent) : 1u;
  if (Replicas == 0)
    return;
  B.Ops[OpIdx].Visited = true;
  if (B.StackDirty) {
    // Every instance under one cursor position shares one interned copy
    // of its coordinates and loop path.
    B.StackOff = static_cast<uint32_t>(B.Coords.size());
    B.Coords.insert(B.Coords.end(), B.CoordStack.begin(), B.CoordStack.end());
    B.LoopPaths.insert(B.LoopPaths.end(), B.LoopPath.begin(),
                       B.LoopPath.end());
    B.StackDirty = false;
  }
  // Count every instance against every enclosing loop so the loop's
  // completion event fires when all body instances have finished. The
  // top-level loop a shard shares with its peers is counted privately and
  // summed at merge time.
  for (uint32_t LI : B.LoopPath) {
    if (LI < NumTopLoops)
      B.TopRemaining[LI] += Replicas;
    else
      B.Loops[LI - NumTopLoops].Remaining += Replicas;
  }
  // One instance per replica, on its agent. Its preconditions and smem
  // offsets are a row of the op's tables; only a loop-dependent op
  // evaluates its indices here, under the instance's environment (smem
  // offsets once for all replicas unless a buffer index names one).
  InstRec R;
  R.OpIdx = OpIdx;
  R.PathOff = B.StackOff;
  for (uint32_t Replica = 0; Replica < Replicas; ++Replica) {
    R.Wg = T.WgExtent >= 0 ? static_cast<int32_t>(Replica) : -1;
    B.WgIt->second = Replica;
    if (T.PrecondTable != NoTable) {
      R.PrecondOff = T.PrecondTable + Replica * T.PrecondCount;
    } else {
      R.PrecondOff = FixedPreconds + static_cast<uint32_t>(B.Preconds.size());
      const PrecondTmpl *P = PrecondTmpls.data() + T.PrecondTmplOff;
      for (uint32_t I = 0; I < T.PrecondCount; ++I)
        B.Preconds.push_back(P[I].desc(B.Env));
    }
    if (T.SmemTable != NoTable) {
      R.SmemOff = T.SmemTable + Replica * T.SmemCount;
    } else if (Replica == 0 || T.SmemPerReplica) {
      R.SmemOff = FixedSmem + static_cast<uint32_t>(B.SmemLo.size());
      const SmemSite *M = SmemSites.data() + T.SmemSiteOff;
      for (uint32_t I = 0; I < T.SmemCount; ++I)
        B.SmemLo.push_back(bufferLo(M[I], B.Env));
    }
    B.Streams[T.Dma ? 0 : 1 + Replica].push_back(R);
  }
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

    // Loop-dependent entries follow the tables and the earlier shards'.
    uint32_t PrecondShift = static_cast<uint32_t>(Preconds.size()) -
                            FixedPreconds;
    uint32_t SmemShift = static_cast<uint32_t>(SmemLo.size()) - FixedSmem;
    Preconds.insert(Preconds.end(), B.Preconds.begin(), B.Preconds.end());
    SmemLo.insert(SmemLo.end(), B.SmemLo.begin(), B.SmemLo.end());
    if (SI == 0) {
      // The global streams and paths are still empty, so shard 0's offsets
      // and loop ids are final: adopt its buffers instead of copying them.
      // (The swapped-out buffers keep their capacity in the shard.)
      Coords.swap(B.Coords);
      LoopPaths.swap(B.LoopPaths);
      for (size_t A = 0; A < NumAgents; ++A)
        Streams[A].swap(B.Streams[A]);
      LoopShift = static_cast<uint32_t>(B.Loops.size());
      continue;
    }

    uint32_t PathBase = static_cast<uint32_t>(Coords.size());
    for (size_t A = 0; A < NumAgents; ++A) {
      for (InstRec R : B.Streams[A]) {
        const OpRec &Op = Ops[R.OpIdx];
        R.PathOff += PathBase;
        if (Op.PrecondTable == NoTable)
          R.PrecondOff += PrecondShift;
        if (Op.SmemTable == NoTable)
          R.SmemOff += SmemShift;
        Streams[A].push_back(R);
      }
    }
    Coords.insert(Coords.end(), B.Coords.begin(), B.Coords.end());
    for (uint32_t Entry : B.LoopPaths)
      LoopPaths.push_back(Entry < NumTopLoops ? Entry : Entry + LoopShift);
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
    Rec.BoxOff = static_cast<uint32_t>(Boxes.size());
    Rec.CoordCount = 1;
    if (Dense != ~0u) {
      const OpRec &Producer = Ops[Dense];
      Rec.Depth = Producer.Depth;
      for (uint32_t D = 0; D < Rec.Depth; ++D) {
        const OpRec &Loop = Ops[ChainArena[Producer.ChainOff + D]];
        // The op was reached, so every enclosing loop ran >= 1 iteration.
        uint64_t Extent =
            static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1);
        Boxes.push_back({Loop.MinCoord, Extent});
        if (Rec.CoordCount <= (uint64_t(1) << 32))
          Rec.CoordCount *= Extent; // Past 2^32 the total check fails.
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
