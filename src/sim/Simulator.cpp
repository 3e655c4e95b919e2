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
/// The timing model is a cost model over the shared agent schedule
/// (sim/Schedule.h), the expansion the CPU lowering executes with data:
/// BlockTimer issues the ready head that can start earliest, books the TMA
/// and Tensor Core, and sweeps the shared-memory trace for races. Schedule
/// and timer tables are pooled in a thread-local scratch, so repeated
/// `runTiming` calls (the autotuner's evaluation loop) are allocation-free
/// in steady state.
///
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/Schedule.h"
#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

using namespace cypress;

namespace {

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

/// Shared-memory access trace entry for the WAR race detector: the
/// schedule's access (whose op id, warpgroup and iteration hash identify
/// the instance, so it is never raced against itself) and when it ran.
struct SmemAccess : Schedule::SmemPre {
  double Start = 0, End = 0;
};

/// All per-run state of the timing simulator, pooled across runs: every
/// table is cleared but keeps its capacity, so steady-state simulation
/// performs no allocation. One scratch exists per thread (runTiming is
/// const and may be called concurrently on shared kernels).
struct TimerScratch {
  Schedule Sched;
  std::vector<Cost> Costs; ///< Indexed by the schedule's dense op index.
  std::vector<SmemAccess> Accesses;
  // Scheduler / race-detector scratch.
  std::vector<size_t> Cursor;
  std::vector<double> Ready;
  /// Per agent: the head's final precondition time once a check found it
  /// ready (NaN until then), and the completion slot that failed its last
  /// check (Schedule::NoSlot when the failure was not an empty slot, or no
  /// check has failed).
  std::vector<double> HeadWait;
  std::vector<uint64_t> HeadBlockedAt;
  std::vector<uint32_t> RaceWrites, RaceReads;
};

TimerScratch &timerScratch() {
  static thread_local TimerScratch Scratch;
  return Scratch;
}

/// The cost model over an expanded agent schedule (sim/Schedule.h): picks
/// which ready head issues next, books the TMA and Tensor Core, and
/// checks the resulting shared-memory trace for races.
class BlockTimer {
public:
  BlockTimer(const IRModule &Module, const SimConfig &Config,
             TimerScratch &S, const Cancellation *Cancel)
      : Module(Module), Config(Config), S(S),
        SchedCheck(Cancel ? CancelCheck(*Cancel) : CancelCheck()) {}

  /// Times the schedule in S.Sched, which must already be expanded.
  ErrorOr<SimResult> run() {
    buildCosts();
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
  //===--- Cost model -------------------------------------------------------===//

  /// Resolves every Copy/Call op's cost once per run.
  void buildCosts() {
    const std::vector<Schedule::OpRec> &Ops = S.Sched.ops();
    S.Costs.resize(Ops.size());
    for (size_t I = 0; I < Ops.size(); ++I)
      if (Ops[I].Op->Kind == OpKind::Copy || Ops[I].Op->Kind == OpKind::Call)
        S.Costs[I] = costOf(*Ops[I].Op);
  }

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
    const Schedule &Sched = S.Sched;
    const size_t NumAgents = Sched.numAgents();
    const double NaN = std::numeric_limits<double>::quiet_NaN();
    S.Cursor.assign(NumAgents, 0);
    S.Ready.assign(NumAgents, 0.0);
    S.HeadWait.assign(NumAgents, NaN);
    S.HeadBlockedAt.assign(NumAgents, Schedule::NoSlot);
    S.Accesses.clear();

    // Time-ordered scheduling: of all agents whose next instruction has
    // satisfied preconditions, execute the one that can start earliest.
    // (Greedy per-agent draining would let one warpgroup book the shared
    // Tensor Core arbitrarily far ahead of its peers, which the hardware
    // warp scheduler does not do.)
    //
    // Each head is checked incrementally. Completion slots are written
    // once per run and never cleared, and Schedule::ready stops at the
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
        Failure = SchedCheck.diagnostic("simulation event relaxation");
        return;
      }
      size_t BestAgent = ~size_t(0);
      double BestStart = 0.0, BestWait = 0.0;
      bool AnyPending = false;
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        const std::vector<uint32_t> &Stream = Sched.stream(Agent);
        if (S.Cursor[Agent] >= Stream.size())
          continue;
        AnyPending = true;
        double &WaitTime = S.HeadWait[Agent];
        if (std::isnan(WaitTime)) {
          uint64_t &Blocked = S.HeadBlockedAt[Agent];
          if (Blocked != Schedule::NoSlot && !Sched.filled(Blocked))
            continue;
          double Wait;
          if (!Sched.ready(Sched.inst(Stream[S.Cursor[Agent]]),
                           Config.BarrierLatency, Wait, Blocked))
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
          if (S.Cursor[Agent] < Sched.stream(Agent).size()) {
            Failure = Diagnostic(formatString(
                "simulation deadlock: agent %zu blocked at instruction %zu "
                "(missing event producer)",
                Agent, S.Cursor[Agent]));
            return;
          }
      }
      executeInstance(
          Sched.inst(Sched.stream(BestAgent)[S.Cursor[BestAgent]]),
          S.Ready[BestAgent], BestWait);
      ++S.Cursor[BestAgent];
      S.HeadWait[BestAgent] = NaN;
      S.HeadBlockedAt[BestAgent] = Schedule::NoSlot;
    }
    for (size_t Agent = 0; Agent < NumAgents; ++Agent)
      Finish = std::max(Finish, S.Ready[Agent]);
    // Outstanding async completions also bound the block time.
    Finish = std::max(Finish, LastCompletion);
  }

  void executeInstance(const Schedule::InstRec &Inst, double &Ready,
                       double WaitTime) {
    const Operation &Op = *Inst.Op;
    const Cost &C = S.Costs[Inst.OpIdx];

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

    if (Op.Kind == OpKind::Call)
      BlockFlops += Op.Flops;

    S.Sched.complete(Inst, Completion);

    const Schedule::SmemPre *Pre = S.Sched.smem(Inst);
    for (uint32_t I = 0; I < Inst.SmemCount; ++I, ++Pre)
      S.Accesses.push_back({*Pre, Start, Completion});
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

  const IRModule &Module;
  const SimConfig &Config;
  TimerScratch &S;
  CancelCheck SchedCheck; ///< The scheduling loop's (main-thread) poll.

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

  // Block 0 stands for every block: they are homogeneous.
  ScalarEnv Env;
  Env.ProcIndices[Processor::Block] = 0;
  Env.ProcIndices[Processor::Warpgroup] = 0;
  Env.ProcIndices[Processor::Warp] = 0;
  Env.ProcIndices[Processor::Thread] = 0;
  for (const std::unique_ptr<Operation> &Op : Module.root().Ops) {
    if (Op->Kind != OpKind::PFor || Op->PForProc != Processor::Block)
      continue;
    FoundGrid = true;
    int64_t Blocks = Op->LoopHi.evaluate(Env) - Op->LoopLo.evaluate(Env);

    TimerScratch &S = timerScratch();
    if (ErrorOrVoid Expanded =
            S.Sched.expand(Module, *Op, Env, Cancel,
                           "simulation shard expansion", &Alloc, Hints, Pool);
        !Expanded)
      return Expanded.diagnostic();
    ErrorOr<SimResult> BlockResult =
        BlockTimer(Module, Config, S, Cancel).run();
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
