//===- CpuLowering.cpp - Scalar CPU lowering of the emitted kernel --------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential backstop for the CUDA emitter (see CpuLowering.h). It
/// mirrors the *structure* the emitter prints — per-agent instruction
/// streams advanced in order, event waits on completed (event, warpgroup,
/// iteration) keys — rather than the functional executor's program-order
/// walk, so a scheduling bug in warp specialization or pipelining shows up
/// as a deadlock or a wrong answer instead of being masked by shared code.
///
/// It drives the shared `Schedule` (src/sim/Schedule.h) per block; a keying
/// bug there makes its output diverge from `runFunctional`, which shares
/// none of it. Data effects reuse only the module-level slice resolution:
/// storage and the copy/call element loops are written independently of
/// FunctionalExec so the two executors do not share bugs.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"

#include "sim/Schedule.h"
#include "sim/TensorView.h"
#include "support/Format.h"

#include <algorithm>
#include <map>
#include <optional>

using namespace cypress;

namespace {

/// Storage key of one tensor instance: the processor indices named by the
/// tensor's alloc context (at most one per machine level).
using StorageKey = std::vector<int64_t>;

class CpuLowered {
public:
  CpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
             const std::vector<TensorData *> &EntryBuffers,
             const Cancellation *Cancel)
      : Module(Module), Leaves(Leaves), EntryBuffers(EntryBuffers),
        Cancel(Cancel), Check(Cancel ? CancelCheck(*Cancel) : CancelCheck()) {}

  ErrorOr<LoweredStats> run() {
    AllocContext.assign(Module.tensors().size(), nullptr);
    Storage.resize(Module.tensors().size());
    walkOps(Module.root(), [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        AllocContext[Op.AllocTensor] = &Op.VecContext;
    });
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    execHostBlock(Module.root(), Env);
    if (Failure)
      return *Failure;
    return Stats;
  }

private:
  //===--- Host-level interpretation --------------------------------------===//

  /// Host-level ops run in program order (they model the launch sequence);
  /// each block-level pfor iteration dispatches to the agent machine.
  void execHostBlock(const IRBlock &Block, ScalarEnv Env) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Failure)
        return;
      switch (Op->Kind) {
      case OpKind::MakePart:
        break;
      case OpKind::Alloc:
        execAlloc(*Op, Env);
        break;
      case OpKind::For:
      case OpKind::PFor: {
        bool Grid =
            Op->Kind == OpKind::PFor && Op->PForProc == Processor::Block;
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          if (Grid) {
            Env.ProcIndices[Processor::Block] = K;
            runGridBlock(*Op, Env);
            ++Stats.Blocks;
          } else {
            execHostBlock(Op->Body, Env);
          }
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::Copy:
      case OpKind::Call:
        forEachProcInstance(Op->VecContext, Env,
                            [&](const ScalarEnv &E) { execOp(*Op, E); });
        break;
      }
    }
  }

  //===--- Agent machine for one block ------------------------------------===//

  void runGridBlock(const Operation &Grid, const ScalarEnv &BlockEnv) {
    // Allocation prologue: the emitted kernel declares every tile and
    // register fragment up front (smem plan + prologue decls), so storage
    // must exist — zeroed — before any agent issues its first instruction.
    // Running Allocs as scheduled instructions instead could let the DMA
    // agent fill a pipelined tile before the owning agent's Alloc wiped it
    // (the first PIPE iterations have vacuous lag preconditions).
    walkOps(Grid.Body, [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        execAlloc(Op, BlockEnv);
    });

    if (ErrorOrVoid Expanded =
            Sched.expand(Module, Grid, BlockEnv, Cancel,
                         "lowered-execution unroll");
        !Expanded) {
      fail(Expanded.diagnostic());
      return;
    }
    Stats.Agents = std::max<int64_t>(
        Stats.Agents, static_cast<int64_t>(Sched.numAgents()));
    BoundEnv = BlockEnv;
    schedule();
  }

  /// Round-robin over agents: each runs until its next instruction blocks
  /// on an unmet event. A full round with no progress is a deadlock — the
  /// compiled schedule could not execute on hardware either. The cancel
  /// checkpoint sits after the deadlock check: a genuinely stuck schedule
  /// always reports the deadlock diagnostic, never a deadline.
  void schedule() {
    const size_t NumAgents = Sched.numAgents();
    Cursor.assign(NumAgents, 0);
    while (true) {
      bool Progress = false;
      bool Pending = false;
      for (size_t Agent = 0; Agent < NumAgents && !Failure; ++Agent) {
        const std::vector<uint32_t> &Stream = Sched.stream(Agent);
        while (Cursor[Agent] < Stream.size()) {
          const Schedule::InstRec &Inst = Sched.inst(Stream[Cursor[Agent]]);
          double Wait;
          uint64_t BlockedAt;
          if (!Sched.ready(Inst, /*BarrierLatency=*/0.0, Wait, BlockedAt)) {
            ++Stats.Stalls;
            break;
          }
          executeInstance(Inst);
          ++Cursor[Agent];
          Progress = true;
        }
        Pending = Pending || Cursor[Agent] < Stream.size();
      }
      if (Failure || !Pending)
        return;
      if (Progress) {
        if (Check.enabled() && Check.shouldStop()) {
          fail(Check.diagnostic("lowered-execution agent schedule"));
          return;
        }
        continue;
      }
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        const std::vector<uint32_t> &Stream = Sched.stream(Agent);
        if (Cursor[Agent] >= Stream.size())
          continue;
        const Operation &Op = *Sched.inst(Stream[Cursor[Agent]]).Op;
        fail(formatString(
            "lowered-execution deadlock: agent %zu blocked at %s "
            "(event producer missing or never scheduled)",
            Agent, Op.Kind == OpKind::Copy ? "copy" : Op.Callee.c_str()));
        return;
      }
    }
  }

  /// Runs \p Inst's data effects under the environment it was expanded
  /// under, then completes it in the schedule (the lowering keeps no
  /// clock, so every completion is at time 0).
  void executeInstance(const Schedule::InstRec &Inst) {
    const Operation &Op = *Inst.Op;
    ++Stats.Instances;

    // Enumerate the sub-warpgroup processor dims (warps/threads); the
    // warpgroup dim, when present, is pinned to this instance's replica.
    Sched.bindEnv(Inst, BoundEnv);
    forEachProcInstance(Op.VecContext, BoundEnv,
                        [&](const ScalarEnv &E) { execOp(Op, E); },
                        /*PinnedWg=*/Inst.Wg);
    if (!Failure)
      Sched.complete(Inst, 0.0);
  }

  //===--- Data effects ----------------------------------------------------===//

  /// Odometer over \p Dims (innermost fastest). When \p PinnedWg >= 0 the
  /// warpgroup dimension is held at that replica instead of enumerated.
  template <typename Fn>
  void forEachProcInstance(const InlineVector<EventDim, 4> &Dims,
                           const ScalarEnv &Env, Fn &&Body,
                           int64_t PinnedWg = -1) {
    ScalarEnv InstEnv = Env;
    std::vector<int64_t> Counter(Dims.size(), 0);
    for (const EventDim &Dim : Dims)
      if (Dim.Extent <= 0)
        return;
    while (true) {
      for (size_t D = 0; D < Dims.size(); ++D)
        InstEnv.ProcIndices[Dims[D].Proc] =
            (PinnedWg >= 0 && Dims[D].Proc == Processor::Warpgroup)
                ? PinnedWg
                : Counter[D];
      Body(InstEnv);
      size_t D = Dims.size();
      while (D-- > 0) {
        if (PinnedWg >= 0 && Dims[D].Proc == Processor::Warpgroup)
          continue; // Pinned: never advances.
        if (++Counter[D] < Dims[D].Extent)
          break;
        Counter[D] = 0;
      }
      if (D == ~size_t(0))
        return;
    }
  }

  StorageKey storageKey(TensorId Tensor, const ScalarEnv &Env) {
    StorageKey Key;
    const InlineVector<EventDim, 4> *Ctx = AllocContext[Tensor];
    if (!Ctx)
      return Key;
    for (const EventDim &Dim : *Ctx)
      Key.push_back(Env.ProcIndices.at(Dim.Proc));
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
    std::vector<TensorData> &Buffers =
        Storage[Tensor][storageKey(Tensor, Env)];
    if (Buffers.empty())
      Buffers.assign(
          static_cast<size_t>(std::max<int64_t>(T.PipelineDepth, 1)),
          TensorData(T.Type));
    assert(Buf >= 0 && Buf < static_cast<int64_t>(Buffers.size()) &&
           "pipeline buffer index out of range");
    return Buffers[static_cast<size_t>(Buf)];
  }

  void execAlloc(const Operation &Op, const ScalarEnv &Env) {
    const IRTensor &T = Module.tensor(Op.AllocTensor);
    forEachProcInstance(Op.VecContext, Env, [&](const ScalarEnv &E) {
      Storage[Op.AllocTensor][storageKey(Op.AllocTensor, E)].assign(
          static_cast<size_t>(std::max<int64_t>(T.PipelineDepth, 1)),
          TensorData(T.Type));
    });
  }

  void execOp(const Operation &Op, const ScalarEnv &Env) {
    if (Op.Kind == OpKind::Copy)
      execCopy(Op, Env);
    else
      execCall(Op, Env);
  }

  void execCopy(const Operation &Op, const ScalarEnv &Env) {
    if (Failure)
      return;
    SubTensor SrcMap = Module.resolveSlice(Op.CopySrc, Env);
    SubTensor DstMap = Module.resolveSlice(Op.CopyDst, Env);
    TensorData &Src = storage(Op.CopySrc.Tensor, Env,
                              Op.CopySrc.BufferIndex.evaluate(Env));
    TensorData &Dst = storage(Op.CopyDst.Tensor, Env,
                              Op.CopyDst.BufferIndex.evaluate(Env));
    int64_t Count = SrcMap.shape().numElements();
    if (Count != DstMap.shape().numElements()) {
      fail(formatString("lowered copy size mismatch (%lld vs %lld)",
                        static_cast<long long>(Count),
                        static_cast<long long>(
                            DstMap.shape().numElements())));
      return;
    }
    for (int64_t I = 0; I < Count; ++I)
      Dst.set(DstMap.mapToParent(DstMap.shape().delinearize(I)),
              Src.at(SrcMap.mapToParent(SrcMap.shape().delinearize(I))));
  }

  void execCall(const Operation &Op, const ScalarEnv &Env) {
    if (Failure)
      return;
    if (!Leaves.has(Op.Callee)) {
      fail(formatString("no scalar reference implementation for leaf %s",
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

  void fail(Diagnostic Diag) {
    if (!Failure)
      Failure = std::move(Diag);
  }

  const IRModule &Module;
  const LeafRegistry &Leaves;
  const std::vector<TensorData *> &EntryBuffers;
  const Cancellation *Cancel;
  CancelCheck Check; ///< Inert (enabled() == false) without a Cancellation.
  LoweredStats Stats;
  std::optional<Diagnostic> Failure;

  // Storage (lives across blocks; blocks run sequentially).
  std::vector<const InlineVector<EventDim, 4> *> AllocContext;
  std::vector<std::map<StorageKey, std::vector<TensorData>>> Storage;

  // Per-grid agent machine state.
  Schedule Sched;
  std::vector<size_t> Cursor;
  /// The block environment with the current instance's loop variables and
  /// warpgroup bound (see Schedule::bindEnv). Bindings of loops the
  /// instance is not under are stale; the verifier guarantees expressions
  /// only read in-scope variables.
  ScalarEnv BoundEnv;
};

} // namespace

ErrorOr<LoweredStats>
cypress::runCpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
                       const std::vector<TensorData *> &EntryBuffers,
                       const Cancellation *Cancel) {
  if (EntryBuffers.size() != Module.entryArgs().size())
    return Diagnostic(formatString(
        "lowered execution needs one buffer per entry argument "
        "(%zu given, %zu expected)",
        EntryBuffers.size(), Module.entryArgs().size()));
  return CpuLowered(Module, Leaves, EntryBuffers, Cancel).run();
}
