//===- SimTest.cpp - Simulator substrate tests ---------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the simulated H100 substrate: the builtin leaf functions, the
/// timing model's qualitative properties (async overlap, pipeline scaling,
/// bandwidth/throughput limits, wave quantization), the race detector, and
/// the deadlock reports of both executors that drive the agent schedule.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"
#include "kernels/Kernels.h"
#include "runtime/Runtime.h"
#include "runtime/Session.h"
#include "sim/LeafRegistry.h"
#include "sim/Simulator.h"
#include "support/Cancel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

using namespace cypress;

//===----------------------------------------------------------------------===//
// Leaf functions
//===----------------------------------------------------------------------===//

namespace {

TensorData makeTensor(Shape S, ElementType E = ElementType::F32) {
  return TensorData(TensorType{std::move(S), E});
}

} // namespace

TEST(Leaves, WgmmaAccumulates) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData C = makeTensor(Shape({2, 2}));
  TensorData A = makeTensor(Shape({2, 3}), ElementType::F16);
  TensorData B = makeTensor(Shape({3, 2}), ElementType::F16);
  // A = [[1,2,3],[4,5,6]], B = [[1,0],[0,1],[1,1]].
  float AValues[] = {1, 2, 3, 4, 5, 6};
  float BValues[] = {1, 0, 0, 1, 1, 1};
  for (int I = 0; I < 6; ++I) {
    A.set(I, AValues[I]);
    B.set(I, BValues[I]);
  }
  C.set({0, 0}, 10.0f); // Pre-existing accumulator value.
  std::vector<TensorView> Args = {TensorView::whole(C),
                                  TensorView::whole(A),
                                  TensorView::whole(B)};
  R.lookup("wgmma_fp16")(Args, {});
  EXPECT_FLOAT_EQ(C.at({0, 0}), 10 + 1 + 3);
  EXPECT_FLOAT_EQ(C.at({0, 1}), 2 + 3);
  EXPECT_FLOAT_EQ(C.at({1, 0}), 4 + 6);
  EXPECT_FLOAT_EQ(C.at({1, 1}), 5 + 6);
}

TEST(Leaves, WgmmaBtSetOverwrites) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData S = makeTensor(Shape({2, 2}));
  TensorData Q = makeTensor(Shape({2, 2}), ElementType::F16);
  TensorData K = makeTensor(Shape({2, 2}), ElementType::F16);
  Q.set({0, 0}, 1.0f);
  Q.set({0, 1}, 2.0f);
  K.set({1, 0}, 3.0f);
  K.set({1, 1}, 4.0f);
  S.set({0, 1}, 99.0f); // Must be overwritten, not accumulated.
  std::vector<TensorView> Args = {TensorView::whole(S),
                                  TensorView::whole(Q),
                                  TensorView::whole(K)};
  R.lookup("wgmma_fp16_bt_set")(Args, {});
  // S[0][1] = Q[0,:] . K[1,:] = 1*3 + 2*4.
  EXPECT_FLOAT_EQ(S.at({0, 1}), 11.0f);
  EXPECT_FLOAT_EQ(S.at({0, 0}), 0.0f);
}

TEST(Leaves, ClearAndStore) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData T = makeTensor(Shape({4, 4}));
  T.fill(5.0f);
  std::vector<TensorView> ClearArgs = {TensorView::whole(T)};
  R.lookup("clear")(ClearArgs, {});
  for (int64_t I = 0; I < 16; ++I)
    EXPECT_EQ(T.at(I), 0.0f);

  TensorData Src = makeTensor(Shape({4, 4}));
  Src.fill(2.5f);
  TensorData Dst = makeTensor(Shape({4, 4}), ElementType::F16);
  std::vector<TensorView> StoreArgs = {TensorView::whole(Dst),
                                       TensorView::whole(Src)};
  R.lookup("store")(StoreArgs, {});
  EXPECT_EQ(Dst.at({3, 3}), 2.5f);
}

TEST(Leaves, RowSumTile) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData Y = makeTensor(Shape({1, 3}));
  TensorData A = makeTensor(Shape({3, 4}), ElementType::F16);
  for (int64_t I = 0; I < 12; ++I)
    A.set(I, 1.0f);
  Y.set({0, 1}, 7.0f); // Accumulates.
  std::vector<TensorView> Args = {TensorView::whole(Y),
                                  TensorView::whole(A)};
  R.lookup("row_sum_tile")(Args, {});
  EXPECT_FLOAT_EQ(Y.at({0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(Y.at({0, 1}), 11.0f);
}

TEST(Leaves, OnlineSoftmaxMatchesBatchSoftmax) {
  // Running the online update over column blocks must equal one-shot
  // softmax: P sums to 1 after finalize, weighted V reproduced.
  LeafRegistry R = LeafRegistry::builtins();
  const int64_t M = 4, N = 6, D = 2;
  TensorData SFull = makeTensor(Shape({M, N}));
  SplitMix64 Rng(3);
  for (int64_t I = 0; I < M * N; ++I)
    SFull.set(I, static_cast<float>(Rng.nextIn(-2, 2)));

  TensorData Mx = makeTensor(Shape({M}));
  TensorData L = makeTensor(Shape({M}));
  TensorData O = makeTensor(Shape({M, D}));
  std::vector<TensorView> InitArgs = {TensorView::whole(Mx),
                                      TensorView::whole(L)};
  R.lookup("softmax_init")(InitArgs, {});

  // Two blocks of 3 columns; V = ones so O accumulates sum of P per row.
  for (int64_t Block = 0; Block < 2; ++Block) {
    TensorData SBlock = makeTensor(Shape({M, 3}));
    for (int64_t I = 0; I < M; ++I)
      for (int64_t J = 0; J < 3; ++J)
        SBlock.set({I, J}, SFull.at({I, Block * 3 + J}));
    std::vector<TensorView> StepArgs = {
        TensorView::whole(SBlock), TensorView::whole(Mx),
        TensorView::whole(L), TensorView::whole(O)};
    R.lookup("softmax_step")(StepArgs, {65536}); // Scale = 1.0.
    // O += P . V with V = ones(3, D).
    TensorData V = makeTensor(Shape({3, D}), ElementType::F16);
    V.fill(1.0f);
    std::vector<TensorView> PvArgs = {TensorView::whole(O),
                                      TensorView::whole(SBlock),
                                      TensorView::whole(V)};
    R.lookup("wgmma_fp16")(PvArgs, {});
  }
  std::vector<TensorView> FinArgs = {TensorView::whole(O),
                                     TensorView::whole(L)};
  R.lookup("softmax_finalize")(FinArgs, {});
  // P rows sum to 1, so O = 1 everywhere.
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < D; ++J)
      EXPECT_NEAR(O.at({I, J}), 1.0f, 1e-5f);
}

TEST(Leaves, DualWgmma) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData C = makeTensor(Shape({1, 1}));
  TensorData A = makeTensor(Shape({1, 2}), ElementType::F16);
  TensorData B1 = makeTensor(Shape({2, 1}), ElementType::F16);
  TensorData B2 = makeTensor(Shape({2, 1}), ElementType::F16);
  A.set({0, 0}, 2.0f);
  A.set({0, 1}, 3.0f);
  B1.set({0, 0}, 1.0f);
  B2.set({1, 0}, 5.0f);
  std::vector<TensorView> Args = {
      TensorView::whole(C), TensorView::whole(A), TensorView::whole(B1),
      TensorView::whole(B2)};
  R.lookup("dual_wgmma")(Args, {});
  // 2*(1+0) + 3*(0+5) = 17.
  EXPECT_FLOAT_EQ(C.at({0, 0}), 17.0f);
}

TEST(Leaves, ViewsRespectCoordinateMaps) {
  // A leaf driven through a rect view writes the mapped region only.
  LeafRegistry R = LeafRegistry::builtins();
  TensorData Big = makeTensor(Shape({8, 8}));
  Big.fill(1.0f);
  TensorView Window(Big, SubTensor::rect(Shape({2, 2}), {4, 4}));
  std::vector<TensorView> Args = {Window};
  R.lookup("clear")(Args, {});
  EXPECT_EQ(Big.at({4, 4}), 0.0f);
  EXPECT_EQ(Big.at({5, 5}), 0.0f);
  EXPECT_EQ(Big.at({3, 3}), 1.0f);
  EXPECT_EQ(Big.at({6, 6}), 1.0f);
}

//===----------------------------------------------------------------------===//
// Timing model properties
//===----------------------------------------------------------------------===//

namespace {

struct CompiledGemm {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::shared_ptr<const CompiledKernel> Kernel;
};

CompiledGemm compileGemm(const GemmConfig &Config) {
  CompiledGemm Result;
  Result.Registry = std::make_unique<TaskRegistry>();
  registerGemmTasks(*Result.Registry);
  Result.Mapping = std::make_unique<MappingSpec>(gemmMapping(Config));
  CompileInput Input{Result.Registry.get(), Result.Mapping.get(),
                     &MachineModel::h100(), gemmArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "gemm");
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (Kernel)
    Result.Kernel = std::move(*Kernel);
  return Result;
}

} // namespace

TEST(Timing, PipeliningHidesLatencyProgressively) {
  double Last = 0.0;
  for (int64_t Pipe : {1, 2, 3}) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = 4096;
    Config.Pipe = Pipe;
    CompiledGemm G = compileGemm(Config);
    ASSERT_NE(G.Kernel, nullptr);
    double TFlops = G.Kernel->runTiming()->TFlops;
    EXPECT_GT(TFlops, Last) << "pipeline depth " << Pipe;
    Last = TFlops;
  }
}

TEST(Timing, WarpSpecializationWins) {
  GemmConfig On, Off;
  On.M = On.N = On.K = 4096;
  Off = On;
  Off.WarpSpecialize = false;
  CompiledGemm GOn = compileGemm(On);
  CompiledGemm GOff = compileGemm(Off);
  ASSERT_NE(GOn.Kernel, nullptr);
  ASSERT_NE(GOff.Kernel, nullptr);
  double TOn = GOn.Kernel->runTiming()->TFlops;
  double TOff = GOff.Kernel->runTiming()->TFlops;
  EXPECT_GT(TOn, 1.2 * TOff);
}

TEST(Timing, ThroughputBelowMachinePeak) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 8192;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  SimConfig Sim;
  ErrorOr<SimResult> Result = G.Kernel->runTiming(Sim);
  ASSERT_TRUE(Result);
  double Peak = Sim.TensorCoreFlopsPerCycle * Sim.NumSMs * Sim.ClockGHz *
                1e9 / 1e12;
  EXPECT_LT(Result->TFlops, Peak);
  EXPECT_GT(Result->TFlops, 0.75 * Peak); // Near-roofline when tuned.
}

TEST(Timing, WaveQuantizationVisible) {
  // 4096^2 output with 128x256 tiles = 512 blocks = 3.88 SM waves; 4608^2
  // gives 648 blocks = 4.9 waves. Efficiency (TFLOPs relative to block
  // count) must dip when a wave is nearly empty.
  GemmConfig A;
  A.M = A.N = 4096;
  A.K = 4096;
  GemmConfig B = A;
  B.M = 4352; // 34 x 16 = 544 blocks: a nearly-empty fifth wave.
  B.N = 4096;
  CompiledGemm GA = compileGemm(A);
  CompiledGemm GB = compileGemm(B);
  ASSERT_NE(GA.Kernel, nullptr);
  ASSERT_NE(GB.Kernel, nullptr);
  ErrorOr<SimResult> RA = GA.Kernel->runTiming();
  ErrorOr<SimResult> RB = GB.Kernel->runTiming();
  ASSERT_TRUE(RA);
  ASSERT_TRUE(RB);
  EXPECT_EQ(RA->Waves, 4);
  EXPECT_EQ(RB->Waves, 5);
  // Per-wave efficiency of B is worse: it computes only 6% more FLOPs but
  // needs a whole extra wave.
  EXPECT_LT(RB->TFlops, RA->TFlops);
}

TEST(Timing, TmaAndTensorCoreOverlap) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  // Both engines busy most of the block: their busy cycles together exceed
  // the block duration, which is only possible with overlap.
  EXPECT_GT(Result->TmaBusyCycles + Result->TensorCoreBusyCycles,
            1.5 * Result->BlockCycles);
}

TEST(Timing, DramFloorForMemoryBoundShapes) {
  // A skinny GEMM (K = 64) moves far more bytes per FLOP; the DRAM floor
  // must bind and throughput must fall far below the compute roofline.
  GemmConfig Config;
  Config.M = Config.N = 8192;
  Config.K = 64;
  Config.W = 64;
  Config.Pipe = 2;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  EXPECT_LT(Result->TFlops, 250.0);
}

TEST(Timing, FunctionalAndTimingAgreeOnFlops) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  // Useful FLOPs from leaf annotations = 2MNK (plus epsilon for clears).
  EXPECT_NEAR(Result->TotalFlops, gemmFlops(Config),
              0.02 * gemmFlops(Config));
}

//===----------------------------------------------------------------------===//
// Scheduler failure paths
//===----------------------------------------------------------------------===//

namespace {

/// A hand-built one-block module for the scheduler's failure paths and
/// the race detector. Body ops are SIMT leaf calls and copies, so only the
/// event wiring, the cost model and the shared-memory placement matter.
struct BlockModule {
  IRModule Module;
  SharedAllocation Alloc;
  Operation *Grid = nullptr;

  explicit BlockModule(bool WarpSpecialize) {
    Grid = &append(Module.root(), OpKind::PFor);
    Grid->PForProc = Processor::Block;
    Grid->LoopHi = ScalarExpr(1);
    Grid->WarpSpecialize = WarpSpecialize;
  }

  Operation &append(IRBlock &Into, OpKind Kind) {
    auto Op = std::make_unique<Operation>();
    Op->Kind = Kind;
    Op->Id = Module.freshOpId();
    Into.Ops.push_back(std::move(Op));
    return *Into.Ops.back();
  }

  Operation &loop(IRBlock &Into, int64_t Trips, LoopVarId Var) {
    Operation &Op = append(Into, OpKind::For);
    Op.LoopVar = Var;
    Op.LoopVarName = "k" + std::to_string(Var);
    Op.LoopHi = ScalarExpr(Trips);
    return Op;
  }

  /// A call producing a fresh unit event after every event in \p Waits.
  EventId call(IRBlock &Into, const std::string &Name, bool Dma,
               std::vector<EventId> Waits = {}) {
    Operation &Op = append(Into, OpKind::Call);
    Op.Callee = Name;
    Op.Flops = 256;
    Op.DmaAgent = Dma;
    Op.Result = Module.addEvent(Name, EventType{});
    for (EventId Wait : Waits)
      Op.Preconds.push_back(EventRef::unit(Wait));
    return Op.Result;
  }

  ErrorOr<SimResult> run(const Cancellation *Cancel = nullptr,
                         SimWorkerPool *Pool = nullptr) const {
    return simulate(Module, Alloc, SimConfig(), LeafRegistry::sharedBuiltins(),
                    {}, nullptr, Pool, Cancel);
  }
};

} // namespace

namespace {

/// The DMA agent (0) issues all four loads; compute agent 1 runs its first
/// consumer, then blocks on an event whose only producer sits in a
/// zero-trip loop, so its completion slot stays empty for good.
void buildStuckConsumer(BlockModule &B) {
  EventId Never = B.call(B.loop(B.Grid->Body, 0, 0).Body, "never", false);
  IRBlock &Body = B.loop(B.Grid->Body, 4, 1).Body;
  EventId Load = B.call(Body, "load", true);
  B.call(Body, "use", false, {Load});
  B.call(Body, "stuck", false, {Never});
}

/// A head blocked without an empty slot to wait on: a top-level call
/// waiting on a loop-body event names no single producer instance.
void buildShallowConsumer(BlockModule &B) {
  EventId Inner = B.call(B.loop(B.Grid->Body, 2, 0).Body, "inner", false);
  B.call(B.Grid->Body, "after", false, {Inner});
  B.call(B.Grid->Body, "tail", false);
}

} // namespace

TEST(Timing, MissingProducerDeadlockNamesTheBlockedHead) {
  BlockModule B(/*WarpSpecialize=*/true);
  buildStuckConsumer(B);
  ErrorOr<SimResult> Result = B.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().message(),
            "simulation deadlock: agent 1 blocked at instruction 1 "
            "(missing event producer)");

  BlockModule Shallow(/*WarpSpecialize=*/false);
  buildShallowConsumer(Shallow);
  Result = Shallow.run();
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().message(),
            "simulation deadlock: agent 1 blocked at instruction 2 "
            "(missing event producer)");
}

TEST(LoweredExecution, MissingProducerDeadlockNamesTheBlockedHead) {
  // The same two schedules through the CPU lowering's round-robin agent
  // drain, which names the blocked head by its callee.
  LeafRegistry NoOps;
  for (const char *Name :
       {"never", "load", "use", "stuck", "inner", "after", "tail"})
    NoOps.add(Name, [](std::vector<TensorView> &,
                       const std::vector<int64_t> &) {});

  BlockModule B(/*WarpSpecialize=*/true);
  buildStuckConsumer(B);
  ErrorOr<LoweredStats> Stats = runCpuLowered(B.Module, NoOps, {});
  ASSERT_FALSE(Stats);
  EXPECT_EQ(Stats.diagnostic().message(),
            "lowered-execution deadlock: agent 1 blocked at stuck "
            "(event producer missing or never scheduled)");

  BlockModule Shallow(/*WarpSpecialize=*/false);
  buildShallowConsumer(Shallow);
  Stats = runCpuLowered(Shallow.Module, NoOps, {});
  ASSERT_FALSE(Stats);
  EXPECT_EQ(Stats.diagnostic().message(),
            "lowered-execution deadlock: agent 1 blocked at after "
            "(event producer missing or never scheduled)");
}

TEST(Timing, WriteOverAnInFlightReadIsARace) {
  // The DMA agent's copy overwrites a shared tile while agent 1's long
  // call is still reading it, with no event between them. The read starts
  // first, so only a sweep that checks a write against in-flight reads
  // catches it.
  BlockModule B(/*WarpSpecialize=*/true);
  TensorType Type{Shape({16, 32}), ElementType::F16};
  TensorId Src = B.Module.addTensor("src", Type, Memory::Global);
  TensorId Tile = B.Module.addTensor("tile", Type, Memory::Shared);
  B.Alloc.Entries.push_back({Tile, 0, Type.sizeBytes()});
  B.Alloc.buildIndex();

  B.call(B.Grid->Body, "delay", /*Dma=*/true);
  Operation &Copy = B.append(B.Grid->Body, OpKind::Copy);
  Copy.DmaAgent = true;
  Copy.CopySrc = TensorSlice::whole(Src);
  Copy.CopyDst = TensorSlice::whole(Tile);
  Copy.Result = B.Module.addEvent("copied", EventType{});
  B.call(B.Grid->Body, "reader", /*Dma=*/false);
  Operation &Reader = *B.Grid->Body.Ops.back();
  Reader.Flops = 1e6;
  Reader.Args = {TensorSlice::whole(Tile)};
  Reader.ArgIsWritten = {false};

  ErrorOr<SimResult> Result = B.run();
  ASSERT_TRUE(Result) << Result.diagnostic().message();
  ASSERT_EQ(Result->Races.size(), 1u);
  EXPECT_EQ(Result->Races[0], "shared-memory hazard between tile and tile "
                              "(aliased bytes [0, 1024) overlap in time)");
}

namespace {

/// A two-warpgroup pipeline whose consumers pick the producer replica by a
/// loop-dependent index, so their precondition descriptors differ from one
/// iteration to the next. (No compiled kernel indexes a warpgroup by a
/// loop variable.) The DMA agent refills a two-buffer ring with no
/// write-after-read edge, so the trace also holds races.
void buildLoopIndexedWarpgroups(BlockModule &B) {
  const int64_t Wgs = 2, Trips = 6;
  TensorType Tile{Shape({64, 64}), ElementType::F16};
  TensorId Src = B.Module.addTensor("src", Tile, Memory::Global);
  TensorId Ring = B.Module.addTensor("ring", Tile, Memory::Shared);
  B.Module.tensor(Ring).PipelineDepth = 2;
  B.Alloc.Entries.push_back({Ring, 0, 2 * Tile.sizeBytes()});
  B.Alloc.buildIndex();

  Operation &Loop = B.loop(B.Grid->Body, Trips, 0);
  ScalarExpr K = ScalarExpr::loopVar(0, "k0");
  ScalarExpr Wg = ScalarExpr::procIndex(Processor::Warpgroup);
  EventType PerWg;
  PerWg.Dims.push_back({Wgs, Processor::Warpgroup});
  auto Ref = [](EventId Event, std::optional<ScalarExpr> Index,
                int64_t Lag = 0) {
    EventRef R = EventRef::unit(Event);
    R.Indices.push_back(Index ? EventIndex::expr(*Index)
                              : EventIndex::broadcast());
    R.IterLag = Lag;
    return R;
  };
  auto OnEveryWarpgroup = [&](Operation &Op, const char *Name) {
    Op.VecContext.push_back({Wgs, Processor::Warpgroup});
    Op.Result = B.Module.addEvent(Name, PerWg);
  };

  Operation &Load = B.append(Loop.Body, OpKind::Copy);
  Load.DmaAgent = true;
  Load.Unit = ExecUnit::TMA;
  Load.CopySrc = TensorSlice::whole(Src);
  Load.CopyDst = TensorSlice::whole(Ring);
  Load.CopyDst.BufferIndex = K.mod(2);
  OnEveryWarpgroup(Load, "loaded");

  // Both kinds of warpgroup index on one op: (k + wg) mod 2 and wg.
  Operation &Mma = B.append(Loop.Body, OpKind::Call);
  Mma.Callee = "mma";
  Mma.Unit = ExecUnit::TensorCore;
  Mma.Flops = 4e6;
  TensorSlice Read = TensorSlice::whole(Ring);
  Read.BufferIndex = K.mod(2);
  Mma.Args = {Read};
  Mma.ArgIsWritten = {false};
  Mma.Preconds.push_back(Ref(Load.Result, (K + Wg).mod(2)));
  Mma.Preconds.push_back(Ref(Load.Result, Wg));
  OnEveryWarpgroup(Mma, "mmad");

  // Only loop-free warpgroup indices: one fixed descriptor table per
  // replica, next to a lagged broadcast.
  Operation &Epilogue = B.append(Loop.Body, OpKind::Call);
  Epilogue.Callee = "epilogue";
  Epilogue.Flops = 512;
  Epilogue.Preconds.push_back(Ref(Mma.Result, Wg));
  Epilogue.Preconds.push_back(Ref(Mma.Result, std::nullopt, /*Lag=*/1));
  OnEveryWarpgroup(Epilogue, "done");

  // An unreplicated consumer of a replicated event, by a loop index.
  B.call(Loop.Body, "sync", false);
  Operation &Sync = *Loop.Body.Ops.back();
  Sync.Preconds.push_back(Ref(Epilogue.Result, K.mod(2)));
  Sync.Preconds.push_back(Ref(Mma.Result, std::nullopt));
}

} // namespace

TEST(Timing, LoopDependentWarpgroupIndicesMatchRecordedResult) {
  // Recorded before the schedule built loop-free precondition descriptors
  // once per (op, warpgroup) instead of once per instance; the result
  // must not move. The six loop iterations are six expansion units, so
  // pools of 2 and 8 workers shard the loop-dependent entries too.
  BlockModule B(/*WarpSpecialize=*/true);
  buildLoopIndexedWarpgroups(B);
  auto Hazard = [](const char *Bytes) {
    return std::string("shared-memory hazard between ring and ring "
                       "(aliased bytes ") +
           Bytes + " overlap in time)";
  };
  const std::string Low = Hazard("[0, 8192)"), High = Hazard("[8192, 16384)");
  for (unsigned Workers : {0u, 2u, 8u}) {
    std::unique_ptr<CompilerSession> Pool;
    if (Workers) {
      SessionConfig Config;
      Config.Workers = Workers;
      Pool = std::make_unique<CompilerSession>(Config);
    }
    ErrorOr<SimResult> Result = B.run(nullptr, Pool.get());
    ASSERT_TRUE(Result) << Result.diagnostic().message();
    EXPECT_EQ(Result->BlockCycles, 12224.389480512458) << Workers;
    EXPECT_EQ(Result->TmaBusyCycles, 1890.4615384615381) << Workers;
    EXPECT_EQ(Result->TensorCoreBusyCycles, 11243.851018973997) << Workers;
    EXPECT_EQ(Result->Races,
              std::vector<std::string>(
                  {Low, Low, Low, Low, High, High, High, High, Low}))
        << Workers;
  }
}

TEST(Timing, DeadlineStopsEventRelaxation) {
  // The expansion checkpoint polls once per top-level unit and reads the
  // clock only every DefaultStride-th poll, so with fewer units than that
  // a deadline that passes after the entry check is first observed by the
  // scheduling loop. The run (about 10^5 instances) takes far longer than
  // the deadline on any host.
  const int64_t Units = CancelCheck::DefaultStride - 1;
  BlockModule B(/*WarpSpecialize=*/false);
  IRBlock &Outer = B.loop(B.Grid->Body, Units, 0).Body;
  B.call(B.loop(Outer, 400, 1).Body, "step", false);
  for (int Attempt = 0; Attempt < 5; ++Attempt) {
    Cancellation Cancel(Deadline::afterMicros(500));
    ErrorOr<SimResult> Result = B.run(&Cancel);
    ASSERT_FALSE(Result) << "the run finished inside its deadline";
    EXPECT_EQ(Result.diagnostic().code(),
              Diagnostic::Code::DeadlineExceeded);
    // The entry checkpoint fires only if this thread was descheduled for
    // the whole deadline before reaching it; try again.
    if (Result.diagnostic().message() == "deadline exceeded during simulation")
      continue;
    EXPECT_EQ(Result.diagnostic().message(),
              "deadline exceeded during simulation event relaxation");
    return;
  }
  FAIL() << "the deadline expired before the entry checkpoint every time";
}
