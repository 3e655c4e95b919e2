//===- SimulatorParityTest.cpp - Simulator hot-path parity tests --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the simulator's observable results against golden values recorded
/// from the pre-rewrite (ordered-map) implementation, so the dense-table
/// timing engine of PR 4 — and any future hot-path work — must stay
/// result-identical while getting faster. Also checks that the tuner's
/// batched (worker-pool) candidate evaluation produces exactly the
/// landscape a sequential sweep does.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

using namespace cypress;
using namespace cypress::testkernels;

#ifndef CYPRESS_GOLDEN_DIR
#error "CYPRESS_GOLDEN_DIR must point at tests/goldens"
#endif

namespace {

/// Golden values recorded from the pre-rewrite simulator (ordered-map
/// implementation, commit 627d726) at these exact configurations. The
/// tolerance is relative 1e-9 — tight enough that any semantic change to
/// scheduling or the cost model fails, loose enough for cross-compiler
/// floating-point contraction differences.
void expectGolden(const ErrorOr<SimResult> &Result, double BlockCycles,
                  double TFlops, double TotalFlops, int64_t Blocks,
                  int64_t Waves) {
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_NEAR(Result->BlockCycles, BlockCycles, 1e-9 * BlockCycles);
  EXPECT_NEAR(Result->TFlops, TFlops, 1e-9 * TFlops);
  EXPECT_NEAR(Result->TotalFlops, TotalFlops, 1e-9 * TotalFlops);
  EXPECT_EQ(Result->Blocks, Blocks);
  EXPECT_EQ(Result->Waves, Waves);
  EXPECT_TRUE(Result->Races.empty())
      << "first race: " << (Result->Races.empty() ? "" : Result->Races[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden timing parity
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, GemmHeadlineGolden) {
  Compiled G = compileGemm(headlineGemmConfig());
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  expectGolden(Result, 66537.710867254267, 901.41412686954015,
               137472507904.0, 512, 4);
  ASSERT_TRUE(Result);
  EXPECT_NEAR(Result->TmaBusyCycles, 61755.076923076827, 1e-6);
  EXPECT_NEAR(Result->TensorCoreBusyCycles, 62880.172405715792, 1e-6);
}

TEST(SimulatorParity, GemmSmallGolden) {
  Compiled G = compileGemm(smallGemmConfig());
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  expectGolden(G.Kernel->runTiming(), 5622.5438492170742,
               8.3324289939645197, 33816576.0, 4, 1);
}

TEST(SimulatorParity, AttentionFa2Golden) {
  Compiled C = compileAttention(fa2Config(4096));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 116608.87399318923,
               791.94619599599901, 105916710912.0, 256, 2);
}

TEST(SimulatorParity, AttentionFa3Golden) {
  Compiled C = compileAttention(fa3Config(4096));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 118976.87399318925,
               777.75836622158124, 106118037504.0, 256, 2);
}

TEST(SimulatorParity, AttentionShortSequenceGolden) {
  Compiled C = compileAttention(fa2Config(1024));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 32140.68003675872,
               345.53303429831527, 6623342592.0, 64, 1);
}

//===----------------------------------------------------------------------===//
// Seeded points of the tuner spaces
//===----------------------------------------------------------------------===//

namespace {

/// The timing results of 32 seeded, statically feasible points of the
/// guided GEMM and FA2/FA3 spaces at small sizes, one block per point:
/// the point, its block/Tensor Core/TMA cycles (round-trip %.17g), and
/// every race diagnostic. The attention draws cycle through three kinds:
/// a racy point (unequal effective K/V pipeline depths the compiler
/// fails to synchronize), a race-free point with unequal depths, and one
/// with equal depths, so the timing of racy kernels is pinned too.
/// Points the pipeline still rejects are skipped (the draw continues).
std::string seededSpaceTimings() {
  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 1024;
  struct Family {
    KernelSearchSpec Spec;
    size_t Points;
  } Families[] = {
      {gemmSearchSpec(Gemm, gemmGuidedAxes()), 12},
      {attentionSearchSpec(fa2Config(2048), attentionGuidedAxes()), 10},
      {attentionSearchSpec(fa3Config(2048), attentionGuidedAxes()), 10}};
  const MachineModel &H100 = MachineModel::h100();
  SplitMix64 Rng(0x51de5eedULL);
  std::string Out;
  for (Family &F : Families) {
    MappingSpace Space(F.Spec, H100);
    TaskRegistry Registry;
    F.Spec.Register(Registry);
    bool Attention = F.Spec.KernelName == "fa";
    size_t Taken = 0;
    while (Taken < F.Points) {
      MappingSpace::Candidate Cand =
          Space.candidateAt(Rng.nextBelow(Space.size()));
      if (!Cand.feasible())
        continue;
      if (Attention) {
        // 0 on a per-stream depth axis inherits PIPE.
        int64_t Pipe = Cand.Point.at("PIPE");
        int64_t K = Cand.Point.at("PIPE_K"), V = Cand.Point.at("PIPE_V");
        bool Unequal = (K ? K : Pipe) != (V ? V : Pipe);
        if (Unequal != (Taken % 3 != 2))
          continue;
      }
      MappingSpec Mapping = F.Spec.BuildMapping(Cand.Point);
      CompileInput Input{&Registry, &Mapping, &H100,
                         F.Spec.BuildArgs(Cand.Point)};
      ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
          compileKernel(Input, F.Spec.KernelName);
      if (!Kernel)
        continue;
      ErrorOr<SimResult> R = (*Kernel)->runTiming();
      if (Attention && Taken % 3 != 2 &&
          (R && !R->Races.empty()) != (Taken % 3 == 0))
        continue;
      Out += F.Spec.KernelName + " " + Cand.Point.str() + "\n";
      if (!R) {
        Out += "  error: " + R.diagnostic().message() + "\n";
      } else {
        char Line[160];
        std::snprintf(Line, sizeof(Line), "  block=%.17g tc=%.17g tma=%.17g\n",
                      R->BlockCycles, R->TensorCoreBusyCycles,
                      R->TmaBusyCycles);
        Out += Line;
        for (const std::string &Race : R->Races)
          Out += "  race: " + Race + "\n";
      }
      ++Taken;
    }
  }
  return Out;
}

} // namespace

TEST(SimulatorParity, SeededTunerSpacePointsGolden) {
  // Recorded before the blocked-head scheduler and per-op instance
  // templates; regenerate with CYPRESS_UPDATE_GOLDENS=1 only after an
  // intentional timing-model change. Compared byte for byte, so it
  // assumes no floating-point contraction (true of x86-64 builds without
  // -march flags; a target whose compiler fuses multiply-adds by default
  // may differ in the last digits).
  std::string Actual = seededSpaceTimings();
  std::string Path =
      std::string(CYPRESS_GOLDEN_DIR) + "/sim_seeded_points.txt";
  const char *Update = std::getenv("CYPRESS_UPDATE_GOLDENS");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (record with CYPRESS_UPDATE_GOLDENS=1)";
  std::ostringstream Golden;
  Golden << In.rdbuf();
  EXPECT_EQ(Actual, Golden.str());
}

//===----------------------------------------------------------------------===//
// Pooled scratch reuse and functional mode
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, RepeatedRunsBitIdentical) {
  // The timing scratch is pooled across runs; reuse must not leak state
  // between simulations (same kernel, and interleaved different kernels).
  Compiled G = compileGemm(headlineGemmConfig());
  Compiled A = compileAttention(fa2Config(1024));
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ASSERT_NE(A.Kernel, nullptr) << A.Error;
  ErrorOr<SimResult> GemmFirst = G.Kernel->runTiming();
  ErrorOr<SimResult> AttnFirst = A.Kernel->runTiming();
  ASSERT_TRUE(GemmFirst);
  ASSERT_TRUE(AttnFirst);
  for (int I = 0; I < 3; ++I) {
    ErrorOr<SimResult> GemmAgain = G.Kernel->runTiming();
    ErrorOr<SimResult> AttnAgain = A.Kernel->runTiming();
    ASSERT_TRUE(GemmAgain);
    ASSERT_TRUE(AttnAgain);
    EXPECT_EQ(GemmAgain->BlockCycles, GemmFirst->BlockCycles);
    EXPECT_EQ(GemmAgain->TFlops, GemmFirst->TFlops);
    EXPECT_EQ(AttnAgain->BlockCycles, AttnFirst->BlockCycles);
    EXPECT_EQ(AttnAgain->TFlops, AttnFirst->TFlops);
  }
}

TEST(SimulatorParity, FunctionalModeKeepsTimingAndComputesGemm) {
  // runFunctional = timing plus functional execution: the timing half must
  // report the same golden cycles, and the functional half the right
  // numbers.
  GemmConfig Config = smallGemmConfig();
  Compiled G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr) << G.Error;

  KernelBuffers Buffers = gemmInputs(Config);
  TensorData &C = Buffers.Data[0];
  TensorData &A = Buffers.Data[1];
  TensorData &B = Buffers.Data[2];

  ErrorOr<SimResult> Result = G.Kernel->runFunctional(Buffers.ptrs());
  expectGolden(Result, 5622.5438492170742, 8.3324289939645197, 33816576.0,
               4, 1);
  ASSERT_TRUE(Result);
  EXPECT_TRUE(Result->FunctionalRan);

  for (int64_t I : {int64_t(0), int64_t(17), int64_t(255)}) {
    for (int64_t J : {int64_t(0), int64_t(63), int64_t(511)}) {
      float Ref = 0.0f;
      for (int64_t K = 0; K < Config.K; ++K)
        Ref += A.at({I, K}) * B.at({K, J});
      EXPECT_NEAR(C.at({I, J}), Ref, 1e-2f) << "C(" << I << ", " << J << ")";
    }
  }
}

TEST(SimulatorParity, FunctionalAttentionDeterministic) {
  // The odometer enumeration of processor instances must visit the same
  // instances in the same order as the recursive enumerator it replaced:
  // repeated functional runs produce bit-identical outputs.
  AttentionConfig Config = smallAttentionConfig();
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers One = attentionInputs(Config);
  KernelBuffers Two = attentionInputs(Config);
  ASSERT_TRUE(C.Kernel->runFunctional(One.ptrs()));
  ASSERT_TRUE(C.Kernel->runFunctional(Two.ptrs()));
  const TensorData &O1 = One.Data[0], &O2 = Two.Data[0];
  for (int64_t I = 0; I < O1.type().Dims.numElements(); ++I)
    ASSERT_EQ(O1.at(I), O2.at(I)) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Sharded single-kernel simulation
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, ShardedTimingBitIdenticalAcrossWorkerCounts) {
  // One kernel's expansion shards across a CompilerSession's worker pool
  // (runTiming's pool argument). Shards cover contiguous ranges of the
  // sequential expansion order and merge in order, so every worker count
  // — including the sequential no-pool path — must produce bit-identical
  // timing. Run under TSan, this is also the data-race check for the
  // sharded path: repeated runs reuse the pooled per-shard buffers.
  Compiled G = compileGemm(headlineGemmConfig());
  Compiled A = compileAttention(fa2Config(4096));
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ASSERT_NE(A.Kernel, nullptr) << A.Error;
  ErrorOr<SimResult> GemmRef = G.Kernel->runTiming();
  ErrorOr<SimResult> AttnRef = A.Kernel->runTiming();
  ASSERT_TRUE(GemmRef);
  ASSERT_TRUE(AttnRef);

  for (unsigned Workers : {1u, 2u, 8u}) {
    SessionConfig Config;
    Config.Workers = Workers;
    CompilerSession Pool(Config);
    for (int Rep = 0; Rep < 3; ++Rep) {
      ErrorOr<SimResult> Gemm = G.Kernel->runTiming(SimConfig(), &Pool);
      ErrorOr<SimResult> Attn = A.Kernel->runTiming(SimConfig(), &Pool);
      ASSERT_TRUE(Gemm) << "workers " << Workers;
      ASSERT_TRUE(Attn) << "workers " << Workers;
      EXPECT_EQ(Gemm->BlockCycles, GemmRef->BlockCycles)
          << "workers " << Workers << " rep " << Rep;
      EXPECT_EQ(Gemm->TFlops, GemmRef->TFlops);
      EXPECT_EQ(Gemm->TmaBusyCycles, GemmRef->TmaBusyCycles);
      EXPECT_EQ(Gemm->TensorCoreBusyCycles, GemmRef->TensorCoreBusyCycles);
      EXPECT_TRUE(Gemm->Races.empty());
      EXPECT_EQ(Attn->BlockCycles, AttnRef->BlockCycles)
          << "workers " << Workers << " rep " << Rep;
      EXPECT_EQ(Attn->TFlops, AttnRef->TFlops);
      EXPECT_EQ(Attn->TmaBusyCycles, AttnRef->TmaBusyCycles);
      EXPECT_EQ(Attn->TensorCoreBusyCycles, AttnRef->TensorCoreBusyCycles);
    }
  }
}

//===----------------------------------------------------------------------===//
// Batched vs sequential tuner evaluation
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, BatchedTunerMatchesSequential) {
  // The tuner evaluates candidates on the session's worker pool; the
  // merged landscape must be exactly what a one-worker (sequential) sweep
  // produces — same order, same statuses, same TFLOP/s bits.
  GemmConfig Base;
  Base.M = Base.N = Base.K = 4096;

  SessionConfig Sequential;
  Sequential.Workers = 1;
  CompilerSession SeqSession(Sequential);
  Tuner SeqTuner(SeqSession);
  TuneResult SeqResult = SeqTuner.tune(gemmSearchSpec(Base, gemmSweepAxes()),
                                       MachineModel::h100());

  SessionConfig Batched;
  Batched.Workers = 4;
  CompilerSession BatchSession(Batched);
  Tuner BatchTuner(BatchSession);
  TuneResult BatchResult = BatchTuner.tune(
      gemmSearchSpec(Base, gemmSweepAxes()), MachineModel::h100());

  ASSERT_EQ(SeqResult.Landscape.size(), BatchResult.Landscape.size());
  for (size_t I = 0; I < SeqResult.Landscape.size(); ++I) {
    const CandidateResult &Seq = SeqResult.Landscape[I];
    const CandidateResult &Batch = BatchResult.Landscape[I];
    EXPECT_EQ(Seq.Point.str(), Batch.Point.str()) << "row " << I;
    EXPECT_EQ(Seq.Status, Batch.Status) << "row " << I;
    EXPECT_EQ(Seq.TFlops, Batch.TFlops) << "row " << I;
    EXPECT_EQ(Seq.SharedBytes, Batch.SharedBytes) << "row " << I;
  }
  ASSERT_NE(SeqResult.best(), nullptr);
  ASSERT_NE(BatchResult.best(), nullptr);
  EXPECT_EQ(SeqResult.best()->Point.str(), BatchResult.best()->Point.str());

  // Evaluated rows carry their simulate wall time (cache-replayed rows
  // report the original evaluation's, like CompileMicros).
  for (const CandidateResult &Row : BatchResult.Landscape) {
    if (Row.Status == CandidateStatus::Evaluated) {
      EXPECT_GT(Row.SimulateMicros, 0.0);
    }
  }
}
