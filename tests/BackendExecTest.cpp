//===- BackendExecTest.cpp - Differential execution of the CPU lowering -------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential verification of the emitted-kernel schedule: the scalar CPU
/// lowering (src/backend) executes the post-pipeline IR the way the CUDA
/// emitter prints it — per-agent streams, event waits, pipeline lag — and
/// its outputs must match `runFunctional`'s program-order execution on the
/// same seeded inputs for every kernel family the paper evaluates. A
/// divergence means warp specialization or pipelining produced a schedule
/// that computes something other than the task program.
///
/// Also pins the harness itself: each lowered run's LoweredStats must match
/// exactly, two lowered runs must be bit-identical (the agent scheduler is
/// deterministic), and an injected corruption must make the differ fail
/// (the comparison actually compares).
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

using namespace cypress;
using namespace cypress::testkernels;

namespace {

/// Tolerances for functional-vs-lowered comparison. Both executors run the
/// same scalar leaves in the same per-warpgroup order and quantize f16
/// stores identically, so agreement is tight; 4 ulps + 1e-5 absorbs any
/// libm/contraction variance without hiding a real scheduling bug.
constexpr int64_t MaxUlps = 4;
constexpr float AbsTol = 1e-5f;

/// Runs \p Compiled both ways on identical inputs and compares every
/// entry buffer (outputs and inputs — the lowering must not clobber
/// arguments the functional path leaves alone). \p Expected pins the
/// lowered run's {Blocks, Agents, Instances, Stalls} exactly: the stall
/// count is a fingerprint of the round-robin order, so a change to the
/// agent schedule shows up here even when the output still matches.
void expectDifferentialMatch(Compiled &C, KernelBuffers &&Functional,
                             KernelBuffers &&Lowered,
                             const LoweredStats &Expected) {
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  ErrorOr<SimResult> Ref = C.Kernel->runFunctional(Functional.ptrs());
  ASSERT_TRUE(Ref) << (Ref ? "" : Ref.diagnostic().message());
  ASSERT_TRUE(Ref->FunctionalRan);

  ErrorOr<LoweredStats> Stats =
      runCpuLowered(C.Kernel->module(), LeafRegistry::sharedBuiltins(),
                    Lowered.ptrs());
  ASSERT_TRUE(Stats) << (Stats ? "" : Stats.diagnostic().message());
  EXPECT_EQ(Stats->Blocks, Expected.Blocks);
  EXPECT_EQ(Stats->Agents, Expected.Agents);
  EXPECT_EQ(Stats->Instances, Expected.Instances);
  EXPECT_EQ(Stats->Stalls, Expected.Stalls);

  for (size_t I = 0; I < Functional.Data.size(); ++I)
    EXPECT_EQ("", compareTensors(Lowered.Data[I], Functional.Data[I],
                                 MaxUlps, AbsTol))
        << "entry argument " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential execution: the six kernel families
//===----------------------------------------------------------------------===//

TEST(BackendExec, GemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          LoweredStats{4, 3, 56, 16});
}

TEST(BackendExec, GemmDeepPipelineMatchesFunctional) {
  // The headline mapping's shape is infeasible for scalar execution, but
  // its defining features — 3-deep pipeline with more K steps than the
  // pipeline depth, so the lag edges actually gate — fit at 256 K.
  GemmConfig Config = smallGemmConfig();
  Config.K = 256;
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          LoweredStats{4, 3, 88, 36});
}

TEST(BackendExec, BatchedGemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Config.L = 2;
  Compiled C = compileBatchedGemm(Config);
  expectDifferentialMatch(C, batchedGemmInputs(Config),
                          batchedGemmInputs(Config),
                          LoweredStats{8, 3, 112, 32});
}

TEST(BackendExec, AttentionFa2MatchesFunctional) {
  AttentionConfig Config = smallAttentionConfig(/*StageScores=*/false);
  Compiled C = compileAttention(Config);
  expectDifferentialMatch(C, attentionInputs(Config),
                          attentionInputs(Config),
                          LoweredStats{4, 4, 328, 144});
}

TEST(BackendExec, AttentionFa3MatchesFunctional) {
  AttentionConfig Config = smallAttentionConfig(/*StageScores=*/true);
  Compiled C = compileAttention(Config);
  expectDifferentialMatch(C, attentionInputs(Config),
                          attentionInputs(Config),
                          LoweredStats{4, 4, 400, 208});
}

TEST(BackendExec, DualGemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileDualGemm(Config);
  expectDifferentialMatch(C, dualGemmInputs(Config),
                          dualGemmInputs(Config),
                          LoweredStats{4, 3, 64, 16});
}

TEST(BackendExec, GemmReductionMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemmRed(Config);
  expectDifferentialMatch(C, gemmRedInputs(Config), gemmRedInputs(Config),
                          LoweredStats{4, 3, 96, 16});
}

TEST(BackendExec, NonWarpSpecializedMatchesFunctional) {
  // With warp specialization off the agent machine degenerates to a single
  // compute stream; the DMA-tagged ops must still execute (ownership is
  // gated on the grid flag, as in the simulator).
  GemmConfig Config = smallGemmConfig();
  Config.Pipe = 1;
  Config.WarpSpecialize = false;
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          LoweredStats{4, 3, 56, 12});
}

//===----------------------------------------------------------------------===//
// Harness self-checks
//===----------------------------------------------------------------------===//

TEST(BackendExec, LoweredRunsBitIdentical) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers One = gemmInputs(Config);
  KernelBuffers Two = gemmInputs(Config);
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(), One.ptrs()));
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(), Two.ptrs()));
  const TensorData &C1 = One.Data[0], &C2 = Two.Data[0];
  for (int64_t I = 0, E = C1.shape().numElements(); I < E; ++I)
    ASSERT_EQ(C1.at(I), C2.at(I)) << "element " << I;
}

TEST(BackendExec, DifferInjectedCorruptionFails) {
  // Prove the comparison can fail: perturb one lowered output element past
  // both tolerances and require a nonempty report naming it.
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers Functional = gemmInputs(Config);
  KernelBuffers Lowered = gemmInputs(Config);
  ASSERT_TRUE(C.Kernel->runFunctional(Functional.ptrs()));
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(),
                            Lowered.ptrs()));

  TensorData &Out = Lowered.Data[0];
  Out.set(int64_t(12345), Out.at(int64_t(12345)) + 1.0f);
  std::string Report =
      compareTensors(Out, Functional.Data[0], MaxUlps, AbsTol);
  EXPECT_NE("", Report);
  EXPECT_NE(Report.find("12345"), std::string::npos) << Report;
}

TEST(BackendExec, StatsReflectWarpSpecialization) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers Buffers = gemmInputs(Config);
  ErrorOr<LoweredStats> Stats = runCpuLowered(
      C.Kernel->module(), LeafRegistry::sharedBuiltins(), Buffers.ptrs());
  ASSERT_TRUE(Stats) << (Stats ? "" : Stats.diagnostic().message());
  // 256x512 with 128x256 tiles = 4 blocks; 1 DMA agent + 2 warpgroups.
  EXPECT_EQ(Stats->Blocks, 4);
  EXPECT_EQ(Stats->Agents, 3);
  // The DMA agent runs ahead of compute, so it must have stalled at least
  // once on the pipeline's backward (lag) edges.
  EXPECT_GT(Stats->Stalls, 0);
}
