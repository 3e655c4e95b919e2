//===- FusedKernelsTest.cpp - Dual-GEMM and GEMM+Reduction tests ---------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end functional tests of the fused kernels of Figures 13c/13d,
/// plus a parameterized GEMM shape sweep: for every tile-divisible problem
/// shape, the compiled program must agree with the naive reference.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

using namespace cypress;

namespace {

struct Compiled {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::shared_ptr<const CompiledKernel> Kernel;
};

template <typename RegisterFn, typename MappingFn>
Compiled compile(const char *Name, RegisterFn Register, MappingFn Build,
                 std::vector<TensorType> Args) {
  Compiled Result;
  Result.Registry = std::make_unique<TaskRegistry>();
  Register(*Result.Registry);
  Result.Mapping = std::make_unique<MappingSpec>(Build());
  CompileInput Input{Result.Registry.get(), Result.Mapping.get(),
                     &MachineModel::h100(), std::move(Args)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, Name);
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (Kernel)
    Result.Kernel = std::move(*Kernel);
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Dual-GEMM (Figure 13c)
//===----------------------------------------------------------------------===//

TEST(DualGemm, FunctionalMatchesReference) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  Compiled C = compile(
      "dual", registerDualGemmTasks, [&] { return dualGemmMapping(Config); },
      dualGemmArgTypes(Config));
  ASSERT_NE(C.Kernel, nullptr);

  TensorData Out(dualGemmArgTypes(Config)[0]);
  TensorData A(dualGemmArgTypes(Config)[1]);
  TensorData B1(dualGemmArgTypes(Config)[2]);
  TensorData B2(dualGemmArgTypes(Config)[3]);
  fillRandomFp16(A.raw(), 41);
  fillRandomFp16(B1.raw(), 42);
  fillRandomFp16(B2.raw(), 43);

  ErrorOr<SimResult> Result = C.Kernel->runFunctional({&Out, &A, &B1, &B2});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_TRUE(Result->Races.empty());

  for (int64_t I = 0; I < Config.M; I += 37) {
    for (int64_t J = 0; J < Config.N; J += 61) {
      float Want = 0.0f;
      for (int64_t K = 0; K < Config.K; ++K)
        Want += A.at({I, K}) * (B1.at({K, J}) + B2.at({K, J}));
      EXPECT_NEAR(Out.at({I, J}), Want, 0.25) << I << "," << J;
    }
  }
}

TEST(DualGemm, SingleACopyPerIteration) {
  // The fused kernel's win: A's tile is fetched once per K step even
  // though two products consume it.
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  Compiled C = compile(
      "dual", registerDualGemmTasks, [&] { return dualGemmMapping(Config); },
      dualGemmArgTypes(Config));
  ASSERT_NE(C.Kernel, nullptr);
  int LoopTmaLoads = 0;
  walkOps(C.Kernel->module().root(), [&](const Operation &Loop) {
    if (Loop.Kind != OpKind::For)
      return;
    for (const std::unique_ptr<Operation> &Op : Loop.Body.Ops)
      if (Op->Kind == OpKind::Copy && Op->Unit == ExecUnit::TMA)
        ++LoopTmaLoads;
  });
  EXPECT_EQ(LoopTmaLoads, 3); // A, B1, B2 — not 4.
}

//===----------------------------------------------------------------------===//
// GEMM+Reduction (Figure 13d)
//===----------------------------------------------------------------------===//

TEST(GemmRed, FunctionalMatchesReference) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  Compiled C = compile(
      "gemmred", registerGemmRedTasks,
      [&] { return gemmRedMapping(Config); }, gemmRedArgTypes(Config));
  ASSERT_NE(C.Kernel, nullptr);

  TensorData Out(gemmRedArgTypes(Config)[0]);
  TensorData A(gemmRedArgTypes(Config)[1]);
  TensorData B(gemmRedArgTypes(Config)[2]);
  TensorData Y(gemmRedArgTypes(Config)[3]);
  fillRandomFp16(A.raw(), 51);
  fillRandomFp16(B.raw(), 52);

  ErrorOr<SimResult> Result = C.Kernel->runFunctional({&Out, &A, &B, &Y});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_TRUE(Result->Races.empty());

  // C = A.B.
  for (int64_t I = 0; I < Config.M; I += 53) {
    for (int64_t J = 0; J < Config.N; J += 97) {
      float Want = 0.0f;
      for (int64_t K = 0; K < Config.K; ++K)
        Want += A.at({I, K}) * B.at({K, J});
      EXPECT_NEAR(Out.at({I, J}), Want, 0.25);
    }
  }
  // y(i) = sum_k A(i, k); every block-column row of Y holds a replica.
  int64_t Columns = Config.N / Config.V;
  for (int64_t I = 0; I < Config.M; I += 19) {
    float Want = 0.0f;
    for (int64_t K = 0; K < Config.K; ++K)
      Want += A.at({I, K});
    for (int64_t Col = 0; Col < Columns; ++Col)
      EXPECT_NEAR(Y.at({Col, I}), Want, 0.05)
          << "row " << I << " column block " << Col;
  }
}

TEST(GemmRed, ReductionRunsOnSimtWhileTensorCoreBusy) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  Compiled C = compile(
      "gemmred", registerGemmRedTasks,
      [&] { return gemmRedMapping(Config); }, gemmRedArgTypes(Config));
  ASSERT_NE(C.Kernel, nullptr);
  ErrorOr<SimResult> Result = C.Kernel->runTiming();
  ASSERT_TRUE(Result);
  // If the reduction serialized with the matrix work (the Triton
  // behaviour), Tensor Core occupancy would collapse; overlapped it stays
  // near the plain-GEMM level.
  EXPECT_GT(Result->TensorCoreBusyCycles, 0.85 * Result->BlockCycles);
}

//===----------------------------------------------------------------------===//
// Parameterized GEMM shape sweep
//===----------------------------------------------------------------------===//

using GemmShape = std::tuple<int64_t, int64_t, int64_t>;

class GemmShapeSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeSweep, FunctionalMatchesReferenceEverywhere) {
  auto [M, N, K] = GetParam();
  GemmConfig Config;
  Config.M = M;
  Config.N = N;
  Config.K = K;
  Compiled C = compile(
      "gemm", registerGemmTasks, [&] { return gemmMapping(Config); },
      gemmArgTypes(Config));
  ASSERT_NE(C.Kernel, nullptr);

  TensorData Out(gemmArgTypes(Config)[0]);
  TensorData A(gemmArgTypes(Config)[1]);
  TensorData B(gemmArgTypes(Config)[2]);
  fillRandomFp16(A.raw(), static_cast<uint64_t>(M * 31 + N * 7 + K));
  fillRandomFp16(B.raw(), static_cast<uint64_t>(M + N * 13 + K * 3));

  ErrorOr<SimResult> Result = C.Kernel->runFunctional({&Out, &A, &B});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_TRUE(Result->Races.empty());

  // Strided spot checks across every block tile.
  for (int64_t I = 0; I < M; I += 41) {
    for (int64_t J = 0; J < N; J += 89) {
      float Want = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Want += A.at({I, KK}) * B.at({KK, J});
      ASSERT_NEAR(Out.at({I, J}), Want, 0.003 * K)
          << M << "x" << N << "x" << K << " at " << I << "," << J;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileDivisibleShapes, GemmShapeSweep,
    ::testing::Values(GemmShape{128, 256, 64},   // One block, one K step.
                      GemmShape{128, 256, 256},  // One block, deep K.
                      GemmShape{256, 256, 128},  // Two row blocks.
                      GemmShape{128, 512, 128},  // Two column blocks.
                      GemmShape{384, 512, 192},  // 3x2 grid, 3 K steps.
                      GemmShape{256, 512, 320})); // Non-power-of-two K.
