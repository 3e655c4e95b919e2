//===- AttentionTest.cpp - Flash Attention kernel tests -----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the attention programs (Section 5.3): functional
/// equivalence with a naive softmax(Q.K^T/sqrt(d)).V reference for both the
/// FA2 and FA3 loop structures, the algorithm-restructuring invariant
/// (FA2 and FA3 produce identical results), and structural/timing checks.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

using namespace cypress;

namespace {

AttentionConfig smallConfig(bool Staged) {
  AttentionConfig Config = Staged ? fa3Config(384) : fa2Config(384);
  Config.Heads = 2;
  Config.BC = 64; // More main-loop iterations at the small size.
  return Config;
}

struct Compiled {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::shared_ptr<const CompiledKernel> Kernel;
};

Compiled compileAttention(const AttentionConfig &Config) {
  Compiled Result;
  Result.Registry = std::make_unique<TaskRegistry>();
  registerAttentionTasks(*Result.Registry);
  Result.Mapping =
      std::make_unique<MappingSpec>(attentionMapping(Config));
  CompileInput Input{Result.Registry.get(), Result.Mapping.get(),
                     &MachineModel::h100(), attentionArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "fa");
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (Kernel)
    Result.Kernel = std::move(*Kernel);
  return Result;
}

/// Naive attention for one row of one head.
std::vector<float> referenceRow(const TensorData &Q, const TensorData &K,
                                const TensorData &V, int64_t HeadRow,
                                int64_t SeqLen, int64_t HeadDim,
                                int64_t Row) {
  std::vector<float> Scores(SeqLen);
  float Scale = 1.0f / std::sqrt(static_cast<float>(HeadDim));
  float Max = -3e38f;
  for (int64_t J = 0; J < SeqLen; ++J) {
    float Dot = 0.0f;
    for (int64_t D = 0; D < HeadDim; ++D)
      Dot += Q.at({HeadRow + Row, D}) * K.at({HeadRow + J, D});
    Scores[J] = Dot * Scale;
    Max = std::max(Max, Scores[J]);
  }
  float Denominator = 0.0f;
  for (int64_t J = 0; J < SeqLen; ++J) {
    Scores[J] = std::exp(Scores[J] - Max);
    Denominator += Scores[J];
  }
  std::vector<float> Out(HeadDim, 0.0f);
  for (int64_t J = 0; J < SeqLen; ++J)
    for (int64_t D = 0; D < HeadDim; ++D)
      Out[D] += Scores[J] / Denominator * V.at({HeadRow + J, D});
  return Out;
}

} // namespace

class AttentionVariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(AttentionVariantTest, FunctionalMatchesReference) {
  AttentionConfig Config = smallConfig(GetParam());
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr);

  TensorData O(attentionArgTypes(Config)[0]);
  TensorData Q(attentionArgTypes(Config)[1]);
  TensorData K(attentionArgTypes(Config)[2]);
  TensorData V(attentionArgTypes(Config)[3]);
  fillRandomFp16(Q.raw(), 101);
  fillRandomFp16(K.raw(), 102);
  fillRandomFp16(V.raw(), 103);

  ErrorOr<SimResult> Result = C.Kernel->runFunctional({&O, &Q, &K, &V});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_TRUE(Result->Races.empty());

  for (int64_t Head = 0; Head < Config.Heads; ++Head) {
    int64_t HeadRow = Head * Config.SeqLen;
    for (int64_t Row : {int64_t(0), int64_t(63), int64_t(64), int64_t(200),
                        Config.SeqLen - 1}) {
      std::vector<float> Ref = referenceRow(Q, K, V, HeadRow, Config.SeqLen,
                                            Config.HeadDim, Row);
      for (int64_t D = 0; D < Config.HeadDim; D += 7)
        EXPECT_NEAR(O.at({HeadRow + Row, D}), Ref[D], 2e-3)
            << "head " << Head << " row " << Row << " dim " << D;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fa2AndFa3, AttentionVariantTest,
                         ::testing::Values(false, true));

TEST(Attention, Fa2AndFa3ProduceIdenticalResults) {
  // Section 5.3: the FA3 restructuring is a pure scheduling change — the
  // staged copy must not alter any value.
  AttentionConfig Fa2 = smallConfig(false);
  AttentionConfig Fa3 = smallConfig(true);
  Compiled C2 = compileAttention(Fa2);
  Compiled C3 = compileAttention(Fa3);
  ASSERT_NE(C2.Kernel, nullptr);
  ASSERT_NE(C3.Kernel, nullptr);

  TensorData Q(attentionArgTypes(Fa2)[1]);
  TensorData K(attentionArgTypes(Fa2)[2]);
  TensorData V(attentionArgTypes(Fa2)[3]);
  fillRandomFp16(Q.raw(), 7);
  fillRandomFp16(K.raw(), 8);
  fillRandomFp16(V.raw(), 9);

  TensorData O2(attentionArgTypes(Fa2)[0]);
  TensorData O3(attentionArgTypes(Fa3)[0]);
  ASSERT_TRUE(C2.Kernel->runFunctional({&O2, &Q, &K, &V}));
  ASSERT_TRUE(C3.Kernel->runFunctional({&O3, &Q, &K, &V}));
  EXPECT_EQ(O2.maxAbsDiff(O3), 0.0);
}

TEST(Attention, QStagedIntoSharedOnce) {
  // The mapping places Q in shared memory: exactly one TMA load of the
  // 192x128 Q tile per block, outside the main loop.
  AttentionConfig Config = smallConfig(false);
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr);
  int QLoads = 0;
  walkOps(C.Kernel->module().root(), [&](const Operation &Op) {
    if (Op.Kind != OpKind::Copy || Op.Unit != ExecUnit::TMA)
      return;
    const IRTensor &Dst = C.Kernel->module().tensor(Op.CopyDst.Tensor);
    if (Dst.Mem == Memory::Shared &&
        Dst.Type.Dims == Shape({Config.BR, Config.HeadDim}) &&
        Dst.PipelineDepth == 1)
      ++QLoads;
  });
  EXPECT_EQ(QLoads, 1);
}

TEST(Attention, KvTilesArePipelined) {
  AttentionConfig Config = smallConfig(false);
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr);
  int PipelinedTiles = 0;
  for (const IRTensor &T : C.Kernel->module().tensors())
    if (T.Mem == Memory::Shared && T.PipelineDepth == Config.Pipe)
      ++PipelinedTiles;
  EXPECT_GE(PipelinedTiles, 2); // K tile and V tile.
}

TEST(Attention, SoftmaxOverlapsTensorCore) {
  // The online-softmax SIMT work must overlap matrix work: Tensor Core
  // occupancy should stay above 60% of the block schedule.
  AttentionConfig Config = fa2Config(4096);
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr);
  ErrorOr<SimResult> Result = C.Kernel->runTiming();
  ASSERT_TRUE(Result);
  EXPECT_GT(Result->TensorCoreBusyCycles, 0.6 * Result->BlockCycles);
  EXPECT_TRUE(Result->Races.empty());
}

TEST(Attention, ThroughputGrowsWithSequenceLength) {
  // Fixed overheads amortize with longer sequences (Figure 14's shape).
  double Last = 0.0;
  for (int64_t SeqLen : {2048, 4096, 8192}) {
    Compiled C = compileAttention(fa2Config(SeqLen));
    ASSERT_NE(C.Kernel, nullptr);
    ErrorOr<SimResult> Result = C.Kernel->runTiming();
    ASSERT_TRUE(Result);
    EXPECT_GT(Result->TFlops, Last);
    Last = Result->TFlops;
  }
}
