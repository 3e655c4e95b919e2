//===- BaselinesTest.cpp - Comparator model tests ------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sanity checks on the baseline performance models (docs/DESIGN.md's
/// substitution table): physical plausibility, the documented behavioural
/// orderings (expert > Triton, persistent kernels help at small sizes),
/// and the end-to-end headline ratios of the paper's abstract, asserted as
/// hard test conditions so a regression in the compiler or simulator that
/// destroys a paper result fails the suite.
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <memory>

using namespace cypress;

namespace {

double cypressGemmTFlops(const GemmConfig &Config) {
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "gemm");
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (!Kernel)
    return 0.0;
  return (*Kernel)->runTiming()->TFlops;
}

} // namespace

TEST(Baselines, AllModelsBelowPeak) {
  SimConfig Sim;
  double Peak = Sim.TensorCoreFlopsPerCycle * Sim.NumSMs * Sim.ClockGHz *
                1e9 / 1e12;
  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 8192;
  EXPECT_LT(cublasGemm(Gemm, Sim).TFlops, Peak);
  EXPECT_LT(tritonGemm(Gemm, Sim).TFlops, Peak);
  EXPECT_LT(tritonDualGemm(Gemm, Sim).TFlops, Peak);
  EXPECT_LT(tritonGemmRed(Gemm, Sim).TFlops, Peak);
  AttentionConfig Attn = fa2Config(8192);
  EXPECT_LT(tritonAttention(Attn, Sim).TFlops, Peak);
  for (AttentionOracle Which :
       {AttentionOracle::CuDnn, AttentionOracle::ThunderKittens,
        AttentionOracle::FlashAttention3})
    EXPECT_LT(expertAttention(Attn, Sim, Which).TFlops, Peak);
}

TEST(Baselines, ExpertBeatsTritonEverywhere) {
  SimConfig Sim;
  for (int64_t Size : {4096, 8192}) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = Size;
    EXPECT_GT(cublasGemm(Config, Sim).TFlops,
              tritonGemm(Config, Sim).TFlops);
  }
  AttentionConfig Attn = fa2Config(8192);
  EXPECT_GT(
      expertAttention(Attn, Sim, AttentionOracle::ThunderKittens).TFlops,
      tritonAttention(Attn, Sim).TFlops);
}

TEST(Baselines, PersistentKernelHelpsAtPartialWaves) {
  // FA3-ref's persistent kernel avoids wave quantization; at a sequence
  // length whose block count does not divide the SM count it must gain
  // relative to a non-persistent oracle with the same inefficiency.
  SimConfig Sim;
  AttentionConfig Attn = fa3Config(4096); // 12 * 32 = 384 blocks: 2.9 waves.
  double Fa3 = expertAttention(Attn, Sim,
                               AttentionOracle::FlashAttention3).TFlops;
  double Cudnn = expertAttention(Attn, Sim, AttentionOracle::CuDnn).TFlops;
  EXPECT_GT(Fa3, Cudnn);
}

//===----------------------------------------------------------------------===//
// Paper headline ratios as regression gates
//===----------------------------------------------------------------------===//

TEST(PaperResults, GemmVsCublasInBand) {
  SimConfig Sim;
  for (int64_t Size : {4096, 6144, 8192}) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = Size;
    double Ratio =
        cypressGemmTFlops(Config) / cublasGemm(Config, Sim).TFlops;
    EXPECT_GE(Ratio, 0.88) << "size " << Size;
    EXPECT_LE(Ratio, 1.06) << "size " << Size;
  }
}

TEST(PaperResults, GemmVsTritonInBand) {
  SimConfig Sim;
  for (int64_t Size : {4096, 6144, 8192}) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = Size;
    double Ratio =
        cypressGemmTFlops(Config) / tritonGemm(Config, Sim).TFlops;
    EXPECT_GE(Ratio, 1.05) << "size " << Size;
    EXPECT_LE(Ratio, 1.11) << "size " << Size;
  }
}

TEST(PaperResults, DualGemmVsTritonInBand) {
  SimConfig Sim;
  GemmConfig Config;
  Config.M = Config.N = Config.K = 8192;
  TaskRegistry Registry;
  registerDualGemmTasks(Registry);
  MappingSpec Mapping = dualGemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     dualGemmArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "dual");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  double Ratio = (*Kernel)->runTiming()->TFlops /
                 tritonDualGemm(Config, Sim).TFlops;
  EXPECT_GE(Ratio, 1.30);
  EXPECT_LE(Ratio, 1.45);
}

TEST(PaperResults, GemmRedVsTritonInBand) {
  SimConfig Sim;
  GemmConfig Config;
  Config.M = Config.N = Config.K = 8192;
  TaskRegistry Registry;
  registerGemmRedTasks(Registry);
  MappingSpec Mapping = gemmRedMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmRedArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "gemmred");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  double Ratio =
      (*Kernel)->runTiming()->TFlops / tritonGemmRed(Config, Sim).TFlops;
  EXPECT_GE(Ratio, 1.95);
  EXPECT_LE(Ratio, 2.25);
}

TEST(PaperResults, AttentionVsBestInBand) {
  SimConfig Sim;
  for (int64_t SeqLen : {2048, 4096, 8192, 16384}) {
    AttentionConfig Config = fa3Config(SeqLen);
    TaskRegistry Registry;
    registerAttentionTasks(Registry);
    MappingSpec Mapping = attentionMapping(Config);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                       attentionArgTypes(Config)};
    CompilerSession Session;
    auto Kernel = Session.compile(Input, "fa3");
    ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
    double Best =
        expertAttention(Config, Sim, AttentionOracle::FlashAttention3)
            .TFlops;
    double Ratio = (*Kernel)->runTiming()->TFlops / Best;
    EXPECT_GE(Ratio, 0.80) << "seqlen " << SeqLen;
    EXPECT_LE(Ratio, 0.98) << "seqlen " << SeqLen;
  }
}

TEST(PaperResults, AttentionBeatsTriton) {
  SimConfig Sim;
  for (int64_t SeqLen : {4096, 16384}) {
    AttentionConfig Config = fa2Config(SeqLen);
    TaskRegistry Registry;
    registerAttentionTasks(Registry);
    MappingSpec Mapping = attentionMapping(Config);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                       attentionArgTypes(Config)};
    CompilerSession Session;
    auto Kernel = Session.compile(Input, "fa2");
    ASSERT_TRUE(Kernel);
    EXPECT_GT((*Kernel)->runTiming()->TFlops,
              tritonAttention(Config, Sim).TFlops)
        << "seqlen " << SeqLen;
  }
}
