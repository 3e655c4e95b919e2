//===- TestKernels.h - Shared kernel builders and inputs for tests ---------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile helpers, canonical configurations, seeded input builders,
/// and tensor comparison utilities shared by the suites that exercise the
/// six pinned kernels (SimulatorParityTest, CudaEmitterTest,
/// BackendExecTest). One home for the seeds and configs means a
/// differential suite and a golden suite can never silently drift onto
/// different inputs.
///
/// Deliberately gtest-free so non-test drivers can reuse it; helpers
/// report failure through Compiled::Error / return strings instead of
/// asserting.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_TESTS_TESTKERNELS_H
#define CYPRESS_TESTS_TESTKERNELS_H

#include "autotune/KernelSpaces.h"
#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cypress {
namespace testkernels {

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

/// A compiled kernel plus the registry/mapping it borrows from (the kernel
/// holds pointers into both, so they must outlive it).
struct Compiled {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::shared_ptr<const CompiledKernel> Kernel;
  std::string Error; ///< Non-empty when compilation failed (Kernel null).
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
  // A fresh registry never hits a cache, so a private session is enough.
  CompilerSession Session;
  ErrorOr<std::shared_ptr<const CompiledKernel>> Kernel =
      Session.compile(Input, Name);
  if (Kernel)
    Result.Kernel = std::move(*Kernel);
  else
    Result.Error = Kernel.diagnostic().message();
  return Result;
}

inline Compiled compileGemm(const GemmConfig &Config) {
  return compile(
      "gemm", registerGemmTasks, [&] { return gemmMapping(Config); },
      gemmArgTypes(Config));
}

inline Compiled compileBatchedGemm(const GemmConfig &Config) {
  return compile(
      "batched_gemm", registerBatchedGemmTasks,
      [&] { return batchedGemmMapping(Config); },
      batchedGemmArgTypes(Config));
}

inline Compiled compileDualGemm(const GemmConfig &Config) {
  return compile(
      "dual", registerDualGemmTasks,
      [&] { return dualGemmMapping(Config); }, dualGemmArgTypes(Config));
}

inline Compiled compileGemmRed(const GemmConfig &Config) {
  return compile(
      "gemmred", registerGemmRedTasks,
      [&] { return gemmRedMapping(Config); }, gemmRedArgTypes(Config));
}

inline Compiled compileAttention(const AttentionConfig &Config) {
  return compile(
      "fa", registerAttentionTasks,
      [&] { return attentionMapping(Config); }, attentionArgTypes(Config));
}

//===----------------------------------------------------------------------===//
// Canonical configurations
//===----------------------------------------------------------------------===//

/// The paper's headline shape (4096^3, default tiles). Timing/golden scale;
/// far too large for scalar functional execution.
inline GemmConfig headlineGemmConfig() { return GemmConfig(); }

/// The functional-scale GEMM shape every functional suite uses
/// (256x512x128: multiple blocks, two K steps, both warpgroups exercised).
inline GemmConfig smallGemmConfig() {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  return Config;
}

/// Functional-scale attention (two heads, short sequence, 64-row KV steps)
/// as pinned by SimulatorParity.FunctionalAttentionDeterministic.
inline AttentionConfig smallAttentionConfig(bool StageScores = false) {
  AttentionConfig Config = StageScores ? fa3Config(384) : fa2Config(384);
  Config.Heads = 2;
  Config.BC = 64;
  return Config;
}

//===----------------------------------------------------------------------===//
// Seeded guided-space compile points
//===----------------------------------------------------------------------===//

/// One statically feasible point of a guided tuner space, with the compile
/// input's parts it owns (the registry is shared by its family's points).
struct GuidedCompilePoint {
  std::string Label; ///< "<family> <point>", e.g. "fa3 BR=128 BC=64 ...".
  std::shared_ptr<const TaskRegistry> Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  CompileInput input() const {
    return {Registry.get(), &Mapping, &MachineModel::h100(), Args};
  }
};

/// 24 seeded points the compiler accepts: 8 of the guided GEMM space at
/// 1024^3, then 8 each of the guided FA2 and FA3 spaces at SEQ 2048. The
/// draws cycle through the mapping features the default mappings never
/// reach: GEMM points alternate between SIMT-pinned operand copies
/// (TMA_A or TMA_B = 0), a shared-memory cap (SMEM != 0), and any point;
/// attention points alternate between unequal effective K/V pipeline
/// depths and a shared-memory cap. Points the pipeline rejects are
/// skipped (the draw continues), so every point yields a full pipeline.
inline std::vector<GuidedCompilePoint> seededGuidedCompilePoints() {
  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 1024;
  struct Family {
    const char *Name;
    KernelSearchSpec Spec;
  } Families[] = {
      {"gemm", gemmSearchSpec(Gemm, gemmGuidedAxes())},
      {"fa2", attentionSearchSpec(fa2Config(2048), attentionGuidedAxes())},
      {"fa3", attentionSearchSpec(fa3Config(2048), attentionGuidedAxes())}};
  const MachineModel &H100 = MachineModel::h100();
  SplitMix64 Rng(0xc0de5eedULL);
  std::vector<GuidedCompilePoint> Points;
  for (Family &F : Families) {
    MappingSpace Space(F.Spec, H100);
    auto Registry = std::make_shared<TaskRegistry>();
    F.Spec.Register(*Registry);
    bool Attention = F.Spec.KernelName == "fa";
    size_t Taken = 0;
    while (Taken < 8) {
      MappingSpace::Candidate Cand =
          Space.candidateAt(Rng.nextBelow(Space.size()));
      if (!Cand.feasible())
        continue;
      const TuningPoint &P = Cand.Point;
      bool Wanted;
      if (Attention) {
        // 0 on a per-stream depth axis inherits PIPE.
        int64_t Pipe = P.at("PIPE");
        int64_t K = P.at("PIPE_K"), V = P.at("PIPE_V");
        Wanted = Taken % 2 == 0 ? (K ? K : Pipe) != (V ? V : Pipe)
                                : P.at("SMEM") != 0;
      } else {
        Wanted = Taken % 3 == 0   ? P.at("TMA_A") == 0 || P.at("TMA_B") == 0
                 : Taken % 3 == 1 ? P.at("SMEM") != 0
                                  : true;
      }
      if (!Wanted)
        continue;
      GuidedCompilePoint Point{std::string(F.Name) + " " + P.str(), Registry,
                               F.Spec.BuildMapping(P), F.Spec.BuildArgs(P)};
      if (!compileToIR(Point.input()))
        continue;
      Points.push_back(std::move(Point));
      ++Taken;
    }
  }
  return Points;
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// Entry-argument buffers for one kernel run: outputs zeroed, inputs
/// filled deterministically from per-argument seeds.
struct KernelBuffers {
  std::vector<TensorData> Data;

  /// Pointer view in entry-argument order, as runFunctional/runCpuLowered
  /// take it.
  std::vector<TensorData *> ptrs() {
    std::vector<TensorData *> Result;
    for (TensorData &D : Data)
      Result.push_back(&D);
    return Result;
  }
};

/// Builds one buffer per type; argument I is filled from Seeds[I] when
/// nonzero (zero marks an output, left zero-initialized).
inline KernelBuffers makeBuffers(const std::vector<TensorType> &Types,
                                 const std::vector<uint64_t> &Seeds) {
  KernelBuffers Buffers;
  for (size_t I = 0; I < Types.size(); ++I) {
    Buffers.Data.emplace_back(Types[I]);
    if (I < Seeds.size() && Seeds[I] != 0)
      fillRandomFp16(Buffers.Data.back().raw(), Seeds[I]);
  }
  return Buffers;
}

/// The established per-family seeds (same values the pre-existing
/// functional tests pinned): changing them invalidates recorded
/// expectations, so new suites must reuse these helpers.
inline KernelBuffers gemmInputs(const GemmConfig &Config) {
  return makeBuffers(gemmArgTypes(Config), {0, 11, 22}); // C, A, B
}
inline KernelBuffers batchedGemmInputs(const GemmConfig &Config) {
  return makeBuffers(batchedGemmArgTypes(Config), {0, 31, 32});
}
inline KernelBuffers dualGemmInputs(const GemmConfig &Config) {
  return makeBuffers(dualGemmArgTypes(Config), {0, 41, 42, 43});
}
inline KernelBuffers gemmRedInputs(const GemmConfig &Config) {
  return makeBuffers(gemmRedArgTypes(Config), {0, 51, 52, 0}); // C,A,B,Y
}
inline KernelBuffers attentionInputs(const AttentionConfig &Config) {
  return makeBuffers(attentionArgTypes(Config), {0, 101, 102, 103});
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

/// Units-in-the-last-place distance between two finite floats (INT64_MAX
/// when either is NaN). The standard bit-reinterpretation trick: map the
/// sign-magnitude float ordering onto a monotone integer ordering.
inline int64_t ulpDistance(float A, float B) {
  if (std::isnan(A) || std::isnan(B))
    return INT64_MAX;
  int32_t IA, IB;
  std::memcpy(&IA, &A, sizeof(float));
  std::memcpy(&IB, &B, sizeof(float));
  if (IA < 0)
    IA = std::numeric_limits<int32_t>::min() - IA;
  if (IB < 0)
    IB = std::numeric_limits<int32_t>::min() - IB;
  return std::llabs(static_cast<int64_t>(IA) - static_cast<int64_t>(IB));
}

/// Element-wise comparison of two same-shaped tensors: equal when every
/// element pair is within \p MaxUlps units-in-the-last-place OR within
/// \p AbsTol absolutely (the absolute escape hatch covers near-zero values
/// where ULPs are meaninglessly tight). Returns "" on success, else a
/// description of the first and worst mismatches.
inline std::string compareTensors(const TensorData &Got,
                                  const TensorData &Want, int64_t MaxUlps,
                                  float AbsTol) {
  if (!(Got.shape() == Want.shape()))
    return "shape mismatch: " + Got.shape().toString() + " vs " +
           Want.shape().toString();
  int64_t FirstBad = -1, WorstIdx = -1, Mismatches = 0;
  int64_t WorstUlps = -1;
  for (int64_t I = 0, E = Got.shape().numElements(); I < E; ++I) {
    float G = Got.at(I), W = Want.at(I);
    if (std::fabs(G - W) <= AbsTol)
      continue;
    int64_t Ulps = ulpDistance(G, W);
    if (Ulps <= MaxUlps)
      continue;
    ++Mismatches;
    if (FirstBad < 0)
      FirstBad = I;
    if (Ulps > WorstUlps) {
      WorstUlps = Ulps;
      WorstIdx = I;
    }
  }
  if (Mismatches == 0)
    return "";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%lld mismatched elements; first at %lld (%.9g vs %.9g), "
                "worst at %lld (%.9g vs %.9g, %lld ulps)",
                static_cast<long long>(Mismatches),
                static_cast<long long>(FirstBad),
                static_cast<double>(Got.at(FirstBad)),
                static_cast<double>(Want.at(FirstBad)),
                static_cast<long long>(WorstIdx),
                static_cast<double>(Got.at(WorstIdx)),
                static_cast<double>(Want.at(WorstIdx)),
                static_cast<long long>(WorstUlps));
  return Buf;
}

} // namespace testkernels
} // namespace cypress

#endif // CYPRESS_TESTS_TESTKERNELS_H
