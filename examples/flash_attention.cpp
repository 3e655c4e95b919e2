//===- flash_attention.cpp - Forward attention on the simulated H100 ---------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the Cypress Flash Attention 2 program for a small problem,
/// validates it against a naive softmax(Q.K^T).V reference, and compares
/// the FA2 and FA3 main-loop structures at a benchmark size (the Section
/// 5.3 experiment in miniature).
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <cmath>
#include <cstdio>
#include <vector>

using namespace cypress;

namespace {

/// Naive reference attention for one head.
void referenceAttention(const TensorData &Q, const TensorData &K,
                        const TensorData &V, int64_t HeadRow, int64_t SeqLen,
                        int64_t HeadDim, int64_t Row, std::vector<float> &Out) {
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
  float Denom = 0.0f;
  for (int64_t J = 0; J < SeqLen; ++J) {
    Scores[J] = std::exp(Scores[J] - Max);
    Denom += Scores[J];
  }
  Out.assign(HeadDim, 0.0f);
  for (int64_t J = 0; J < SeqLen; ++J)
    for (int64_t D = 0; D < HeadDim; ++D)
      Out[D] += Scores[J] / Denom * V.at({HeadRow + J, D});
}

} // namespace

int main() {
  AttentionConfig Config = fa2Config(/*SeqLen=*/384);
  Config.Heads = 2;

  TaskRegistry Registry;
  registerAttentionTasks(Registry);
  MappingSpec Mapping = attentionMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     attentionArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "fa2");
  if (!Kernel) {
    std::fprintf(stderr, "compile error: %s\n",
                 Kernel.diagnostic().message().c_str());
    return 1;
  }

  TensorData O(attentionArgTypes(Config)[0]);
  TensorData Q(attentionArgTypes(Config)[1]);
  TensorData K(attentionArgTypes(Config)[2]);
  TensorData V(attentionArgTypes(Config)[3]);
  fillRandomFp16(Q.raw(), 1);
  fillRandomFp16(K.raw(), 2);
  fillRandomFp16(V.raw(), 3);

  ErrorOr<SimResult> Result = (*Kernel)->runFunctional({&O, &Q, &K, &V});
  if (!Result) {
    std::fprintf(stderr, "run error: %s\n",
                 Result.diagnostic().message().c_str());
    return 1;
  }

  // Validate a row of head 1 against the reference.
  std::vector<float> Ref;
  int64_t HeadRow = Config.SeqLen; // Head 1 starts after head 0's rows.
  referenceAttention(Q, K, V, HeadRow, Config.SeqLen, Config.HeadDim,
                     /*Row=*/17, Ref);
  double MaxDiff = 0.0;
  for (int64_t D = 0; D < Config.HeadDim; ++D)
    MaxDiff = std::max(MaxDiff,
                       std::fabs(O.at({HeadRow + 17, D}) - double(Ref[D])));
  std::printf("max |cypress - reference| on one row: %.5f\n", MaxDiff);

  // FA2 vs FA3 at a benchmark size (timing only).
  SimConfig Sim;
  for (bool Staged : {false, true}) {
    AttentionConfig Big = Staged ? fa3Config(8192) : fa2Config(8192);
    TaskRegistry BigRegistry;
    registerAttentionTasks(BigRegistry);
    MappingSpec BigMapping = attentionMapping(Big);
    CompileInput BigInput{&BigRegistry, &BigMapping, &MachineModel::h100(),
                          attentionArgTypes(Big)};
    auto BigKernel = Session.compile(BigInput, Staged ? "fa3" : "fa2");
    if (BigKernel)
      std::printf("SeqLen 8192 %s: %.0f TFLOP/s\n",
                  Staged ? "FA3 (staged scores)" : "FA2",
                  (*BigKernel)->runTiming(Sim)->TFlops);
  }
  return 0;
}
