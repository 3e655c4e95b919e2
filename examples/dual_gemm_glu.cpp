//===- dual_gemm_glu.cpp - Fused Dual-GEMM for Gated Linear Units ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Gated Linear Unit workload that motivates Figure 13c: a transformer
/// layer computes A.B1 and A.B2 over the same activations; fusing the two
/// products into one kernel halves the activation traffic and keeps the
/// temporaries out of global memory. This example compiles the fused
/// Dual-GEMM, validates it functionally, and contrasts the simulated
/// throughput with running two separate GEMMs.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <cstdio>

using namespace cypress;

int main() {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;

  TaskRegistry Registry;
  registerDualGemmTasks(Registry);
  MappingSpec Mapping = dualGemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     dualGemmArgTypes(Config)};
  CompilerSession Session;
  auto Fused = Session.compile(Input, "dual_gemm");
  if (!Fused) {
    std::fprintf(stderr, "compile error: %s\n",
                 Fused.diagnostic().message().c_str());
    return 1;
  }

  TensorData C(dualGemmArgTypes(Config)[0]);
  TensorData A(dualGemmArgTypes(Config)[1]);
  TensorData B1(dualGemmArgTypes(Config)[2]);
  TensorData B2(dualGemmArgTypes(Config)[3]);
  fillRandomFp16(A.raw(), 7);
  fillRandomFp16(B1.raw(), 8);
  fillRandomFp16(B2.raw(), 9);

  ErrorOr<SimResult> Result = (*Fused)->runFunctional({&C, &A, &B1, &B2});
  if (!Result) {
    std::fprintf(stderr, "run error: %s\n",
                 Result.diagnostic().message().c_str());
    return 1;
  }

  float Want = 0.0f;
  for (int64_t K = 0; K < Config.K; ++K)
    Want += A.at({10, K}) * (B1.at({K, 20}) + B2.at({K, 20}));
  std::printf("fused C[10][20] = %f (reference %f)\n", C.at({10, 20}), Want);

  // Throughput comparison at a realistic size: fused Dual-GEMM vs two
  // separate GEMM launches of the same total work.
  GemmConfig Big;
  Big.M = Big.N = Big.K = 4096;
  TaskRegistry BigRegistry;
  registerDualGemmTasks(BigRegistry);
  registerGemmTasks(BigRegistry);
  MappingSpec DualMap = dualGemmMapping(Big);
  CompileInput DualIn{&BigRegistry, &DualMap, &MachineModel::h100(),
                      dualGemmArgTypes(Big)};
  MappingSpec GemmMap = gemmMapping(Big);
  CompileInput GemmIn{&BigRegistry, &GemmMap, &MachineModel::h100(),
                      gemmArgTypes(Big)};
  auto FusedBig = Session.compile(DualIn, "dual_big");
  auto Plain = Session.compile(GemmIn, "gemm_big");
  if (FusedBig && Plain) {
    SimConfig Sim;
    double FusedSec = (*FusedBig)->runTiming(Sim)->TotalSeconds;
    double TwoPassSec = 2.0 * (*Plain)->runTiming(Sim)->TotalSeconds;
    std::printf("4096^3 GLU core: fused %.0f us vs two GEMM passes %.0f us "
                "(%.2fx)\n",
                FusedSec * 1e6, TwoPassSec * 1e6, TwoPassSec / FusedSec);
  }
  return 0;
}
