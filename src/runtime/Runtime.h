//===- Runtime.h - Host-side compile-and-run API ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a compile produces: `CompiledKernel` bundles the lowered IR, the
/// shared-memory plan, the generated CUDA text, and simulation entry
/// points. Kernels come from a CompilerSession (runtime/Session.h) and are
/// immutable, so one kernel may be run from many threads at once.
///
/// Typical use (see examples/quickstart.cpp):
///
/// \code
///   TaskRegistry Registry;
///   registerGemmTasks(Registry);                  // or your own tasks
///   MappingSpec Mapping = gemmMapping(M, N, K);   // or your own mapping
///   CompilerSession Session;
///   auto Kernel = Session.compile({&Registry, &Mapping,
///                                  &MachineModel::h100(), ArgTypes},
///                                 "gemm");
///   SimResult R = *(*Kernel)->runTiming();        // paper-style TFLOP/s
///   (*Kernel)->runFunctional({&C, &A, &B});       // real results
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_RUNTIME_RUNTIME_H
#define CYPRESS_RUNTIME_RUNTIME_H

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "sim/Simulator.h"

#include <string>

namespace cypress {

/// A fully lowered kernel plus its execution entry points.
class CompiledKernel {
public:
  CompiledKernel(IRModule Module, SharedAllocation Alloc, std::string Name,
                 PipelineStats Stats = PipelineStats())
      : Module(std::move(Module)), Alloc(std::move(Alloc)),
        Name(std::move(Name)), Stats(std::move(Stats)) {}

  const IRModule &module() const { return Module; }
  const SharedAllocation &sharedPlan() const { return Alloc; }
  const std::string &name() const { return Name; }

  /// Per-pass timing and IR-size statistics of the compile that produced
  /// this kernel (empty for hand-assembled kernels).
  const PipelineStats &stats() const { return Stats; }

  /// Timing-only simulation (fast; used by the benchmarks and the
  /// autotuner's candidate evaluation). Thread-safe on a shared kernel.
  /// Passing \p Pool (e.g. a CompilerSession) shards this one kernel's
  /// expansion across its workers with bit-identical results; see
  /// simulate() for the nesting caveat. \p Cancel (when active) bounds
  /// the run with the simulator's cooperative checkpoints.
  ErrorOr<SimResult> runTiming(const SimConfig &Config = SimConfig(),
                               SimWorkerPool *Pool = nullptr,
                               const Cancellation *Cancel = nullptr) const {
    SimHints Hints = simHints();
    return simulate(Module, Alloc, Config, LeafRegistry::sharedBuiltins(), {},
                    Hints.NumOps ? &Hints : nullptr, Pool, Cancel);
  }

  /// Timing plus functional execution into \p EntryBuffers (one per entry
  /// argument, shapes matching the compile-time types). Leaf tasks resolve
  /// through \p Leaves: a caller with its own leaf implementations passes
  /// a registry that holds them and falls back to sharedBuiltins().
  ErrorOr<SimResult>
  runFunctional(const std::vector<TensorData *> &EntryBuffers,
                const LeafRegistry &Leaves =
                    LeafRegistry::sharedBuiltins()) const {
    SimHints Hints = simHints();
    return simulate(Module, Alloc, SimConfig(), Leaves, EntryBuffers,
                    Hints.NumOps ? &Hints : nullptr);
  }

  /// One CUDA emission: the generated text plus the printer's counters
  /// (tests cross-check the counters against the post-pipeline IR, and
  /// bench_emit reports them next to wall time).
  struct CudaEmission {
    std::string Source;
    CudaEmitStats Stats;
  };

  /// Emits the warp-specialized CUDA C++ for this kernel from the
  /// post-pipeline IR, with emission statistics.
  CudaEmission emitCuda() const {
    CudaEmission Emission;
    Emission.Source = emitCudaSource(Module, Alloc, Name, Emission.Stats);
    return Emission;
  }

  /// The generated warp-specialized CUDA C++ (structural artifact).
  std::string cudaSource() const { return emitCuda().Source; }

  /// The IR in the paper's textual form (Figures 8/9).
  std::string irDump() const { return printModule(Module); }

private:
  /// Simulator table pre-sizing from the final pass's IR statistics (zero
  /// when this kernel was hand-assembled without pipeline stats).
  SimHints simHints() const {
    SimHints Hints;
    if (!Stats.Passes.empty()) {
      Hints.NumOps = Stats.Passes.back().OpsAfter;
      Hints.NumEvents = Stats.Passes.back().EventsAfter;
    }
    return Hints;
  }

  IRModule Module;
  SharedAllocation Alloc;
  std::string Name;
  PipelineStats Stats;
};

} // namespace cypress

#endif // CYPRESS_RUNTIME_RUNTIME_H
