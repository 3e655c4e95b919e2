//===- Workloads.h - The e2ebench workloads and their shared inputs -------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the end-to-end benchmark (serve, tune, verify),
/// the seeded generator they share, and the interface main.cpp drives them
/// through. Every input is derived from the run's seed; the library sees
/// only the generated registries, mappings and argument types, and is
/// called through its public entry points alone.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_E2EBENCH_WORKLOADS_H
#define CYPRESS_E2EBENCH_WORKLOADS_H

#include "Harness.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace e2e {

/// Command-line settings of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Test hook: corrupt one checked output so the check must count it.
  bool InjectCorruption = false;
  /// Test hook: let serve draw attention points whose K and V pipeline
  /// depths differ, some of which the compiler turns into racy kernels
  /// (NOTES.md, Findings).
  bool UnequalKvDepths = false;
};

/// What one measured window did. Ops is the workload's unit of work
/// (serve: compile requests; tune: candidate evaluations; verify: points);
/// LatencyUs holds one sample per caller-visible call (serve: compile();
/// tune: tuneBudgeted(); verify: one point from compile to comparison).
struct Window {
  double WallSeconds = 0.0;
  uint64_t Ops = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> LatencyUs;
};

/// One workload. main.cpp builds it (buildInputs, then warmUp) several
/// times to time set-up, then measures windows on the last instance.
class Workload {
public:
  virtual ~Workload() = default;

  /// Registries, seeded inputs, sessions: everything before warm-up.
  virtual void buildInputs() = 0;
  /// First calls that fill caches and pools before anything is timed.
  virtual void warmUp() = 0;
  /// Measures one window of at least \p Seconds. Spans go to \p Spans
  /// (one log per benchmark thread; inert when tracing is off).
  virtual Window run(double Seconds, Tracer &Spans) = 0;
  /// Benchmark threads that record spans.
  virtual size_t threads() const { return 1; }
  /// Kernel quality of this workload's output (see NOTES.md), in TFLOP/s.
  virtual double kernelTflops() const = 0;
  /// The percentile tail_us reports (serve: 99; tune and verify: 90).
  virtual double tailPercentile() const { return 90.0; }
  /// Per-layer metrics of the last run() (the traced window).
  virtual void perLayer(const Tracer &Spans, MetricSet &Out) const = 0;
  /// Failures seen during buildInputs/warmUp (counted against the run).
  uint64_t setupFailures() const { return SetupFailures; }

protected:
  /// Lists a failing input with its reason on stderr, once per distinct
  /// (input, reason); the input stays in the traffic. Thread-safe.
  void reportFailure(const std::string &Input, const std::string &Why);
  uint64_t SetupFailures = 0;

private:
  std::mutex ReportMutex;
  std::set<std::string> Reported;
};

std::unique_ptr<Workload> makeServe(const RunOptions &Options);
std::unique_ptr<Workload> makeTune(const RunOptions &Options);
std::unique_ptr<Workload> makeVerify(const RunOptions &Options);

//===----------------------------------------------------------------------===//
// Shared generation helpers
//===----------------------------------------------------------------------===//

/// A generated compile request: the mapping it owns plus the CompileInput
/// that points at it (and at a registry owned elsewhere).
struct CompileCase {
  std::string Label; ///< Human-readable input, for failure listings.
  std::string Name;  ///< Kernel name passed to compile().
  std::unique_ptr<cypress::MappingSpec> Mapping;
  cypress::CompileInput Input;
};

/// Builds the case for \p Point of \p Spec against \p Registry.
CompileCase makeCase(const cypress::KernelSearchSpec &Spec,
                     const cypress::TuningPoint &Point,
                     const cypress::TaskRegistry &Registry,
                     std::string Label);

/// Draws a uniformly random point of \p Spec's space that passes the
/// spec's static feasibility check on the H100 model.
cypress::TuningPoint drawFeasible(const cypress::KernelSearchSpec &Spec,
                                  cypress::SplitMix64 &Rng);

/// A well-mixed seed for stream \p Stream of run seed \p Seed.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream);

/// A uniformly chosen element of \p Values.
int64_t pick(cypress::SplitMix64 &Rng, const std::vector<int64_t> &Values);

/// True when \p Diag is a failure: any code but Infeasible (an Infeasible
/// answer is a correct verdict on the input, not a failure).
bool isFailure(const cypress::Diagnostic &Diag);

/// Adds the pass.* metrics: mean wall time per pass, of verification and
/// of the whole pipeline over the \p Timed compiles, and the IR-size
/// canaries summed over \p Canary (a set of compiles fixed by the seed).
void addPassMetrics(const std::vector<cypress::PipelineStats> &Timed,
                    const std::vector<cypress::PipelineStats> &Canary,
                    MetricSet &Out);

/// The seven pipeline passes, in order (metric names derive from these).
const std::vector<std::string> &passNames();

} // namespace e2e

#endif // CYPRESS_E2EBENCH_WORKLOADS_H
