//===- Tune.cpp - The tune workload: cold budgeted mapping searches -------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequence of cold Tuner::tuneBudgeted calls, each on a fresh session
/// and tuner with a 64-evaluation budget, alternating between the guided
/// GEMM and the guided attention space around seeded paper-scale problem
/// sizes. Successive-halving rounds, the compileAll pool, cold pipelines
/// and runTiming do nearly all the work, so a session change that helps
/// compile() but hurts compileAll shows here and not in serve. Each session
/// runs its pool on two threads, the caller and one worker (see
/// SessionWorkers).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Format.h"

#include <algorithm>

using namespace cypress;

namespace e2e {
namespace {

constexpr size_t EvalBudget = 64;
constexpr size_t ProblemCount = 1024;
/// kernel_tflops and the count metrics cover the window's first calls, a
/// set the seed fixes, so they repeat exactly; a window always makes at
/// least this many calls.
constexpr size_t CanaryCalls = 32;
/// Untimed searches before the window (two per family): they start the
/// pools and size setup_s with enough work to be steady. Their problems
/// come from a fixed seed: the cost of a search depends on its problem,
/// so warming up on the run's first problems made setup_s vary about
/// twofold from seed to seed.
constexpr size_t WarmUpCalls = 4;
constexpr uint64_t WarmUpSeed = 0;
/// Threads of each session's compileAll pool, the caller included. A pool
/// as wide as a 4-vCPU host stalls at every round barrier whenever another
/// tenant takes a core: measured interleaved on such a host, 4 threads gave
/// a run-to-run spread of evals/s 2.6 times that of 2 threads.
constexpr unsigned SessionWorkers = 2;

struct Problem {
  bool Attention = false;
  GemmConfig Gemm;
  AttentionConfig Attn;
  std::string Label;

  KernelSearchSpec spec() const {
    return Attention ? attentionSearchSpec(Attn, attentionGuidedAxes())
                     : gemmSearchSpec(Gemm, gemmGuidedAxes());
  }
};

/// Per-call effort and outcome, kept for the per-layer metrics.
struct CallLog {
  TuneStats Stats;
  size_t Evaluated = 0;
  double WallUs = 0.0;
  double WorkUs = 0.0; ///< Sum of the rows' compile and simulate time.
  size_t Parallelism = 1;
  std::vector<double> RoundMs;
  std::vector<double> SimulateUs;
  std::vector<PipelineStats> Compiles;
  SimResult Recheck;
};

class Tune : public Workload {
public:
  explicit Tune(const RunOptions &Options) : Options(Options) {}

  void buildInputs() override;
  void warmUp() override;
  Window run(double Seconds, Tracer &Spans) override;
  double kernelTflops() const override { return geomean(BestTflops); }
  void perLayer(const Tracer &Spans, MetricSet &Out) const override;

private:
  /// One cold search; returns false when it failed.
  bool call(const Problem &P, uint64_t Id, ThreadLog *Spans, CallLog &Log,
            bool Corrupt);
  /// A landscape row keeps a compile error's text but not its code, so the
  /// point is compiled again (outside the timed call) to learn whether the
  /// error is a failure (any code but Infeasible) or a correct verdict.
  /// Returns why it is a failure, or "" when it is not.
  std::string recheckCompileError(const Problem &P,
                                  const KernelSearchSpec &Spec,
                                  const CandidateResult &Row,
                                  CompilerSession &Session, uint64_t Id,
                                  ThreadLog *Spans) const;

  RunOptions Options;
  TaskRegistry GemmRegistry, AttentionRegistry;
  std::vector<Problem> Problems;
  std::vector<CallLog> Calls;
  std::vector<double> BestTflops;
};

/// \p Count problems, alternating GEMM and attention, at sizes drawn from
/// \p Seed.
std::vector<Problem> makeProblems(uint64_t Seed, size_t Count) {
  SplitMix64 Rng(streamSeed(Seed, 2));
  const std::vector<int64_t> GemmSizes = {4096, 6144, 8192};
  const std::vector<int64_t> SeqLens = {2048, 4096, 8192, 16384};
  std::vector<Problem> Problems;
  for (size_t I = 0; I < Count; ++I) {
    Problem P;
    P.Attention = I % 2 == 1;
    if (P.Attention) {
      int64_t Seq = pick(Rng, SeqLens);
      bool Fa3 = Rng.nextBelow(2) == 1;
      P.Attn = Fa3 ? fa3Config(Seq) : fa2Config(Seq);
      P.Label = formatString("tune %s SEQ=%lld", Fa3 ? "fa3" : "fa2",
                             static_cast<long long>(Seq));
    } else {
      P.Gemm.M = pick(Rng, GemmSizes);
      P.Gemm.N = pick(Rng, GemmSizes);
      P.Gemm.K = pick(Rng, GemmSizes);
      P.Label = formatString("tune gemm M=%lld N=%lld K=%lld",
                             static_cast<long long>(P.Gemm.M),
                             static_cast<long long>(P.Gemm.N),
                             static_cast<long long>(P.Gemm.K));
    }
    Problems.push_back(std::move(P));
  }
  return Problems;
}

void Tune::buildInputs() {
  registerGemmTasks(GemmRegistry);
  registerAttentionTasks(AttentionRegistry);
  Problems = makeProblems(Options.Seed, ProblemCount);
}

void Tune::warmUp() {
  std::vector<Problem> WarmUps = makeProblems(WarmUpSeed, WarmUpCalls);
  for (size_t I = 0; I < WarmUps.size(); ++I) {
    CallLog Log;
    if (!call(WarmUps[I], I, nullptr, Log, false))
      ++SetupFailures;
  }
}

bool Tune::call(const Problem &P, uint64_t Id, ThreadLog *Spans,
                CallLog &Log, bool Corrupt) {
  ScopedSpan Root(Spans, "bench.tune", Id);
  KernelSearchSpec Spec = [&] {
    ScopedSpan Build(Spans, "autotune.searchSpec", Id);
    return P.spec();
  }();
  std::unique_ptr<CompilerSession> Session;
  std::unique_ptr<Tuner> Search;
  {
    ScopedSpan Create(Spans, "session.create", Id);
    SessionConfig Config;
    Config.Workers = SessionWorkers;
    Session = std::make_unique<CompilerSession>(Config);
    Search = std::make_unique<Tuner>(*Session);
  }
  TuneBudget Budget;
  Budget.MaxEvals = EvalBudget;
  Clock::time_point Start = Clock::now();
  TuneResult Result = [&] {
    ScopedSpan Tuning(Spans, "tuner.tuneBudgeted", Id);
    return Search->tuneBudgeted(Spec, MachineModel::h100(), Budget);
  }();
  Log.WallUs = microsSince(Start);
  Log.Stats = Result.Stats;
  Log.Parallelism = Session->parallelism();
  double Previous = 0.0;
  for (const TuneResult::CurvePoint &Point : Result.Curve) {
    Log.RoundMs.push_back(Point.ElapsedMs - Previous);
    Previous = Point.ElapsedMs;
  }

  bool Ok = true;
  auto Fail = [&](const std::string &Why) {
    reportFailure(P.Label, Why);
    Ok = false;
  };
  for (const CandidateResult &Row : Result.Landscape) {
    Log.WorkUs += Row.CompileMicros + Row.SimulateMicros;
    if (Row.Status == CandidateStatus::SimError)
      Fail("candidate " + Row.Point.str() + " failed to simulate: " +
           Row.Detail);
    if (Row.Status == CandidateStatus::CompileError) {
      std::string Why = recheckCompileError(P, Spec, Row, *Session, Id, Spans);
      if (!Why.empty())
        Fail(Why);
    }
    if (Row.Status != CandidateStatus::Evaluated)
      continue;
    ++Log.Evaluated;
    if (Row.CostCacheHit)
      continue;
    Log.SimulateUs.push_back(Row.SimulateMicros);
    // Kept only when tracing: the copies would otherwise add to the peak
    // RSS in proportion to the tuner's speed.
    if (Spans && Row.Kernel)
      Log.Compiles.push_back(Row.Kernel->stats());
  }
  if (Result.Partial)
    Fail(formatString("search ended partial (%zu quarantined)",
                      Result.Stats.Quarantined));

  // The output check: the best candidate, timed again, must give the
  // TFLOP/s the search reported for it.
  const CandidateResult *Best = Result.best();
  if (!Best) {
    Fail("no candidate was evaluated");
  } else {
    ErrorOr<SimResult> Again = [&] {
      ScopedSpan Timing(Spans, "sim.runTiming", Id);
      return Best->Kernel->runTiming();
    }();
    double Reported = Best->TFlops + (Corrupt ? 1.0 : 0.0);
    if (!Again)
      Fail("re-timing the best candidate failed: " +
           Again.diagnostic().str());
    else if (!Again->Races.empty())
      Fail("best candidate " + Best->Point.str() +
           " races: " + Again->Races.front());
    else if (Again->TFlops != Reported)
      Fail(formatString("best candidate %s re-timed at %.17g TFLOP/s but "
                        "reported %.17g",
                        Best->Point.str().c_str(), Again->TFlops, Reported));
    else
      Log.Recheck = *Again;
    if (Id < CanaryCalls)
      BestTflops.push_back(Best->TFlops);
  }
  {
    ScopedSpan Destroy(Spans, "session.destroy", Id);
    Search.reset();
    Session.reset();
  }
  return Ok;
}

std::string Tune::recheckCompileError(const Problem &P,
                                      const KernelSearchSpec &Spec,
                                      const CandidateResult &Row,
                                      CompilerSession &Session, uint64_t Id,
                                      ThreadLog *Spans) const {
  CompileCase Case =
      makeCase(Spec, Row.Point,
               P.Attention ? AttentionRegistry : GemmRegistry, P.Label);
  ErrorOr<std::shared_ptr<const CompiledKernel>> Again = [&] {
    ScopedSpan Compile(Spans, "session.compile", Id);
    return Session.compile(Case.Input, Case.Name);
  }();
  if (Again)
    return "candidate " + Row.Point.str() +
           " compiled on a second try after: " + Row.Detail;
  if (isFailure(Again.diagnostic()))
    return "candidate " + Row.Point.str() +
           " failed to compile: " + Again.diagnostic().str();
  return "";
}

Window Tune::run(double Seconds, Tracer &Spans) {
  ThreadLog *Log = Spans.log(0);
  Calls.clear();
  BestTflops.clear();
  Window Result;
  ScopedSpan WindowSpan(Log, "bench.window");
  Clock::time_point Start = Clock::now();
  for (size_t I = 0;
       I < CanaryCalls ||
       std::chrono::duration<double>(Clock::now() - Start).count() < Seconds;
       ++I) {
    Calls.emplace_back();
    bool Ok = call(Problems[I % Problems.size()], I, Log, Calls.back(),
                   Options.InjectCorruption && I == 0);
    ++Result.Attempted;
    Result.Failed += Ok ? 0 : 1;
    Result.Ops += Calls.back().Stats.Evals;
    Result.LatencyUs.push_back(Calls.back().WallUs);
  }
  Result.WallSeconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  return Result;
}

void Tune::perLayer(const Tracer &, MetricSet &Out) const {
  std::vector<PipelineStats> Timed, Canary;
  std::vector<double> SimulateUs, RoundMs, Cycles, TcBusy, TmaBusy, Entries;
  double Work = 0.0, Capacity = 0.0;
  size_t Compiled = 0, SessionHits = 0, Evals = 0, CompileErrors = 0;
  TuneStats Counts;
  size_t Evaluated = 0;
  for (size_t I = 0; I < Calls.size(); ++I) {
    const CallLog &Call = Calls[I];
    Timed.insert(Timed.end(), Call.Compiles.begin(), Call.Compiles.end());
    SimulateUs.insert(SimulateUs.end(), Call.SimulateUs.begin(),
                      Call.SimulateUs.end());
    RoundMs.insert(RoundMs.end(), Call.RoundMs.begin(), Call.RoundMs.end());
    Work += Call.WorkUs;
    Capacity += Call.WallUs * static_cast<double>(Call.Parallelism);
    Compiled += Call.Stats.Compiled;
    SessionHits += Call.Stats.SessionHits;
    Evals += Call.Stats.Evals;
    CompileErrors += Call.Stats.CompileErrors;
    Entries.push_back(static_cast<double>(Call.Stats.Session.Entries));
    if (I >= CanaryCalls)
      continue;
    Canary.insert(Canary.end(), Call.Compiles.begin(), Call.Compiles.end());
    Counts.Rounds += Call.Stats.Rounds;
    Counts.PipelinesRun += Call.Stats.PipelinesRun;
    Counts.Pruned += Call.Stats.Pruned;
    Counts.CostCacheHits += Call.Stats.CostCacheHits;
    Counts.Quarantined += Call.Stats.Quarantined;
    Counts.CompileErrors += Call.Stats.CompileErrors;
    Counts.Evals += Call.Stats.Evals;
    Evaluated += Call.Evaluated;
    if (Call.Recheck.BlockCycles > 0.0) {
      Cycles.push_back(Call.Recheck.BlockCycles);
      TcBusy.push_back(Call.Recheck.TensorCoreBusyCycles /
                       Call.Recheck.BlockCycles);
      TmaBusy.push_back(Call.Recheck.TmaBusyCycles /
                        Call.Recheck.BlockCycles);
    }
  }
  Out.add("session.entries", mean(Entries), "count");
  Out.add("session.hit_ratio",
          Compiled ? static_cast<double>(SessionHits) / Compiled : 0.0,
          "ratio");
  Out.add("session.infeasible_ratio",
          Evals ? static_cast<double>(CompileErrors) / Evals : 0.0, "ratio");
  addPassMetrics(Timed, Canary, Out);
  Out.add("sim.timing_us", mean(SimulateUs), "us");
  Out.add("sim.block_cycles", mean(Cycles), "cycles");
  Out.add("sim.tc_busy_frac", mean(TcBusy), "ratio");
  Out.add("sim.tma_busy_frac", mean(TmaBusy), "ratio");
  Out.add("tuner.rounds", static_cast<double>(Counts.Rounds), "count");
  Out.add("tuner.pipelines_run", static_cast<double>(Counts.PipelinesRun),
          "count");
  Out.add("tuner.pruned", static_cast<double>(Counts.Pruned), "count");
  Out.add("tuner.cost_cache_hits", static_cast<double>(Counts.CostCacheHits),
          "count");
  Out.add("tuner.quarantined", static_cast<double>(Counts.Quarantined),
          "count");
  Out.add("tuner.compile_errors", static_cast<double>(Counts.CompileErrors),
          "count");
  Out.add("tuner.ok_eval_ratio",
          Counts.Evals ? static_cast<double>(Evaluated) / Counts.Evals : 0.0,
          "ratio");
  Out.add("tuner.round_ms", mean(RoundMs), "ms");
  Out.add("tuner.pool_busy_frac", Capacity > 0.0 ? Work / Capacity : 0.0,
          "ratio");
}

} // namespace

std::unique_ptr<Workload> makeTune(const RunOptions &Options) {
  return std::make_unique<Tune>(Options);
}

} // namespace e2e
