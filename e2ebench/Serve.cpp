//===- Serve.cpp - The serve workload: JIT clients on one shared session --===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two closed-loop clients share one default-config CompilerSession. Each
/// client waits for its reply before sending again, as a JIT caller blocks
/// on its kernel. 95% of requests repeat a Zipf(1.1)-popular set of 256
/// inputs, so the hit path (key serialization plus a locked lookup) sets
/// the median; 5% are inputs the session has never seen, so the pass
/// pipeline sets the p99 and the cache takes writes beside reads.
///
/// Novel inputs come from a pool of 2048. When a client finds the pool
/// used up, the clients pause at an epoch barrier; the session's cache is
/// cleared and the popular set compiled again (untimed), and the pool
/// starts over. The pause keeps the cache, and so memory, bounded while
/// every novel request is still a first compile for the session that
/// serves it. Only the time between barriers is measured.
///
/// Attention inputs keep the K and V pipeline depths equal. Some points
/// with unequal depths compile into kernels that race at paper sizes (see
/// NOTES.md, Findings); the benchmark's own tests keep that defect in view
/// through the --unequal-kv-depths hook.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <thread>
#include <unordered_set>

using namespace cypress;

namespace e2e {
namespace {

enum Family { Gemm, Batched, Dual, GemmRed, Fa2, Fa3, NumFamilies };

constexpr size_t PopularSize = 256;
constexpr size_t NovelPoolSize = 2048;
constexpr double NovelShare = 0.05;
constexpr double ZipfExponent = 1.1;
/// Two, not one per vCPU: on a 4-vCPU host shared with other tenants, a
/// neighbour that takes one core cut the throughput of 4 clients by 28%
/// and that of 2 clients by 10% (interleaved runs, one busy-loop process
/// as the neighbour).
constexpr unsigned Clients = 2;

/// Whether \p Point streams K and V through pipelines of one depth (a 0 on
/// PIPE_K or PIPE_V inherits PIPE).
bool equalKvDepths(AttentionConfig Config, const TuningPoint &Point) {
  for (const auto &[Axis, Value] : Point.values())
    (void)applyTunable(Config, Axis, Value);
  int64_t K = Config.PipeK ? Config.PipeK : Config.Pipe;
  int64_t V = Config.PipeV ? Config.PipeV : Config.Pipe;
  return K == V;
}

/// One registry per kernel family, shared by all of that family's inputs
/// (FA2 and FA3 register the same attention task tree).
struct Registries {
  TaskRegistry Gemm, Batched, Dual, GemmRed, Attention;
  Registries() {
    registerGemmTasks(Gemm);
    registerBatchedGemmTasks(Batched);
    registerDualGemmTasks(Dual);
    registerGemmRedTasks(GemmRed);
    registerAttentionTasks(Attention);
  }
};

/// Latency samples a client keeps per window (a uniform sample of its
/// requests; a window makes about 600 000 per client).
constexpr size_t LatencySamples = 1 << 16;

/// What one client saw in one window.
struct ClientLog {
  explicit ClientLog(uint64_t Seed) : LatencyUs(LatencySamples, Seed) {}

  Reservoir LatencyUs;
  std::vector<double> HitUs, MissUs; ///< Filled only when tracing.
  std::vector<PipelineStats> MissStats;
  uint64_t Requests = 0, Failed = 0, Novel = 0, Infeasible = 0;
  uint64_t RepeatedErrors = 0; ///< Sends of popular inputs that errored.
  size_t KeyBytes = 0;         ///< Keeps the traced cacheKey calls live.
};

class Serve : public Workload {
public:
  explicit Serve(const RunOptions &Options) : Options(Options) {}

  void buildInputs() override;
  void warmUp() override { warmEpoch(/*Canary=*/true); }
  Window run(double Seconds, Tracer &Spans) override;
  size_t threads() const override { return Clients; }
  double kernelTflops() const override { return geomean(PopularTflops); }
  double tailPercentile() const override { return 99.0; }
  void perLayer(const Tracer &Spans, MetricSet &Out) const override;

private:
  CompileCase generate(Family F, SplitMix64 &Rng,
                       std::unordered_set<std::string> &Seen) const;
  /// Compiles the popular set into the (empty) cache; records each input's
  /// first kernel, against which every repeat is checked.
  uint64_t warmEpoch(bool Canary);
  size_t drawPopular(SplitMix64 &Rng) const;
  void client(unsigned Id, ClientLog &Log, ThreadLog *Spans);
  /// Times every popular kernel once, after the window: serves
  /// kernel_tflops and the sim.* metrics. Each timing is an operation of
  /// \p Result; one that errors or finds a race is a failure.
  void timePopular(ThreadLog *Spans, Window &Result);

  RunOptions Options;
  std::unique_ptr<Registries> Regs;
  std::vector<CompileCase> Popular, Novel;
  std::vector<double> ZipfCdf;
  std::unique_ptr<CompilerSession> Session;
  std::vector<std::shared_ptr<const CompiledKernel>> First;
  std::vector<PipelineStats> CanaryStats;

  // Epoch barrier (see the file comment).
  std::atomic<size_t> NovelNext{0};
  std::atomic<bool> Pause{false};
  std::atomic<bool> CorruptPending{false};
  std::mutex EpochMutex;
  std::condition_variable EpochCv;
  unsigned Arrived = 0;
  uint64_t Epoch = 0;
  bool Stop = false;

  // Results of the last run(), for perLayer.
  std::vector<ClientLog> Logs;
  uint64_t WindowHits = 0, WindowMisses = 0;
  size_t MaxEntries = 0;
  std::vector<double> PopularTflops, TimingUs, BlockCycles, TcBusy, TmaBusy;
  uint64_t RacyKernels = 0;
};

CompileCase Serve::generate(Family F, SplitMix64 &Rng,
                            std::unordered_set<std::string> &Seen) const {
  const std::vector<int64_t> GemmSizes = {4096, 6144, 8192};
  const std::vector<int64_t> SeqLens = {2048, 4096, 8192, 16384};
  while (true) {
    CompileCase Case;
    if (F == Gemm) {
      GemmConfig Base;
      Base.M = pick(Rng, GemmSizes);
      Base.N = pick(Rng, GemmSizes);
      Base.K = pick(Rng, GemmSizes);
      KernelSearchSpec Spec = gemmSearchSpec(Base, gemmGuidedAxes());
      TuningPoint Point = drawFeasible(Spec, Rng);
      Case = makeCase(Spec, Point, Regs->Gemm,
                      formatString("gemm M=%lld N=%lld K=%lld ",
                                   static_cast<long long>(Base.M),
                                   static_cast<long long>(Base.N),
                                   static_cast<long long>(Base.K)) +
                          Point.str());
    } else if (F == Fa2 || F == Fa3) {
      int64_t Seq = pick(Rng, SeqLens);
      AttentionConfig Base = F == Fa2 ? fa2Config(Seq) : fa3Config(Seq);
      KernelSearchSpec Spec = attentionSearchSpec(Base, attentionGuidedAxes());
      TuningPoint Point = drawFeasible(Spec, Rng);
      if (!Options.UnequalKvDepths && !equalKvDepths(Base, Point))
        continue;
      Case = makeCase(Spec, Point, Regs->Attention,
                      formatString("%s SEQ=%lld ", F == Fa2 ? "fa2" : "fa3",
                                   static_cast<long long>(Seq)) +
                          Point.str());
    } else {
      // The paper mapping (128x256x64 tiles) at a seeded size that the
      // tiles divide.
      GemmConfig Config;
      Config.M = 256 * static_cast<int64_t>(8 + Rng.nextBelow(25));
      Config.N = 256 * static_cast<int64_t>(8 + Rng.nextBelow(25));
      Config.K = 256 * static_cast<int64_t>(8 + Rng.nextBelow(25));
      if (F == Batched)
        Config.L = 4;
      const char *Name = F == Batched ? "batched_gemm"
                         : F == Dual  ? "dual"
                                      : "gemmred";
      const TaskRegistry &Registry = F == Batched ? Regs->Batched
                                     : F == Dual  ? Regs->Dual
                                                  : Regs->GemmRed;
      Case.Label = formatString("%s M=%lld N=%lld K=%lld", Name,
                                static_cast<long long>(Config.M),
                                static_cast<long long>(Config.N),
                                static_cast<long long>(Config.K));
      Case.Name = Name;
      Case.Mapping = std::make_unique<MappingSpec>(
          F == Batched ? batchedGemmMapping(Config)
          : F == Dual  ? dualGemmMapping(Config)
                       : gemmRedMapping(Config));
      Case.Input.Registry = &Registry;
      Case.Input.Mapping = Case.Mapping.get();
      Case.Input.Machine = &MachineModel::h100();
      Case.Input.EntryArgTypes = F == Batched ? batchedGemmArgTypes(Config)
                                 : F == Dual  ? dualGemmArgTypes(Config)
                                              : gemmRedArgTypes(Config);
    }
    if (Seen.insert(Case.Label).second)
      return Case;
  }
}

void Serve::buildInputs() {
  Regs = std::make_unique<Registries>();
  SplitMix64 Rng(streamSeed(Options.Seed, 1));
  std::unordered_set<std::string> Seen;
  // Families are assigned by rank, so every seed's traffic has the same
  // family mix at every popularity; the seed picks sizes and mappings.
  for (size_t Rank = 0; Rank < PopularSize; ++Rank)
    Popular.push_back(generate(Family(Rank % NumFamilies), Rng, Seen));
  for (size_t I = 0; I < NovelPoolSize; ++I)
    Novel.push_back(generate(Family(I % NumFamilies), Rng, Seen));

  double Sum = 0.0;
  for (size_t Rank = 1; Rank <= PopularSize; ++Rank) {
    Sum += 1.0 / std::pow(static_cast<double>(Rank), ZipfExponent);
    ZipfCdf.push_back(Sum);
  }
  for (double &P : ZipfCdf)
    P /= Sum;
  Session = std::make_unique<CompilerSession>();
}

uint64_t Serve::warmEpoch(bool Canary) {
  std::vector<CompilerSession::Request> Requests;
  for (const CompileCase &Case : Popular)
    Requests.push_back({Case.Input, Case.Name, ""});
  auto Results = Session->compileAll(Requests);
  First.assign(Popular.size(), nullptr);
  uint64_t Failures = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (Results[I]) {
      First[I] = *Results[I];
      if (Canary)
        CanaryStats.push_back(First[I]->stats());
    } else if (isFailure(Results[I].diagnostic())) {
      ++Failures;
      reportFailure(Popular[I].Label, Results[I].diagnostic().str());
    }
  }
  SetupFailures += Canary ? Failures : 0;
  return Failures;
}

size_t Serve::drawPopular(SplitMix64 &Rng) const {
  double U = Rng.nextUnit();
  return static_cast<size_t>(
      std::lower_bound(ZipfCdf.begin(), ZipfCdf.end() - 1, U) -
      ZipfCdf.begin());
}

void Serve::client(unsigned Id, ClientLog &Log, ThreadLog *Spans) {
  SplitMix64 Rng(streamSeed(Options.Seed, 100 + Id));
  uint64_t Request = static_cast<uint64_t>(Id) << 40;
  while (true) {
    {
      ScopedSpan Window(Spans, "bench.window");
      while (!Pause.load(std::memory_order_relaxed)) {
        const CompileCase *Case = nullptr;
        size_t PopularIndex = 0;
        bool IsNovel = Rng.nextUnit() < NovelShare;
        if (IsNovel) {
          size_t I = NovelNext.fetch_add(1);
          if (I >= Novel.size()) {
            Pause.store(true);
            break;
          }
          Case = &Novel[I];
        } else {
          PopularIndex = drawPopular(Rng);
          Case = &Popular[PopularIndex];
        }
        ++Request;
        ScopedSpan Root(Spans, "bench.request", Request);
        if (Spans) {
          ScopedSpan Key(Spans, "session.cacheKey", Request);
          Log.KeyBytes += CompilerSession::cacheKey(Case->Input).size();
        }
        Clock::time_point Start = Clock::now();
        ErrorOr<std::shared_ptr<const CompiledKernel>> Kernel = [&] {
          ScopedSpan Compile(Spans, "session.compile", Request);
          return Session->compile(Case->Input, Case->Name);
        }();
        double Micros = microsSince(Start);
        Log.LatencyUs.add(Micros);
        ++Log.Requests;

        bool Failed = false;
        std::string Why;
        if (!Kernel) {
          if (isFailure(Kernel.diagnostic())) {
            Failed = true;
            Why = Kernel.diagnostic().str();
          } else {
            ++Log.Infeasible;
          }
          if (!IsNovel)
            ++Log.RepeatedErrors;
          if (!IsNovel && First[PopularIndex]) {
            Failed = true;
            Why = "a cached input now errors: " + Kernel.diagnostic().str();
          }
        } else if (!IsNovel) {
          const CompiledKernel *Want = First[PopularIndex].get();
          // Test hook; the relaxed load keeps the hit path free of a
          // contended read-modify-write.
          if (CorruptPending.load(std::memory_order_relaxed) &&
              CorruptPending.exchange(false))
            Want = nullptr;
          if (Kernel->get() != Want) {
            Failed = true;
            Why = "a repeated input returned a different kernel than its "
                  "first compile";
          }
        }
        if (IsNovel)
          ++Log.Novel;
        if (Failed) {
          ++Log.Failed;
          reportFailure(Case->Label, Why);
        }
        if (Spans && Kernel) {
          (IsNovel ? Log.MissUs : Log.HitUs).push_back(Micros);
          if (IsNovel)
            Log.MissStats.push_back((*Kernel)->stats());
        }
      }
    }
    std::unique_lock<std::mutex> Lock(EpochMutex);
    ++Arrived;
    EpochCv.notify_all();
    uint64_t Mine = Epoch;
    EpochCv.wait(Lock, [&] { return Stop || Epoch != Mine; });
    if (Stop)
      return;
  }
}

Window Serve::run(double Seconds, Tracer &Spans) {
  Logs.clear();
  for (unsigned Id = 0; Id < Clients; ++Id)
    Logs.emplace_back(streamSeed(Options.Seed, 200 + Id));
  WindowHits = WindowMisses = 0;
  MaxEntries = 0;
  CorruptPending = Options.InjectCorruption;
  Window Result;
  {
    std::lock_guard<std::mutex> Lock(EpochMutex);
    Arrived = 0;
    Stop = false;
  }
  // Start from the popular set alone: the previous window left novel
  // kernels in the cache, which would turn this window's novel sends into
  // hits.
  Session->clearCache();
  Result.Failed += warmEpoch(/*Canary=*/false);
  NovelNext = 0;
  Pause = false;

  std::vector<std::thread> Threads;
  SessionStats Before = Session->stats();
  Clock::time_point EpochStart = Clock::now();
  for (unsigned Id = 0; Id < Clients; ++Id)
    Threads.emplace_back(
        [this, Id, &Spans] { client(Id, Logs[Id], Spans.log(Id)); });

  while (true) {
    auto Deadline = EpochStart + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         Seconds - Result.WallSeconds));
    std::unique_lock<std::mutex> Lock(EpochMutex);
    if (!EpochCv.wait_until(Lock, Deadline,
                            [&] { return Arrived == Clients; })) {
      Pause = true;
      EpochCv.wait(Lock, [&] { return Arrived == Clients; });
    }
    Result.WallSeconds +=
        std::chrono::duration<double>(Clock::now() - EpochStart).count();
    SessionStats After = Session->stats();
    WindowHits += After.Hits - Before.Hits;
    WindowMisses += After.Misses - Before.Misses;
    MaxEntries = std::max(MaxEntries, Session->cachedKernels());
    if (Result.WallSeconds >= Seconds) {
      Stop = true;
      EpochCv.notify_all();
      break;
    }
    Lock.unlock();
    Session->clearCache();
    Result.Failed += warmEpoch(/*Canary=*/false);
    NovelNext = 0;
    Before = Session->stats();
    Lock.lock();
    Arrived = 0;
    Pause = false;
    ++Epoch;
    EpochStart = Clock::now();
    EpochCv.notify_all();
  }
  for (std::thread &T : Threads)
    T.join();

  for (const ClientLog &Log : Logs) {
    Result.Ops += Log.Requests;
    Result.Attempted += Log.Requests;
    Result.Failed += Log.Failed;
    Result.LatencyUs.insert(Result.LatencyUs.end(),
                            Log.LatencyUs.samples().begin(),
                            Log.LatencyUs.samples().end());
  }
  timePopular(Spans.log(0), Result);
  return Result;
}

void Serve::timePopular(ThreadLog *Spans, Window &Result) {
  PopularTflops.clear();
  RacyKernels = 0;
  TimingUs.clear();
  BlockCycles.clear();
  TcBusy.clear();
  TmaBusy.clear();
  ScopedSpan Window(Spans, "bench.window");
  for (size_t I = 0; I < First.size(); ++I) {
    if (!First[I])
      continue;
    Clock::time_point Start = Clock::now();
    ErrorOr<SimResult> Sim = [&] {
      ScopedSpan Timing(Spans, "sim.runTiming", I);
      return First[I]->runTiming();
    }();
    TimingUs.push_back(microsSince(Start));
    ++Result.Attempted;
    if (!Sim) {
      ++Result.Failed;
      reportFailure(Popular[I].Label, Sim.diagnostic().str());
      continue;
    }
    if (!Sim->Races.empty()) {
      ++RacyKernels;
      ++Result.Failed;
      reportFailure(Popular[I].Label, "race: " + Sim->Races.front());
    }
    PopularTflops.push_back(Sim->TFlops);
    BlockCycles.push_back(Sim->BlockCycles);
    TcBusy.push_back(Sim->TensorCoreBusyCycles / Sim->BlockCycles);
    TmaBusy.push_back(Sim->TmaBusyCycles / Sim->BlockCycles);
  }
}

void Serve::perLayer(const Tracer &Spans, MetricSet &Out) const {
  std::vector<double> Hit, Miss;
  std::vector<PipelineStats> MissStats;
  uint64_t Requests = 0, Novel = 0, Infeasible = 0, RepeatedErrors = 0;
  for (const ClientLog &Log : Logs) {
    Hit.insert(Hit.end(), Log.HitUs.begin(), Log.HitUs.end());
    Miss.insert(Miss.end(), Log.MissUs.begin(), Log.MissUs.end());
    MissStats.insert(MissStats.end(), Log.MissStats.begin(),
                     Log.MissStats.end());
    Requests += Log.Requests;
    Novel += Log.Novel;
    Infeasible += Log.Infeasible;
    RepeatedErrors += Log.RepeatedErrors;
  }
  double KeyUs = median(Spans.durations("session.cacheKey"));
  double HitUs = median(Hit);
  Out.add("session.key_us", KeyUs, "us");
  Out.add("session.hit_us", HitUs, "us");
  Out.add("session.lookup_us", HitUs - KeyUs, "us");
  Out.add("session.miss_us", median(Miss), "us");
  // Every novel send and every repeat of an erroring input must miss;
  // anything beyond that is a concurrent duplicate compile.
  Out.add("session.dup_compiles",
          static_cast<double>(WindowMisses) -
              static_cast<double>(Novel + RepeatedErrors),
          "count");
  Out.add("session.entries", static_cast<double>(MaxEntries), "count");
  Out.add("session.hit_ratio",
          WindowHits + WindowMisses
              ? static_cast<double>(WindowHits) / (WindowHits + WindowMisses)
              : 0.0,
          "ratio");
  Out.add("session.infeasible_ratio",
          Requests ? static_cast<double>(Infeasible) / Requests : 0.0,
          "ratio");
  addPassMetrics(MissStats, CanaryStats, Out);
  Out.add("sim.timing_us", median(TimingUs), "us");
  Out.add("sim.block_cycles", mean(BlockCycles), "cycles");
  Out.add("sim.tc_busy_frac", mean(TcBusy), "ratio");
  Out.add("sim.tma_busy_frac", mean(TmaBusy), "ratio");
  Out.add("sim.racy_kernels", static_cast<double>(RacyKernels), "count");
}

} // namespace

std::unique_ptr<Workload> makeServe(const RunOptions &Options) {
  return std::make_unique<Serve>(Options);
}

} // namespace e2e
