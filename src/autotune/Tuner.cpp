//===- Tuner.cpp - Mapping autotuner over compiler sessions ----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "autotune/Tuner.h"

#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <unordered_set>

using namespace cypress;

const char *cypress::candidateStatusName(CandidateStatus Status) {
  switch (Status) {
  case CandidateStatus::Pruned:
    return "pruned";
  case CandidateStatus::CompileError:
    return "compile-error";
  case CandidateStatus::SimError:
    return "sim-error";
  case CandidateStatus::Evaluated:
    return "ok";
  }
  cypressUnreachable("unknown candidate status");
}

Tuner::Tuner() : OwnedSession(std::make_unique<CompilerSession>()) {
  Session = OwnedSession.get();
}

Tuner::Tuner(CompilerSession &Session) : Session(&Session) {}

namespace {

/// The simulator parameters participate in evaluation identity: the same
/// kernel timed under a different machine calibration is a different cost.
/// Digested bit-exactly, once per tune.
Digest128 simDigest(const SimConfig &Sim) {
  ContentHasher H;
  for (double Param :
       {Sim.ClockGHz, Sim.TensorCoreFlopsPerCycle, Sim.TmaBytesPerCycle,
        Sim.SimtGlobalBytesPerCycle, Sim.SimtLocalBytesPerCycle,
        Sim.SimtFlopsPerCycle, Sim.GlobalLatency, Sim.TensorCoreLatency,
        Sim.SimtLatency}) {
    uint64_t Bits;
    std::memcpy(&Bits, &Param, sizeof(Bits));
    H.word(Bits);
  }
  return H.finish();
}

/// Content seed for the guided search's PRNG: the kernel name and the axis
/// grid. Pure function of the spec, so repeat runs (and runs in different
/// processes) draw the identical sample sequence.
uint64_t specSeed(const KernelSearchSpec &Spec) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Byte = [&H](uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  for (char C : Spec.KernelName)
    Byte(static_cast<uint8_t>(C));
  for (const TuningAxis &Axis : Spec.Axes) {
    Byte(0);
    for (char C : Axis.Name)
      Byte(static_cast<uint8_t>(C));
    for (int64_t Value : Axis.Values) {
      uint64_t V = static_cast<uint64_t>(Value);
      for (int I = 0; I < 8; ++I)
        Byte(static_cast<uint8_t>(V >> (I * 8)));
    }
  }
  return H;
}

/// Evaluated candidates by TFLOP/s descending, then errors, then pruned;
/// stable within ties and groups so the reported best is deterministic and
/// matches what a hand-written nested sweep taking the first strict
/// maximum would pick.
void rankLandscape(std::vector<CandidateResult> &Landscape) {
  auto ClassOf = [](const CandidateResult &Row) {
    switch (Row.Status) {
    case CandidateStatus::Evaluated:
      return 0;
    case CandidateStatus::CompileError:
    case CandidateStatus::SimError:
      return 1;
    case CandidateStatus::Pruned:
      return 2;
    }
    cypressUnreachable("unknown candidate status");
  };
  std::stable_sort(Landscape.begin(), Landscape.end(),
                   [&](const CandidateResult &A, const CandidateResult &B) {
                     int CA = ClassOf(A), CB = ClassOf(B);
                     if (CA != CB)
                       return CA < CB;
                     return CA == 0 && A.TFlops > B.TFlops;
                   });
}

} // namespace

size_t Tuner::costCacheSize() const {
  std::lock_guard<std::mutex> Lock(CostMutex);
  return CostCache.size();
}

void Tuner::clearCostCache() {
  std::lock_guard<std::mutex> Lock(CostMutex);
  CostCache.clear();
}

TaskRegistry &Tuner::registryFor(const KernelSearchSpec &Spec) {
  std::lock_guard<std::mutex> Lock(CostMutex);
  std::unique_ptr<TaskRegistry> &Slot = Registries[Spec.KernelName];
  if (!Slot) {
    Slot = std::make_unique<TaskRegistry>();
    Spec.Register(*Slot);
  }
  return *Slot;
}

std::vector<CandidateResult>
Tuner::evaluateBatch(const KernelSearchSpec &Spec, TaskRegistry &Registry,
                     const MachineModel &Machine, const SimConfig &Sim,
                     const Digest128 &SimKey,
                     std::vector<TuningPoint> Points,
                     const CompileOptions &Options, TuneStats &Stats) {
  std::vector<CandidateResult> Rows(Points.size());

  // The deque keeps pending candidates' mappings at stable addresses for
  // the CompileInput pointers handed to the session (argument types are
  // held by value in CompileInput).
  std::deque<MappingSpec> Mappings;
  struct PendingEval {
    size_t Row;
    Digest128 CostKey;
  };
  std::vector<PendingEval> Pending;
  std::vector<CompilerSession::Request> Requests;

  for (size_t P = 0; P < Points.size(); ++P) {
    CandidateResult &Row = Rows[P];
    Row.Point = std::move(Points[P]);

    Mappings.push_back(Spec.BuildMapping(Row.Point));
    CompileInput Input{&Registry, &Mappings.back(), &Machine,
                       Spec.BuildArgs(Row.Point)};
    Digest128 CostKey = ContentHasher()
                            .digest(CompilerSession::cacheKey(Input))
                            .digest(SimKey)
                            .finish();

    {
      std::lock_guard<std::mutex> Lock(CostMutex);
      auto It = CostCache.find(CostKey);
      // Self-healing replay: an evaluated entry carrying NaN throughput is
      // corrupt (only the cost-corrupt fault site can write one) — discard
      // it and re-evaluate rather than rank garbage.
      if (It != CostCache.end() &&
          It->second.Status == CandidateStatus::Evaluated &&
          std::isnan(It->second.TFlops)) {
        CostCache.erase(It);
        It = CostCache.end();
      }
      if (It != CostCache.end()) {
        const CachedEval &Eval = It->second;
        Row.Status = Eval.Status;
        Row.Detail = Eval.Detail;
        Row.TFlops = Eval.TFlops;
        Row.SharedBytes = Eval.SharedBytes;
        Row.Kernel = Eval.Kernel;
        Row.CompileMicros =
            Eval.Kernel ? Eval.Kernel->stats().TotalMicros : 0.0;
        Row.SimulateMicros = Eval.SimulateMicros;
        Row.CostCacheHit = true;
        ++Stats.CostCacheHits;
        continue;
      }
    }

    Pending.push_back({P, CostKey});
    Requests.push_back({std::move(Input), Spec.KernelName, {}});
  }

  // Compile and evaluate every fresh candidate through the session's
  // worker pool: the post-compile hook times each kernel on the simulator
  // right on the worker that compiled it, so candidate A's simulation
  // overlaps candidate B's pass pipeline. Evaluations land in positional
  // slots and are merged (and cost-cached) sequentially below, so the
  // resulting rows are identical to a sequential sweep at any worker
  // count. The per-request hit flags attribute kernel-cache effectiveness
  // to this batch exactly, immune to concurrent session clients and
  // duplicate keys within the batch.
  Stats.Compiled += Requests.size();
  std::vector<CachedEval> Evals(Requests.size());
  auto Evaluate =
      [&](size_t I,
          const ErrorOr<std::shared_ptr<const CompiledKernel>> &Compiled) {
        CachedEval &Eval = Evals[I];
        if (!Compiled) {
          Eval.Status = CandidateStatus::CompileError;
          Eval.Detail = Compiled.diagnostic().str();
          Eval.Transient = Compiled.diagnostic().isTransient();
          return;
        }
        Eval.Kernel = *Compiled;
        Eval.SharedBytes = Eval.Kernel->sharedPlan().TotalBytes;
        auto SimStart = std::chrono::steady_clock::now();
        Cancellation RunCancel(Options.DeadlineAt, Options.Cancel);
        ErrorOr<SimResult> Timing = Eval.Kernel->runTiming(
            Sim, nullptr, RunCancel.active() ? &RunCancel : nullptr);
        Eval.SimulateMicros = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - SimStart)
                                  .count();
        if (!Timing) {
          Eval.Status = CandidateStatus::SimError;
          Eval.Detail = Timing.diagnostic().str();
          Eval.Transient = Timing.diagnostic().isTransient();
        } else {
          Eval.Status = CandidateStatus::Evaluated;
          Eval.TFlops = Timing->TFlops;
        }
      };
  std::vector<uint8_t> Hits;
  Session->compileAll(Requests, &Hits, Evaluate, Options);
  size_t BatchHits = 0;
  for (uint8_t Hit : Hits)
    BatchHits += Hit ? 1 : 0;
  Stats.SessionHits += BatchHits;
  Stats.PipelinesRun += Requests.size() - BatchHits;

  for (size_t I = 0; I < Pending.size(); ++I) {
    CachedEval &Eval = Evals[I];
    CandidateResult &Row = Rows[Pending[I].Row];
    Row.Status = Eval.Status;
    Row.Detail = Eval.Detail;
    Row.TFlops = Eval.TFlops;
    Row.SharedBytes = Eval.SharedBytes;
    Row.Kernel = Eval.Kernel;
    Row.CompileMicros = Eval.Kernel ? Eval.Kernel->stats().TotalMicros : 0.0;
    Row.SimulateMicros = Eval.SimulateMicros;

    // Transient outcomes (deadline, cancellation, shedding, injected
    // worker faults) are quarantined: the row keeps its diagnostic, but
    // nothing is memoized — a later sweep must re-evaluate the point.
    if (Eval.Transient) {
      ++Stats.Quarantined;
      continue;
    }
    // Keyed on the point's content (not the uid-bearing cost key) so a
    // probabilistic clause corrupts the same candidates in every run.
    if (Eval.Status == CandidateStatus::Evaluated &&
        faultFires(FaultSite::CostCorrupt, Row.Point.str()))
      Eval.TFlops = std::numeric_limits<double>::quiet_NaN();
    std::lock_guard<std::mutex> Lock(CostMutex);
    CostCache.emplace(Pending[I].CostKey, std::move(Eval));
  }

  for (const CandidateResult &Row : Rows)
    Stats.CompileErrors +=
        Row.Status == CandidateStatus::CompileError ? 1 : 0;
  Stats.Evals += Rows.size();
  return Rows;
}

TuneResult Tuner::tune(const KernelSearchSpec &Spec,
                       const MachineModel &Machine, const SimConfig &Sim) {
  MappingSpace Space(Spec, Machine);

  TuneResult Result;
  Result.Stats.Candidates = Space.size();
  if (Space.size() > ExhaustiveCandidateCap) {
    // Refuse rather than materialize: like the simulator's event-slot
    // cap, a diagnostic beats an out-of-memory kill.
    Result.Error = formatString(
        "mapping space has %zu candidates, over the exhaustive sweep cap "
        "of %zu; search it with tuneBudgeted()",
        Space.size(), ExhaustiveCandidateCap);
    return Result;
  }

  // One registry per kernel family, shared across sweeps: tuning only
  // edits the mapping, never the logical description (Section 5.4), and a
  // stable registry identity is what makes candidate cache keys stable.
  TaskRegistry &Registry = registryFor(Spec);

  std::vector<TuningPoint> Feasible;
  std::vector<CandidateResult> PrunedRows;
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    if (Cand.feasible()) {
      Feasible.push_back(Cand.Point);
      continue;
    }
    CandidateResult Row;
    Row.Point = Cand.Point;
    Row.Status = CandidateStatus::Pruned;
    Row.Detail = Cand.Rejection->message();
    PrunedRows.push_back(std::move(Row));
  }
  Result.Stats.Pruned = PrunedRows.size();

  Result.Landscape =
      evaluateBatch(Spec, Registry, Machine, Sim, simDigest(Sim),
                    std::move(Feasible), CompileOptions(), Result.Stats);
  Result.Landscape.reserve(Space.size());
  for (CandidateResult &Row : PrunedRows)
    Result.Landscape.push_back(std::move(Row));

  Result.Stats.Session = Session->cacheStats();
  Result.Partial = Result.Stats.Quarantined > 0;
  rankLandscape(Result.Landscape);
  return Result;
}

TuneResult Tuner::tuneBudgeted(const KernelSearchSpec &Spec,
                               const MachineModel &Machine,
                               const TuneBudget &Budget,
                               const SimConfig &Sim) {
  const auto Start = std::chrono::steady_clock::now();
  auto ElapsedMs = [&Start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };

  MappingSpace Space(Spec, Machine);
  TaskRegistry &Registry = registryFor(Spec);
  const Digest128 SimKey = simDigest(Sim);

  TuneResult Result;
  Result.Stats.Candidates = Space.size();

  // The search-level cancellation surface: checked at round boundaries
  // here, and threaded through every compile and timing run as Options.
  Cancellation Stop(Budget.DeadlineAt, Budget.Cancel);
  CancelCheck StopCheck(Stop);
  CompileOptions Options{Budget.DeadlineAt, Budget.Cancel};

  // Already expired or cancelled on entry: nothing was searched, and
  // best-so-far is legitimately empty.
  if (StopCheck.enabled() && StopCheck.shouldStopNow()) {
    Result.Partial = true;
    Result.Stats.Session = Session->cacheStats();
    return Result;
  }

  auto BestTFlops = [&Result]() {
    double Best = 0.0;
    for (const CandidateResult &Row : Result.Landscape)
      if (Row.Status == CandidateStatus::Evaluated)
        Best = std::max(Best, Row.TFlops);
    return Best;
  };

  // Small space under a covering budget: brute force is affordable and
  // strictly better than sampling, so sweep it. (feasibleCount is a full
  // scan — only taken on spaces already known to be small.)
  if (Space.size() <= SmallSpaceThreshold &&
      (Budget.MaxEvals == 0 || Budget.MaxEvals >= Space.feasibleCount())) {
    std::vector<TuningPoint> Feasible;
    for (const MappingSpace::Candidate &Cand : Space.candidates())
      if (Cand.feasible())
        Feasible.push_back(Cand.Point);
    Result.Stats.Pruned = Space.prunedCount();
    Result.Landscape =
        evaluateBatch(Spec, Registry, Machine, Sim, SimKey,
                      std::move(Feasible), Options, Result.Stats);
    Result.Stats.Rounds = 1;
    rankLandscape(Result.Landscape);
    Result.Curve.push_back({Result.Stats.Evals, BestTFlops(), ElapsedMs()});
    Result.Stats.Session = Session->cacheStats();
    Result.Partial = Result.Stats.Quarantined > 0;
    return Result;
  }

  // -- Guided anytime search ---------------------------------------------
  //
  // Successive halving over shrinking batched rounds: round 0 is broad
  // uniform exploration, later rounds spend half their (halved) size on
  // single-axis mutations of the elite points and the rest on fresh
  // samples. Every draw happens on this thread between batches, so the
  // visit sequence is a pure function of the spec content.
  SplitMix64 Rng(specSeed(Spec));
  std::unordered_set<uint64_t> Visited;
  Visited.reserve(256);

  // How many consecutive flat indices the fallback scan may examine when
  // rejection sampling stalls (heavily-pruned or nearly-exhausted spaces).
  // Bounded so a 10^6-point space with no feasible points terminates in
  // one scan's worth of static checks, not a hang.
  constexpr size_t ScanCap = 1 << 16;

  // Samples up to Want fresh feasible points into Batch; marks everything
  // it touches visited and counts statically-rejected draws as pruned.
  auto SampleRandom = [&](std::vector<TuningPoint> &Batch, size_t Want) {
    size_t Found = 0;
    size_t Attempts = 0;
    const size_t MaxAttempts = 64 * Want + 256;
    auto Consider = [&](size_t Index) {
      MappingSpace::Candidate Cand = Space.candidateAt(Index);
      if (!Visited.insert(Cand.Point.fingerprint()).second)
        return;
      if (!Cand.feasible()) {
        ++Result.Stats.Pruned;
        return;
      }
      Batch.push_back(std::move(Cand.Point));
      ++Found;
    };
    while (Found < Want && Attempts < MaxAttempts) {
      ++Attempts;
      Consider(static_cast<size_t>(Rng.nextBelow(Space.size())));
    }
    if (Found < Want) {
      // Deterministic bounded sweep from a random start so progress never
      // depends on rejection-sampling luck.
      size_t Base = static_cast<size_t>(Rng.nextBelow(Space.size()));
      for (size_t Off = 0; Off < std::min(Space.size(), ScanCap) &&
                           Found < Want;
           ++Off)
        Consider((Base + Off) % Space.size());
    }
  };

  // Single-axis neighbours of the elite points, elite-major then
  // axis-major then +1/-1 — a fixed order, so the mutation set is as
  // deterministic as the uniform draws.
  auto CollectMutations = [&](std::vector<TuningPoint> &Batch, size_t Want) {
    std::vector<const CandidateResult *> Elites;
    for (const CandidateResult &Row : Result.Landscape)
      if (Row.Status == CandidateStatus::Evaluated)
        Elites.push_back(&Row);
    std::stable_sort(Elites.begin(), Elites.end(),
                     [](const CandidateResult *A, const CandidateResult *B) {
                       return A->TFlops > B->TFlops;
                     });
    if (Elites.size() > 4)
      Elites.resize(4);

    const std::vector<TuningAxis> &Axes = Space.axes();
    for (const CandidateResult *Elite : Elites) {
      for (size_t I = 0; I < Axes.size() && Batch.size() < Want; ++I) {
        const std::vector<int64_t> &Values = Axes[I].Values;
        int64_t Current = Elite->Point.values()[I].second;
        size_t Pos = 0;
        while (Pos < Values.size() && Values[Pos] != Current)
          ++Pos;
        for (int Step : {1, -1}) {
          if (Batch.size() >= Want)
            break;
          size_t Next = Pos + static_cast<size_t>(Step);
          if (Step < 0 && Pos == 0)
            continue;
          if (Next >= Values.size())
            continue;
          std::vector<std::pair<std::string, int64_t>> Assign =
              Elite->Point.values();
          Assign[I].second = Values[Next];
          TuningPoint Mutant(std::move(Assign));
          if (!Visited.insert(Mutant.fingerprint()).second)
            continue;
          if (Spec.Feasible) {
            if (ErrorOrVoid Verdict = Spec.Feasible(Mutant, Machine);
                !Verdict) {
              ++Result.Stats.Pruned;
              continue;
            }
          }
          Batch.push_back(std::move(Mutant));
        }
      }
    }
  };

  size_t RoundSize = Budget.MaxEvals > 0
                         ? std::max<size_t>(1, Budget.MaxEvals / 2)
                         : 64;
  const size_t MinRound = Budget.MaxEvals > 0 ? size_t(1) : size_t(8);

  while (true) {
    size_t Left = Budget.MaxEvals == 0
                      ? RoundSize
                      : (Budget.MaxEvals > Result.Stats.Evals
                             ? Budget.MaxEvals - Result.Stats.Evals
                             : 0);
    size_t Want = std::min(RoundSize, Left);
    if (Want == 0)
      break;
    // Anytime contract: always complete at least one round, so even a
    // tiny wall budget returns a best-effort candidate.
    if (Result.Stats.Rounds > 0 && Budget.WallClockMs > 0 &&
        ElapsedMs() >= Budget.WallClockMs)
      break;
    // Deadline / cancellation: return best-so-far, marked Partial.
    if (Result.Stats.Rounds > 0 && StopCheck.enabled() &&
        StopCheck.shouldStopNow()) {
      Result.Partial = true;
      break;
    }

    std::vector<TuningPoint> Batch;
    Batch.reserve(Want);
    if (Result.Stats.Rounds > 0)
      CollectMutations(Batch, (Want + 1) / 2);
    SampleRandom(Batch, Want - Batch.size());
    if (Batch.empty())
      break; // Space exhausted (or nothing feasible within reach).

    std::vector<CandidateResult> Rows =
        evaluateBatch(Spec, Registry, Machine, Sim, SimKey, std::move(Batch),
                      Options, Result.Stats);
    for (CandidateResult &Row : Rows)
      Result.Landscape.push_back(std::move(Row));

    ++Result.Stats.Rounds;
    Result.Curve.push_back({Result.Stats.Evals, BestTFlops(), ElapsedMs()});
    RoundSize = std::max(MinRound, RoundSize / 2);
  }

  Result.Stats.Session = Session->cacheStats();
  Result.Partial = Result.Partial || Result.Stats.Quarantined > 0;
  rankLandscape(Result.Landscape);
  return Result;
}
