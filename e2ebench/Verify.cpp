//===- Verify.cpp - The verify workload: mappings must not change results -===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread works through seeded feasible points of the guided GEMM and
/// attention spaces. Each point is shrunk to the smallest problem it
/// allows, compiled, emitted, run through both executors (runFunctional and
/// runCpuLowered), and both outputs are compared with a naive host
/// reference. The executors do nearly all the work; the session hit path
/// barely runs. runFunctional runs the timing model before the functional
/// one, so a traced window also times runTiming of each point on its own
/// and the functional.* metrics leave that time out.
///
/// The points are stratified so every seed does the same amount of work:
/// a pass visits 18 fixed tile shapes (all nine GEMM U x V tiles, all nine
/// attention BR x BC tiles), and the seed draws every other mapping axis
/// of each point (pipeline depths, warpgroups, copy engines, shared-memory
/// caps, FA2 or FA3). A window runs whole passes, each on a fresh session
/// with fresh points, so its rate does not depend on where it stops.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "backend/CpuLowering.h"
#include "support/Format.h"

#include "TestKernels.h"

#include <cmath>
#include <numeric>

using namespace cypress;

namespace e2e {
namespace {

/// Tolerances the test suites use: GemmTest and AttentionTest compare
/// against naive references within these absolute bounds, BackendExecTest
/// compares the two executors within 4 ulps or 1e-5.
constexpr float GemmAbsTol = 0.25f;
constexpr float AttentionAbsTol = 2e-3f;
constexpr int64_t ExecutorMaxUlps = 4;
constexpr float ExecutorAbsTol = 1e-5f;

/// Passes generated at set-up; a longer window reuses them with fresh
/// sessions.
constexpr size_t PassCount = 8;
/// The smallest head dimension the attention tiles accept (one 16-wide
/// WGMMA K step).
constexpr int64_t MinHeadDim = 16;

struct GemmTile {
  int64_t U, V, W;
};
/// Every U x V pair of the guided space once, with a K tile from the
/// guided values that keeps each shrunk problem near 2^20 FLOP, so no
/// tile shape dominates a pass; together they use every W value.
constexpr GemmTile GemmTiles[] = {{64, 64, 128},  {64, 128, 64},
                                  {64, 256, 32},  {128, 64, 64},
                                  {128, 128, 32}, {128, 256, 16},
                                  {256, 64, 32},  {256, 128, 16},
                                  {256, 256, 16}};

struct Point {
  CompileCase Case;
  bool Attention = false;
  GemmConfig Gemm;
  AttentionConfig Attn;
  uint64_t DataSeed = 0;

  double flops() const {
    return Attention ? attentionFlops(Attn) : gemmFlops(Gemm);
  }
};

/// Restricts \p Axes to the single value \p Value on axis \p Name.
void pin(std::vector<TuningAxis> &Axes, const char *Name, int64_t Value) {
  for (TuningAxis &Axis : Axes)
    if (Axis.Name == Name)
      Axis.Values = {Value};
}

/// Naive host references, on the FP16-quantized inputs, accumulating in
/// FP32 (the formulations GemmTest and AttentionTest check against).
TensorData referenceGemm(const TensorData &A, const TensorData &B,
                         const TensorType &OutType) {
  TensorData C(OutType);
  int64_t M = C.shape().dim(0), N = C.shape().dim(1), K = A.shape().dim(1);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += A.at(I * K + KK) * B.at(KK * N + J);
      C.set(I * N + J, Acc);
    }
  return C;
}

TensorData referenceAttention(const TensorData &Q, const TensorData &K,
                              const TensorData &V, const TensorType &OutType,
                              int64_t SeqLen) {
  TensorData O(OutType);
  int64_t Rows = O.shape().dim(0), D = O.shape().dim(1);
  float Scale = 1.0f / std::sqrt(static_cast<float>(D));
  std::vector<float> Scores(static_cast<size_t>(SeqLen));
  std::vector<float> Out(static_cast<size_t>(D));
  for (int64_t Row = 0; Row < Rows; ++Row) {
    int64_t Head = Row / SeqLen * SeqLen;
    float Max = -3e38f;
    for (int64_t J = 0; J < SeqLen; ++J) {
      float Dot = 0.0f;
      for (int64_t C = 0; C < D; ++C)
        Dot += Q.at(Row * D + C) * K.at((Head + J) * D + C);
      Scores[J] = Dot * Scale;
      Max = std::max(Max, Scores[J]);
    }
    float Denominator = 0.0f;
    for (float &S : Scores) {
      S = std::exp(S - Max);
      Denominator += S;
    }
    std::fill(Out.begin(), Out.end(), 0.0f);
    for (int64_t J = 0; J < SeqLen; ++J)
      for (int64_t C = 0; C < D; ++C)
        Out[C] += Scores[J] / Denominator * V.at((Head + J) * D + C);
    for (int64_t C = 0; C < D; ++C)
      O.set(Row * D + C, Out[C]);
  }
  return O;
}

class Verify : public Workload {
public:
  explicit Verify(const RunOptions &Options) : Options(Options) {}

  void buildInputs() override;
  void warmUp() override;
  Window run(double Seconds, Tracer &Spans) override;
  double kernelTflops() const override { return geomean(Tflops); }
  void perLayer(const Tracer &Spans, MetricSet &Out) const override;

private:
  std::vector<Point> makePass(uint64_t Stream) const;
  /// Verifies one point; returns false when it failed.
  bool check(const Point &P, CompilerSession &Session, uint64_t Id,
             ThreadLog *Spans, bool Canary, bool Corrupt);

  RunOptions Options;
  TaskRegistry GemmRegistry, AttentionRegistry;
  std::vector<std::vector<Point>> Passes;

  // Results of the last run(), for perLayer.
  std::vector<double> Tflops, CompileUs, TimingUs;
  std::vector<PipelineStats> Timed, Canary;
  std::vector<SimResult> CanarySims;
  double VerifiedFlops = 0.0; ///< Work each executor did.
  double CanaryInstances = 0.0, CanaryStalls = 0.0, CanaryEmitBytes = 0.0;
  uint64_t Points = 0, Infeasible = 0;
  size_t Entries = 0;
  size_t KeyBytes = 0; ///< Keeps the traced cacheKey calls live.
};

std::vector<Point> Verify::makePass(uint64_t Stream) const {
  SplitMix64 Rng(streamSeed(Options.Seed, Stream));
  std::vector<Point> Pass;
  for (const GemmTile &Tile : GemmTiles) {
    std::vector<TuningAxis> Axes = gemmGuidedAxes();
    pin(Axes, "U", Tile.U);
    pin(Axes, "V", Tile.V);
    pin(Axes, "W", Tile.W);
    GemmConfig Base;
    Base.M = Tile.U;
    Base.N = Tile.V;
    Base.K = Tile.W;
    KernelSearchSpec Spec = gemmSearchSpec(Base, std::move(Axes));
    TuningPoint Choice = drawFeasible(Spec, Rng);
    Point P;
    P.Gemm = Base;
    for (const auto &[Axis, Value] : Choice.values())
      (void)applyTunable(P.Gemm, Axis, Value);
    P.Case = makeCase(Spec, Choice, GemmRegistry,
                      formatString("verify gemm M=%lld N=%lld K=%lld ",
                                   static_cast<long long>(Base.M),
                                   static_cast<long long>(Base.N),
                                   static_cast<long long>(Base.K)) +
                          Choice.str());
    P.DataSeed = Rng.next();
    Pass.push_back(std::move(P));
  }
  for (int64_t BR : {128, 192, 256})
    for (int64_t BC : {32, 64, 128}) {
      std::vector<TuningAxis> Axes = attentionGuidedAxes();
      pin(Axes, "BR", BR);
      pin(Axes, "BC", BC);
      bool Fa3 = Rng.nextBelow(2) == 1;
      // The shortest sequence both tiles divide, so no query block
      // straddles two heads; one head of one batch.
      int64_t Seq = std::lcm(BR, BC);
      AttentionConfig Base = Fa3 ? fa3Config(Seq) : fa2Config(Seq);
      Base.Heads = 1;
      Base.HeadDim = MinHeadDim;
      KernelSearchSpec Spec = attentionSearchSpec(Base, std::move(Axes));
      TuningPoint Choice = drawFeasible(Spec, Rng);
      Point P;
      P.Attention = true;
      P.Attn = Base;
      for (const auto &[Axis, Value] : Choice.values())
        (void)applyTunable(P.Attn, Axis, Value);
      P.Case = makeCase(Spec, Choice, AttentionRegistry,
                        formatString("verify %s SEQ=%lld D=%lld ",
                                     Fa3 ? "fa3" : "fa2",
                                     static_cast<long long>(Seq),
                                     static_cast<long long>(MinHeadDim)) +
                            Choice.str());
      P.DataSeed = Rng.next();
      Pass.push_back(std::move(P));
    }
  return Pass;
}

void Verify::buildInputs() {
  registerGemmTasks(GemmRegistry);
  registerAttentionTasks(AttentionRegistry);
  for (size_t I = 0; I < PassCount; ++I)
    Passes.push_back(makePass(1000 + I));
}

void Verify::warmUp() {
  // The cheapest point of each family fills the executors' pools.
  CompilerSession Session;
  for (const Point &P : {std::cref(Passes[0][0]), std::cref(Passes[0][9])})
    if (!check(P, Session, 0, nullptr, false, false))
      ++SetupFailures;
}

bool Verify::check(const Point &P, CompilerSession &Session, uint64_t Id,
                   ThreadLog *Spans, bool IsCanary, bool Corrupt) {
  ScopedSpan Root(Spans, "bench.point", Id);
  const CompileInput &Input = P.Case.Input;
  if (Spans) {
    ScopedSpan Key(Spans, "session.cacheKey", Id);
    KeyBytes += CompilerSession::cacheKey(Input).size();
  }
  Clock::time_point Start = Clock::now();
  ErrorOr<std::shared_ptr<const CompiledKernel>> Kernel = [&] {
    ScopedSpan Compile(Spans, "session.compile", Id);
    return Session.compile(Input, P.Case.Name);
  }();
  CompileUs.push_back(microsSince(Start));
  if (!Kernel) {
    if (!isFailure(Kernel.diagnostic())) {
      ++Infeasible;
      return true;
    }
    reportFailure(P.Case.Label, Kernel.diagnostic().str());
    return false;
  }
  const CompiledKernel &K = **Kernel;
  Timed.push_back(K.stats());
  if (IsCanary)
    Canary.push_back(K.stats());

  size_t EmitBytes = [&] {
    ScopedSpan Emit(Spans, "compiler.emitCuda", Id);
    return K.emitCuda().Source.size();
  }();
  if (IsCanary)
    CanaryEmitBytes += static_cast<double>(EmitBytes);

  testkernels::KernelBuffers Functional, Lowered;
  {
    ScopedSpan Inputs(Spans, "verify.inputs", Id);
    // Argument 0 is the output (C or O), left zero; the rest are inputs.
    std::vector<uint64_t> Seeds = {0};
    for (size_t I = 1; I < Input.EntryArgTypes.size(); ++I)
      Seeds.push_back(P.DataSeed + I);
    Functional = testkernels::makeBuffers(Input.EntryArgTypes, Seeds);
    Lowered = Functional;
  }
  if (Spans) {
    Clock::time_point TimingStart = Clock::now();
    ErrorOr<SimResult> Timing = [&] {
      ScopedSpan Run(Spans, "sim.runTiming", Id);
      return K.runTiming();
    }();
    TimingUs.push_back(microsSince(TimingStart));
    if (!Timing) {
      reportFailure(P.Case.Label, Timing.diagnostic().str());
      return false;
    }
  }
  ErrorOr<SimResult> Sim = [&] {
    ScopedSpan Run(Spans, "sim.runFunctional", Id);
    return K.runFunctional(Functional.ptrs());
  }();
  ErrorOr<LoweredStats> Low = [&] {
    ScopedSpan Run(Spans, "backend.runCpuLowered", Id);
    return runCpuLowered(K.module(), LeafRegistry::sharedBuiltins(),
                         Lowered.ptrs());
  }();
  if (!Sim || !Sim->Races.empty()) {
    reportFailure(P.Case.Label, Sim ? "race: " + Sim->Races.front()
                                    : Sim.diagnostic().str());
    return false;
  }
  if (!Low) {
    reportFailure(P.Case.Label, Low.diagnostic().str());
    return false;
  }
  VerifiedFlops += P.flops();
  if (IsCanary) {
    Tflops.push_back(Sim->TFlops);
    CanarySims.push_back(*Sim);
    CanaryInstances += static_cast<double>(Low->Instances);
    CanaryStalls += static_cast<double>(Low->Stalls);
  }
  if (Corrupt)
    Functional.Data[0].raw()[0] += 1.0f;

  const std::vector<TensorData> &In = Functional.Data;
  TensorData Reference = [&] {
    ScopedSpan Ref(Spans, "verify.reference", Id);
    return P.Attention
               ? referenceAttention(In[1], In[2], In[3],
                                    Input.EntryArgTypes[0], P.Attn.SeqLen)
               : referenceGemm(In[1], In[2], Input.EntryArgTypes[0]);
  }();
  ScopedSpan Compare(Spans, "verify.compare", Id);
  float AbsTol = P.Attention ? AttentionAbsTol : GemmAbsTol;
  std::string Mismatch;
  if (std::string Diff = testkernels::compareTensors(In[0], Reference,
                                                     0, AbsTol);
      !Diff.empty())
    Mismatch = "runFunctional vs reference: " + Diff;
  else if (std::string Diff = testkernels::compareTensors(Lowered.Data[0],
                                                          Reference, 0, AbsTol);
           !Diff.empty())
    Mismatch = "runCpuLowered vs reference: " + Diff;
  else if (std::string Diff = testkernels::compareTensors(
               Lowered.Data[0], In[0], ExecutorMaxUlps, ExecutorAbsTol);
           !Diff.empty())
    Mismatch = "runCpuLowered vs runFunctional: " + Diff;
  if (Mismatch.empty())
    return true;
  reportFailure(P.Case.Label, Mismatch);
  return false;
}

Window Verify::run(double Seconds, Tracer &Spans) {
  ThreadLog *Log = Spans.log(0);
  Tflops.clear();
  CompileUs.clear();
  TimingUs.clear();
  Timed.clear();
  Canary.clear();
  CanarySims.clear();
  VerifiedFlops = 0.0;
  CanaryInstances = CanaryStalls = CanaryEmitBytes = 0.0;
  Points = Infeasible = 0;

  Window Result;
  ScopedSpan WindowSpan(Log, "bench.window");
  Clock::time_point Start = Clock::now();
  uint64_t Id = 0;
  for (size_t Pass = 0;
       Pass == 0 ||
       std::chrono::duration<double>(Clock::now() - Start).count() < Seconds;
       ++Pass) {
    CompilerSession Session;
    for (const Point &P : Passes[Pass % Passes.size()]) {
      Clock::time_point PointStart = Clock::now();
      ++Id;
      bool Ok = check(P, Session, Id, Log, Pass == 0,
                      Options.InjectCorruption && Id == 1);
      Result.LatencyUs.push_back(microsSince(PointStart));
      ++Result.Attempted;
      Result.Failed += Ok ? 0 : 1;
    }
    Entries = Session.cachedKernels();
  }
  Result.WallSeconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  Result.Ops = Result.Attempted;
  Points = Result.Attempted;
  return Result;
}

void Verify::perLayer(const Tracer &Spans, MetricSet &Out) const {
  Out.add("session.key_us", median(Spans.durations("session.cacheKey")), "us");
  Out.add("session.miss_us", median(CompileUs), "us");
  Out.add("session.entries", static_cast<double>(Entries), "count");
  Out.add("session.infeasible_ratio",
          Points ? static_cast<double>(Infeasible) / Points : 0.0, "ratio");
  addPassMetrics(Timed, Canary, Out);
  std::vector<double> Cycles, TcBusy, TmaBusy;
  for (const SimResult &Sim : CanarySims) {
    Cycles.push_back(Sim.BlockCycles);
    TcBusy.push_back(Sim.TensorCoreBusyCycles / Sim.BlockCycles);
    TmaBusy.push_back(Sim.TmaBusyCycles / Sim.BlockCycles);
  }
  Out.add("sim.block_cycles", mean(Cycles), "cycles");
  Out.add("sim.tc_busy_frac", mean(TcBusy), "ratio");
  Out.add("sim.tma_busy_frac", mean(TmaBusy), "ratio");

  Out.add("sim.timing_us", mean(TimingUs), "us");

  auto Sum = [](const std::vector<double> &V) {
    return std::accumulate(V.begin(), V.end(), 0.0);
  };
  // runFunctional's own share: its span less the timing model it runs
  // first, as the separate runTiming of the same point measured it.
  std::vector<double> FunctionalUs = Spans.durations("sim.runFunctional");
  std::vector<double> LoweredUs = Spans.durations("backend.runCpuLowered");
  double FunctionalSum = Sum(FunctionalUs) - Sum(TimingUs);
  Out.add("functional.us",
          FunctionalUs.empty() ? 0.0 : FunctionalSum / FunctionalUs.size(),
          "us");
  Out.add("functional.mflops",
          FunctionalSum > 0.0 ? VerifiedFlops / FunctionalSum : 0.0,
          "MFLOP/s");
  Out.add("lowered.us", mean(LoweredUs), "us");
  Out.add("lowered.mflops",
          Sum(LoweredUs) > 0.0 ? VerifiedFlops / Sum(LoweredUs) : 0.0,
          "MFLOP/s");
  Out.add("lowered.instances", CanaryInstances, "count");
  Out.add("lowered.stalls", CanaryStalls, "count");
  Out.add("emit.us", mean(Spans.durations("compiler.emitCuda")), "us");
  Out.add("emit.bytes", CanaryEmitBytes, "bytes");
  Out.add("verify.compile_us", mean(CompileUs), "us");
  Out.add("verify.reference_us", mean(Spans.durations("verify.reference")),
          "us");
}

} // namespace

std::unique_ptr<Workload> makeVerify(const RunOptions &Options) {
  return std::make_unique<Verify>(Options);
}

} // namespace e2e
