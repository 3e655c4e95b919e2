//===- main.cpp - e2ebench: the end-to-end benchmark entry point ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   e2ebench --workload serve|tune|verify --seed N --seconds S --trace 0|1
///            [--inject-corruption] [--unequal-kv-depths]
///
/// Sets the workload up seven times (setup_s is the median), then measures
/// one untraced window. With --trace 1 a second, traced window follows, the
/// per-layer metrics come from it, and its spans are written to
/// .bench_build/traces/<workload>-seed<N>.json under the working directory;
/// with --trace 0 the end-to-end metrics come from the untraced window. The
/// last line of stdout is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. The traced metrics are those the workload's layers
/// produce; run.py completes them to the list BENCHMARK.json declares.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "BenchUtil.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace e2e;

namespace {

constexpr int SetupRepeats = 7;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload serve|tune|verify "
               "--seed N --seconds S --trace 0|1 [--inject-corruption] "
               "[--unequal-kv-depths]\n",
               Why);
  std::exit(2);
}

RunOptions parseArgs(int Argc, char **Argv) {
  RunOptions Options;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--inject-corruption") {
      Options.InjectCorruption = true;
      continue;
    }
    if (Arg == "--unequal-kv-depths") {
      Options.UnequalKvDepths = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Options.Workload = Value;
    } else if (Arg == "--seed") {
      Options.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      Options.Seconds = std::strtod(Value.c_str(), &End);
      if (!(Options.Seconds > 0.0))
        usage("--seconds must be positive");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      Options.Trace = Value == "1";
      HaveTrace = true;
    } else {
      usage(("unknown argument " + Arg).c_str());
    }
    if (End && *End)
      usage(("malformed number for " + Arg).c_str());
  }
  if (Options.Workload.empty() || !HaveTrace)
    usage("--workload and --trace are required");
  return Options;
}

std::unique_ptr<Workload> makeWorkload(const RunOptions &Options) {
  if (Options.Workload == "serve")
    return makeServe(Options);
  if (Options.Workload == "tune")
    return makeTune(Options);
  if (Options.Workload == "verify")
    return makeVerify(Options);
  usage(("unknown workload " + Options.Workload).c_str());
}

double opsPerSecond(const Window &W) {
  return W.WallSeconds > 0.0 ? W.Ops / W.WallSeconds : 0.0;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  // Either variable turns the library into a different program (injected
  // faults, IR dumps after every pass), so its timings would not compare.
  for (const char *Var : {"CYPRESS_FAULT_SPEC", "CYPRESS_PRINT_IR_AFTER_ALL"})
    if (std::getenv(Var)) {
      std::fprintf(stderr,
                   "e2ebench: refusing to time a run with %s set; unset it "
                   "and run again\n",
                   Var);
      return 2;
    }
  RunOptions Options = parseArgs(Argc, Argv);

  double Contention = cypress::bench::hostContention();
  std::fprintf(stderr, "e2ebench: host.contention %.3f\n", Contention);

  std::vector<double> SetupS, InputsS, WarmupS;
  std::unique_ptr<Workload> Work;
  for (int Repeat = 0; Repeat < SetupRepeats; ++Repeat) {
    Work.reset();
    Clock::time_point Start = Clock::now();
    Work = makeWorkload(Options);
    Work->buildInputs();
    double Inputs = microsSince(Start) / 1e6;
    Work->warmUp();
    double Total = microsSince(Start) / 1e6;
    SetupS.push_back(Total);
    InputsS.push_back(Inputs);
    WarmupS.push_back(Total - Inputs);
  }

  Tracer Off(false, Work->threads());
  Window Untraced = Work->run(Options.Seconds, Off);
  uint64_t Attempted = Untraced.Attempted;
  uint64_t Failed = Untraced.Failed + Work->setupFailures();

  MetricSet Metrics;
  if (!Options.Trace) {
    Metrics.add("setup_s", median(SetupS), "s");
    Metrics.add("peak_rss_mb", peakRssMb(), "MB");
    Metrics.add("ops_per_s", opsPerSecond(Untraced), "1/s");
    Metrics.add("p50_us", median(Untraced.LatencyUs), "us");
    Metrics.add("tail_us",
                percentile(Untraced.LatencyUs, Work->tailPercentile()), "us");
    Metrics.add("kernel_tflops", Work->kernelTflops(), "TFLOP/s");
  } else {
    Tracer On(true, Work->threads());
    Window Traced = Work->run(Options.Seconds, On);
    Attempted += Traced.Attempted;
    Failed += Traced.Failed;

    Work->perLayer(On, Metrics);
    Metrics.add("setup.inputs_s", median(InputsS), "s");
    Metrics.add("setup.warmup_s", median(WarmupS), "s");
    double Base = opsPerSecond(Untraced);
    Metrics.add("trace.overhead_frac",
                Base > 0.0 ? 1.0 - opsPerSecond(Traced) / Base : 0.0,
                "ratio");
    Metrics.add("trace.unattributed_frac", On.unattributedFraction(),
                "ratio");
    Metrics.add("host.contention", Contention, "ratio");
    Metrics.add("failed_ratio",
                Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
                "ratio");
    Metrics.add("latency.samples",
                static_cast<double>(Traced.LatencyUs.size()), "count");

    std::filesystem::path TraceDir = std::filesystem::path(".bench_build") /
                                     "traces";
    std::error_code Ignored;
    std::filesystem::create_directories(TraceDir, Ignored);
    std::string TracePath =
        (TraceDir / (Options.Workload + "-seed" +
                     std::to_string(Options.Seed) + ".json"))
            .string();
    if (!On.writeChromeTrace(TracePath, 50000))
      std::fprintf(stderr, "e2ebench: cannot write %s\n", TracePath.c_str());
  }
  printResult(Failed == 0, Attempted, Failed, Metrics.all());
  return 0;
}
