//===- Harness.h - Metrics, statistics and span tracing for e2ebench ------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement side of the end-to-end benchmark: named metrics with
/// units, order statistics, process memory, and an in-memory span tracer.
///
/// Spans are recorded by the benchmark around each call it makes into a
/// library layer; nothing inside the library is instrumented. Each thread
/// appends to its own log, so recording takes no lock: a span is opened
/// (its parent is the innermost open span of that thread) and closed by a
/// scope guard. With tracing off a guard holds a null log and costs one
/// branch. Span names are string literals; a name starting with "bench."
/// marks the benchmark's own glue (windows, one operation's root span), and
/// every other name is a layer whose time counts as attributed.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_E2EBENCH_HARNESS_H
#define CYPRESS_E2EBENCH_HARNESS_H

#include "support/Random.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double microsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Metrics and statistics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Metrics in insertion order; the last line of stdout is built from one.
class MetricSet {
public:
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  const std::vector<Metric> &all() const { return Metrics; }

private:
  std::vector<Metric> Metrics;
};

/// Nearest-rank percentile (P in [0, 100]) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);
inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50.0);
}
double mean(const std::vector<double> &Values);
/// Geometric mean of the positive entries; 0 when there are none.
double geomean(const std::vector<double> &Values);

/// Peak resident set size of this process (VmHWM), in MiB.
double peakRssMb();

/// A uniform random sample of at most Capacity values (Algorithm R), so
/// the memory a high-rate client spends on latency samples stays bounded
/// and does not grow with the rate being measured.
class Reservoir {
public:
  Reservoir(size_t Capacity, uint64_t Seed) : Capacity(Capacity), Rng(Seed) {
    Samples.reserve(Capacity);
  }
  void add(double Value) {
    ++Seen;
    if (Samples.size() < Capacity) {
      Samples.push_back(Value);
      return;
    }
    uint64_t Slot = Rng.nextBelow(Seen);
    if (Slot < Capacity)
      Samples[static_cast<size_t>(Slot)] = Value;
  }
  const std::vector<double> &samples() const { return Samples; }

private:
  size_t Capacity;
  cypress::SplitMix64 Rng;
  uint64_t Seen = 0;
  std::vector<double> Samples;
};

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = nullptr;
  int32_t Parent = -1; ///< Index of the enclosing span in the same log.
  uint64_t Request = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;

  double micros() const { return (EndNs - StartNs) / 1000.0; }
};

/// One thread's spans, in opening order.
class ThreadLog {
public:
  int32_t open(const char *Name, uint64_t Request);
  void close(int32_t Index);
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// Opens a span on construction and closes it on destruction; inert when
/// \p Log is null (tracing off).
class ScopedSpan {
public:
  ScopedSpan(ThreadLog *Log, const char *Name, uint64_t Request = 0)
      : Log(Log), Index(Log ? Log->open(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  ThreadLog *Log;
  int32_t Index;
};

/// Owns one ThreadLog per benchmark thread. Disabled tracers hand out null
/// logs, which makes every ScopedSpan inert.
class Tracer {
public:
  Tracer(bool Enabled, size_t Threads);

  ThreadLog *log(size_t Thread) {
    return Enabled ? Logs[Thread].get() : nullptr;
  }

  /// Durations in microseconds of every span named \p Name.
  std::vector<double> durations(const char *Name) const;
  /// Share of the "bench.window" spans' time not covered by a layer span:
  /// the self time of every "bench." span over the windows' duration.
  double unattributedFraction() const;

  /// Writes the spans as Chrome trace-event JSON (loadable in
  /// chrome://tracing or Perfetto). At most \p MaxEvents spans are
  /// written, the earliest of each thread first; the count kept is
  /// recorded in the file's metadata. Returns false when \p Path cannot be
  /// written.
  bool writeChromeTrace(const std::string &Path, size_t MaxEvents) const;

private:
  bool Enabled;
  std::vector<std::unique_ptr<ThreadLog>> Logs;
};

} // namespace e2e

#endif // CYPRESS_E2EBENCH_HARNESS_H
