//===- Harness.cpp - Metrics, statistics and span tracing for e2ebench ----===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace e2e {

namespace {

const Clock::time_point TraceEpoch = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              TraceEpoch)
      .count();
}

/// Self time of every span of \p Spans: its duration minus its children's.
/// Spans of one thread nest, so children never overlap each other.
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
  return Self;
}

/// True for the benchmark's own glue spans ("bench.*").
bool isGlueSpan(const char *Name) {
  return std::strncmp(Name, "bench.", 6) == 0;
}

} // namespace

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::min(Values.size() - 1, Rank > 0 ? Rank - 1 : 0)];
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / Values.size();
}

double geomean(const std::vector<double> &Values) {
  double LogSum = 0.0;
  size_t N = 0;
  for (double V : Values)
    if (V > 0.0) {
      LogSum += std::log(V);
      ++N;
    }
  return N ? std::exp(LogSum / N) : 0.0;
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // The value is in kB.
  return 0.0;
}

int32_t ThreadLog::open(const char *Name, uint64_t Request) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  S.StartNs = nowNs();
  Spans.push_back(S);
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void ThreadLog::close(int32_t Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Stack.pop_back();
}

Tracer::Tracer(bool Enabled, size_t Threads) : Enabled(Enabled) {
  for (size_t I = 0; I < Threads; ++I)
    Logs.push_back(std::make_unique<ThreadLog>());
}

std::vector<double> Tracer::durations(const char *Name) const {
  std::vector<double> Result;
  for (const auto &Log : Logs)
    for (const Span &S : Log->spans())
      if (std::strcmp(S.Name, Name) == 0)
        Result.push_back(S.micros());
  return Result;
}

double Tracer::unattributedFraction() const {
  int64_t Glue = 0, Window = 0;
  for (const auto &Log : Logs) {
    const std::vector<Span> &Spans = Log->spans();
    std::vector<int64_t> Self = selfTimes(Spans);
    for (size_t I = 0; I < Spans.size(); ++I) {
      if (isGlueSpan(Spans[I].Name))
        Glue += Self[I];
      if (std::strcmp(Spans[I].Name, "bench.window") == 0)
        Window += Spans[I].EndNs - Spans[I].StartNs;
    }
  }
  return Window > 0 ? static_cast<double>(Glue) / Window : 0.0;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              size_t MaxEvents) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  size_t Total = 0;
  for (const auto &Log : Logs)
    Total += Log->spans().size();
  size_t PerThread = Logs.empty() ? 0 : MaxEvents / Logs.size();
  std::fprintf(Out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool First = true;
  size_t Written = 0;
  for (size_t Tid = 0; Tid < Logs.size(); ++Tid) {
    const std::vector<Span> &Spans = Logs[Tid]->spans();
    // A prefix of a thread's log keeps every kept span's parent.
    size_t Keep = std::min(Spans.size(), PerThread);
    for (size_t I = 0; I < Keep; ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu}}",
                   First ? "" : ",\n", S.Name, Tid, S.StartNs / 1000.0,
                   (S.EndNs - S.StartNs) / 1000.0, I, S.Parent,
                   static_cast<unsigned long long>(S.Request));
      First = false;
      ++Written;
    }
  }
  std::fprintf(Out,
               "\n],\"metadata\":{\"spans_recorded\":%zu,"
               "\"spans_written\":%zu}}\n",
               Total, Written);
  return std::fclose(Out) == 0;
}

} // namespace e2e
