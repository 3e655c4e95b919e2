//===- Common.cpp - Generation and metric helpers shared by workloads -----===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace cypress;

namespace e2e {

void Workload::reportFailure(const std::string &Input,
                             const std::string &Why) {
  std::lock_guard<std::mutex> Lock(ReportMutex);
  if (Reported.insert(Input + '\n' + Why).second)
    std::fprintf(stderr, "e2ebench: FAILED %s: %s\n", Input.c_str(),
                 Why.c_str());
}

CompileCase makeCase(const KernelSearchSpec &Spec, const TuningPoint &Point,
                     const TaskRegistry &Registry, std::string Label) {
  CompileCase Case;
  Case.Label = std::move(Label);
  Case.Name = Spec.KernelName;
  Case.Mapping = std::make_unique<MappingSpec>(Spec.BuildMapping(Point));
  Case.Input.Registry = &Registry;
  Case.Input.Mapping = Case.Mapping.get();
  Case.Input.Machine = &MachineModel::h100();
  Case.Input.EntryArgTypes = Spec.BuildArgs(Point);
  return Case;
}

TuningPoint drawFeasible(const KernelSearchSpec &Spec, SplitMix64 &Rng) {
  MappingSpace Space(Spec, MachineModel::h100());
  // The guided spaces are >= 10% feasible, so this ends quickly; the cap
  // turns a spec with no feasible point into a loud error, not a hang.
  for (int Attempt = 0; Attempt < 100000; ++Attempt) {
    MappingSpace::Candidate Cand =
        Space.candidateAt(static_cast<size_t>(Rng.nextBelow(Space.size())));
    if (Cand.feasible())
      return Cand.Point;
  }
  std::fprintf(stderr, "e2ebench: no feasible point in the %s space\n",
               Spec.KernelName.c_str());
  std::exit(3);
}

uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  Mix.next();
  return Mix.next();
}

int64_t pick(SplitMix64 &Rng, const std::vector<int64_t> &Values) {
  return Values[static_cast<size_t>(Rng.nextBelow(Values.size()))];
}

bool isFailure(const Diagnostic &Diag) {
  return Diag.code() != Diagnostic::Code::Infeasible;
}

const std::vector<std::string> &passNames() {
  static const std::vector<std::string> Names = {
      "dependence-analysis", "vectorization",       "copy-elimination",
      "assign-exec-units",   "resource-allocation", "repair-event-scopes",
      "warp-specialization"};
  return Names;
}

void addPassMetrics(const std::vector<PipelineStats> &Timed,
                    const std::vector<PipelineStats> &Canary,
                    MetricSet &Out) {
  for (const std::string &Name : passNames()) {
    std::vector<double> Micros;
    for (const PipelineStats &Stats : Timed)
      if (const PassStat *Stat = Stats.pass(Name))
        Micros.push_back(Stat->Micros);
    Out.add("pass." + Name + "_us", mean(Micros), "us");
  }
  std::vector<double> Verify, Total;
  for (const PipelineStats &Stats : Timed) {
    double Sum = 0.0;
    for (const PassStat &Stat : Stats.Passes)
      Sum += Stat.VerifyMicros;
    Verify.push_back(Sum);
    Total.push_back(Stats.TotalMicros);
  }
  Out.add("pass.verify_us", mean(Verify), "us");
  Out.add("pass.total_us", mean(Total), "us");

  // Canaries: integer totals over a set of kernels fixed by the seed.
  double Rewrites = 0.0, OpsAfter = 0.0;
  for (const PipelineStats &Stats : Canary) {
    for (const PassStat &Stat : Stats.Passes)
      Rewrites += static_cast<double>(Stat.Rewrites);
    if (!Stats.Passes.empty())
      OpsAfter += static_cast<double>(Stats.Passes.back().OpsAfter);
  }
  Out.add("pass.rewrites", Rewrites, "count");
  Out.add("pass.ops_after", OpsAfter, "count");
}

} // namespace e2e
