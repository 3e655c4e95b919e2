//===- AllocCounterTest.cpp - Heap-allocation accounting tests -------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the opt-in counting-allocator hook (support/AllocCounter.h)
/// and the measurements built on it: per-pass HeapAllocs in PipelineStats,
/// the simulator's pooled-scratch steady state, and the session's
/// cache-hit path. These pin the "allocation-free steady state" claim as
/// a measured bound instead of a comment. Every test skips when the hook is compiled out (sanitizer
/// builds own the allocator there).
///
//===----------------------------------------------------------------------===//

#include "TestKernels.h"
#include "compiler/PassManager.h"
#include "runtime/Session.h"
#include "support/AllocCounter.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace cypress;
using namespace cypress::testkernels;

namespace {

/// Allocations on this thread across \p Fn, with counting enabled just for
/// the measurement.
template <typename Fn> uint64_t allocsDuring(Fn &&F) {
  setAllocCounting(true);
  uint64_t Before = threadAllocCount();
  F();
  uint64_t After = threadAllocCount();
  setAllocCounting(false);
  return After - Before;
}

TEST(AllocCounter, CountsOnlyWhileEnabled) {
  if (!allocCounterActive())
    GTEST_SKIP() << "alloc counter compiled out (sanitizer build)";

  uint64_t Counted = allocsDuring([] {
    std::vector<std::unique_ptr<int>> Held;
    for (int I = 0; I < 8; ++I)
      Held.push_back(std::make_unique<int>(I));
  });
  EXPECT_GE(Counted, 8u);

  uint64_t Before = threadAllocCount();
  {
    std::vector<std::unique_ptr<int>> Held;
    for (int I = 0; I < 8; ++I)
      Held.push_back(std::make_unique<int>(I));
  }
  EXPECT_EQ(threadAllocCount(), Before);
}

TEST(AllocCounter, PipelineRecordsPerPassAllocs) {
  if (!allocCounterActive())
    GTEST_SKIP() << "alloc counter compiled out (sanitizer build)";

  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  std::vector<TensorType> Args = gemmArgTypes(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};

  // Opt-in off: the stat stays zero even though the passes allocate.
  PassPipeline Plain = PassPipeline::defaultPipeline();
  PipelineStats PlainStats;
  ASSERT_TRUE(bool(Plain.run(Input, nullptr, &PlainStats)));
  for (const PassStat &S : PlainStats.Passes)
    EXPECT_EQ(S.HeapAllocs, 0u) << S.Name;

  // Opt-in on: dependence analysis builds the module from scratch, so it
  // must report allocations.
  PassPipeline Counting = PassPipeline::defaultPipeline();
  Counting.setCountAllocs(true);
  PipelineStats Stats;
  ASSERT_TRUE(bool(Counting.run(Input, nullptr, &Stats)));
  const PassStat *DepAnalysis = Stats.pass("dependence-analysis");
  ASSERT_NE(DepAnalysis, nullptr);
  EXPECT_GT(DepAnalysis->HeapAllocs, 0u);
  EXPECT_FALSE(allocCountingEnabled()) << "run() must restore the flag";
}

/// The claim under test (Simulator.cpp): pooled thread-local scratch makes
/// repeated runTiming calls allocation-free in steady state. Measured
/// honestly: a warm run still allocates a bounded handful — the returned
/// SimResult and its vectors — so "allocation-free" is pinned as a small
/// per-run constant that does not grow with the kernel's instance count
/// (single digits against tens of thousands of instances). The scratch
/// pools are thread-local and shared across kernels, so the cold-build
/// comparison only holds for the first kernel this thread simulates.
TEST(AllocCounter, SimulatorSteadyStateAllocationBound) {
  if (!allocCounterActive())
    GTEST_SKIP() << "alloc counter compiled out (sanitizer build)";

  struct Case {
    const char *Name;
    Compiled Kernel;
  };
  Case Cases[2] = {{"gemm", compileGemm(headlineGemmConfig())},
                   {"fa2_4096", compileAttention(fa2Config(4096))}};

  bool FirstOnThread = true;
  for (Case &C : Cases) {
    ASSERT_TRUE(C.Kernel.Kernel) << C.Name << ": " << C.Kernel.Error;
    const CompiledKernel &Kernel = *C.Kernel.Kernel;

    // First run: arenas grow (from empty for the thread's first kernel).
    uint64_t Cold = allocsDuring([&] {
      ErrorOr<SimResult> R = Kernel.runTiming();
      ASSERT_TRUE(bool(R));
    });

    // Warm the pools past any lazy growth before measuring steady state.
    for (int I = 0; I < 3; ++I)
      ASSERT_TRUE(bool(Kernel.runTiming()));

    const int Runs = 5;
    uint64_t Warm = allocsDuring([&] {
      for (int I = 0; I < Runs; ++I)
        ASSERT_TRUE(bool(Kernel.runTiming()));
    });
    uint64_t WarmPerRun = Warm / Runs;

    RecordProperty(std::string(C.Name) + "_cold_allocs",
                   static_cast<int>(Cold));
    RecordProperty(std::string(C.Name) + "_warm_allocs_per_run",
                   static_cast<int>(WarmPerRun));

    // Steady state: a bounded constant, not proportional to instances.
    EXPECT_LE(WarmPerRun, 16u) << C.Name << " warm=" << Warm;
    if (FirstOnThread) {
      EXPECT_LT(WarmPerRun * 10, Cold)
          << C.Name << " cold=" << Cold << " warm/run=" << WarmPerRun;
    }
    FirstOnThread = false;
  }
}

/// The session hit path (Session.h): the key mixes digests the registry,
/// mapping, and machine memoized when they were built, and a hit copies
/// the cached kernel pointer out of the map, so serving a repeat request
/// allocates nothing.
TEST(AllocCounter, SessionCacheHitIsAllocationFree) {
  if (!allocCounterActive())
    GTEST_SKIP() << "alloc counter compiled out (sanitizer build)";

  GemmConfig Config;
  Config.M = Config.N = Config.K = 512;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  const std::string Name = "gemm";
  CompilerSession Session;
  ASSERT_TRUE(bool(Session.compile(Input, Name)));

  EXPECT_EQ(allocsDuring([&] { (void)CompilerSession::cacheKey(Input); }),
            0u);
  EXPECT_EQ(allocsDuring([&] {
              ASSERT_TRUE(bool(Session.compile(Input, Name)));
            }),
            0u);
  EXPECT_EQ(Session.stats().Hits, 1u);
}

} // namespace
