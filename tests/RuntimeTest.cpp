//===- RuntimeTest.cpp - Host API surface tests --------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the public runtime API a downstream user programs against:
/// compile-time error propagation, custom leaf registration, artifact
/// accessors (IR dump, CUDA source, shared-memory plan), and a
/// user-defined task tree built from scratch rather than the shipped
/// kernels — the "new kernels not supported by vendor libraries" use case
/// the paper's introduction motivates.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "kernels/Kernels.h"
#include "runtime/Runtime.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace cypress;

namespace {

/// A user kernel the library does not ship: element-wise AXPY-like update
/// Out = X + X (computed through a custom leaf), tiled over blocks and
/// split across warpgroups.
struct UserKernel {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  UserKernel() {
    Registry.addInner(
        "axpy", "axpy_host",
        {{"Out", 2, ElementType::F32, Privilege::Write},
         {"X", 2, ElementType::F32, Privilege::Read}},
        [](InnerContext &Ctx, TensorHandles Handles) {
          const Shape &S = Ctx.shapeOf(Handles[0]);
          int64_t U = Ctx.tunable("U");
          PartitionHandle OutPart =
              Ctx.partitionByBlocks(Handles[0], Shape({U, S.dim(1)}));
          PartitionHandle XPart =
              Ctx.partitionByBlocks(Handles[1], Shape({U, S.dim(1)}));
          Ctx.prange({ScalarExpr(S.dim(0) / U)},
                     [&](ScalarExprs I) {
                       Ctx.launch("axpy",
                                  {Ctx.index(OutPart, {I[0], ScalarExpr(0)}),
                                   Ctx.index(XPart, {I[0], ScalarExpr(0)})});
                     });
        });
    Registry.addInner(
        "axpy", "axpy_block",
        {{"Out", 2, ElementType::F32, Privilege::Write},
         {"X", 2, ElementType::F32, Privilege::Read}},
        [](InnerContext &Ctx, TensorHandles Handles) {
          const Shape &S = Ctx.shapeOf(Handles[0]);
          int64_t Wgs = Ctx.tunable("WGS");
          PartitionHandle OutPart = Ctx.partitionByBlocks(
              Handles[0], Shape({S.dim(0) / Wgs, S.dim(1)}));
          PartitionHandle XPart = Ctx.partitionByBlocks(
              Handles[1], Shape({S.dim(0) / Wgs, S.dim(1)}));
          Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
            Ctx.launch("axpy",
                       {Ctx.index(OutPart, {I[0], ScalarExpr(0)}),
                        Ctx.index(XPart, {I[0], ScalarExpr(0)})});
          });
        });
    Registry.addLeaf("axpy", "axpy_leaf",
                     {{"Out", 2, ElementType::F32, Privilege::Write},
                      {"X", 2, ElementType::F32, Privilege::Read}},
                     {"user_double", ExecUnit::SIMT,
                      [](const std::vector<Shape> &Shapes) {
                        return static_cast<double>(
                            Shapes[0].numElements());
                      }});

    std::vector<TaskMapping> Instances;
    TaskMapping Host;
    Host.Instance = "host";
    Host.Variant = "axpy_host";
    Host.Proc = Processor::Host;
    Host.Mems = {Memory::Global, Memory::Global};
    Host.Tunables = {{"U", 64}};
    Host.Entrypoint = true;
    Host.Calls = {"blk"};
    Instances.push_back(Host);
    TaskMapping Blk;
    Blk.Instance = "blk";
    Blk.Variant = "axpy_block";
    Blk.Proc = Processor::Block;
    Blk.Mems = {Memory::Global, Memory::Global};
    Blk.Tunables = {{"WGS", 2}};
    Blk.Calls = {"wg"};
    Instances.push_back(Blk);
    TaskMapping Wg;
    Wg.Instance = "wg";
    Wg.Variant = "axpy_leaf";
    Wg.Proc = Processor::Warpgroup;
    // Stage the tile through shared memory on the way in, registers out.
    Wg.Mems = {Memory::Register, Memory::Shared};
    Instances.push_back(Wg);
    Mapping = MappingSpec(std::move(Instances));
    Args = {{Shape({128, 64}), ElementType::F32},
            {Shape({128, 64}), ElementType::F32}};
  }
};

/// A registry that resolves the user kernel's `user_double` leaf to
/// Out = Factor * X and everything else to the builtins.
LeafRegistry scaleLeaves(float Factor) {
  LeafRegistry Leaves(&LeafRegistry::sharedBuiltins());
  Leaves.add("user_double", [Factor](std::vector<TensorView> &Args,
                                     const std::vector<int64_t> &) {
    TensorView &Out = Args[0];
    TensorView &X = Args[1];
    int64_t Count = Out.shape().numElements();
    for (int64_t I = 0; I < Count; ++I) {
      std::vector<int64_t> Idx = Out.shape().delinearize(I);
      Out.set(Idx, Factor * X.at(Idx));
    }
  });
  return Leaves;
}

} // namespace

TEST(Runtime, UserKernelWithCustomLeaf) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     User.Args};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "axpy");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());

  TensorData Out(User.Args[0]);
  TensorData X(User.Args[1]);
  fillRandomFp16(X.raw(), 77);
  ErrorOr<SimResult> Result =
      (*Kernel)->runFunctional({&Out, &X}, scaleLeaves(2.0f));
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  for (int64_t I = 0; I < 128; I += 17)
    for (int64_t J = 0; J < 64; J += 13)
      EXPECT_FLOAT_EQ(Out.at({I, J}), 2.0f * X.at({I, J}));
}

/// Leaves travel with the run, not the kernel: two threads run one
/// session-cached kernel at once, each with its own `user_double`.
TEST(Runtime, UserLeavesOnASharedCachedKernel) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     User.Args};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "axpy");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  auto Again = Session.compile(Input, "axpy");
  ASSERT_TRUE(Again);
  ASSERT_EQ(Kernel->get(), Again->get()); // One shared, cached kernel.

  TensorData X(User.Args[1]);
  fillRandomFp16(X.raw(), 77);
  const float Factors[2] = {2.0f, 3.0f};
  TensorData Outs[2] = {TensorData(User.Args[0]), TensorData(User.Args[0])};
  bool Ok[2] = {false, false};
  const CompiledKernel &Shared = **Kernel;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      TensorData In = X; // Each run writes only its own buffers.
      Ok[T] = static_cast<bool>(
          Shared.runFunctional({&Outs[T], &In}, scaleLeaves(Factors[T])));
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  for (int T = 0; T < 2; ++T) {
    ASSERT_TRUE(Ok[T]) << "thread " << T;
    for (int64_t I = 0; I < 128; ++I)
      for (int64_t J = 0; J < 64; ++J)
        ASSERT_FLOAT_EQ(Outs[T].at({I, J}), Factors[T] * X.at({I, J}))
            << "thread " << T << " at (" << I << ", " << J << ")";
  }
}

TEST(Runtime, MissingLeafImplementationDiagnosed) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     User.Args};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "axpy");
  ASSERT_TRUE(Kernel);
  TensorData Out(User.Args[0]);
  TensorData X(User.Args[1]);
  // The builtins alone lack "user_double": the functional run must fail
  // cleanly and name it.
  ErrorOr<SimResult> Result = (*Kernel)->runFunctional({&Out, &X});
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("user_double"),
            std::string::npos);
}

TEST(Runtime, CompileErrorsPropagate) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     {}}; // Wrong arity.
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "axpy");
  ASSERT_FALSE(Kernel);
  EXPECT_NE(Kernel.diagnostic().message().find("entrypoint"),
            std::string::npos);
}

TEST(Runtime, ArtifactAccessors) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "artifacts");
  ASSERT_TRUE(Kernel);

  EXPECT_EQ((*Kernel)->name(), "artifacts");
  // IR dump uses the paper's notation.
  std::string Ir = (*Kernel)->irDump();
  EXPECT_NE(Ir.find("pfor"), std::string::npos);
  EXPECT_NE(Ir.find("on tma"), std::string::npos);
  EXPECT_NE(Ir.find("@lag("), std::string::npos);
  // Shared plan covers the tiles and fits the machine.
  const SharedAllocation &Plan = (*Kernel)->sharedPlan();
  EXPECT_FALSE(Plan.Entries.empty());
  EXPECT_LE(Plan.TotalBytes, H100Constants::SharedMemoryBytes);
  // The CUDA source names the kernel.
  EXPECT_NE((*Kernel)->cudaSource().find("artifacts_kernel"),
            std::string::npos);
}

TEST(Runtime, TimingIsDeterministic) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  CompilerSession Session;
  auto Kernel = Session.compile(Input, "det");
  ASSERT_TRUE(Kernel);
  double First = (*Kernel)->runTiming()->BlockCycles;
  double Second = (*Kernel)->runTiming()->BlockCycles;
  EXPECT_EQ(First, Second);
}

//===----------------------------------------------------------------------===//
// CompilerSession: the caching, concurrent serving layer
//===----------------------------------------------------------------------===//

namespace {

/// Owned gemm compile input for session tests.
struct SessionGemm {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  explicit SessionGemm(int64_t Size) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = Size;
    registerGemmTasks(Registry);
    Mapping = gemmMapping(Config);
    Args = gemmArgTypes(Config);
  }

  CompileInput input() const {
    return {&Registry, &Mapping, &MachineModel::h100(), Args};
  }
};

} // namespace

TEST(Session, PipelineStatsSurfacedFromCompiledKernel) {
  SessionGemm Gemm(512);
  CompilerSession Session;
  auto Kernel = Session.compile(Gemm.input(), "stats");
  ASSERT_TRUE(Kernel);
  const PipelineStats &Stats = (*Kernel)->stats();
  ASSERT_EQ(Stats.Passes.size(), 7u);
  EXPECT_GT(Stats.TotalMicros, 0.0);
  EXPECT_NE(Stats.pass("warp-specialization"), nullptr);
}

TEST(Session, CacheHitReturnsIdenticalKernel) {
  SessionGemm Gemm(512);
  CompilerSession Session;

  auto First = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(First) << (First ? "" : First.diagnostic().message());
  auto Second = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Second);

  EXPECT_EQ(First->get(), Second->get()); // Same object, not a recompile.
  EXPECT_EQ(Session.stats().Hits, 1u);
  EXPECT_EQ(Session.stats().Misses, 1u);
  EXPECT_EQ(Session.cachedKernels(), 1u);
}

TEST(Session, DifferentInputsMissTheCache) {
  SessionGemm Small(512), Large(1024);
  CompilerSession Session;

  auto First = Session.compile(Small.input(), "gemm");
  auto Second = Session.compile(Large.input(), "gemm");
  ASSERT_TRUE(First);
  ASSERT_TRUE(Second);
  EXPECT_NE(First->get(), Second->get());
  EXPECT_EQ(Session.stats().Hits, 0u);
  EXPECT_EQ(Session.stats().Misses, 2u);
  EXPECT_NE(CompilerSession::cacheKey(Small.input()),
            CompilerSession::cacheKey(Large.input()));

  // Registering a variant on a registry that already served a compile
  // changes its key, so the next compile misses — for leaves and inners.
  KernelKey Before = CompilerSession::cacheKey(Small.input());
  Small.Registry.addLeaf("extra", "extra_leaf",
                         {{"X", 2, ElementType::F32, Privilege::Read}},
                         {"user_double", ExecUnit::SIMT, nullptr});
  KernelKey AfterLeaf = CompilerSession::cacheKey(Small.input());
  EXPECT_NE(AfterLeaf, Before);
  Small.Registry.addInner("extra", "extra_inner",
                          {{"X", 2, ElementType::F32, Privilege::Read}},
                          [](InnerContext &, TensorHandles) {});
  EXPECT_NE(CompilerSession::cacheKey(Small.input()), AfterLeaf);
  ASSERT_TRUE(Session.compile(Small.input(), "gemm"));
  EXPECT_EQ(Session.stats().Hits, 0u);
  EXPECT_EQ(Session.stats().Misses, 3u);

  // A copy is a distinct registry: inner bodies are opaque, so equal
  // structure does not prove equal behavior.
  TaskRegistry Copy = Small.Registry;
  CompileInput OverCopy = Small.input();
  OverCopy.Registry = &Copy;
  EXPECT_NE(CompilerSession::cacheKey(OverCopy),
            CompilerSession::cacheKey(Small.input()));

  // A move hands the key over; the moved-from registry, refilled (with
  // different or even identical structure), never aliases the target.
  KernelKey Original = CompilerSession::cacheKey(Large.input());
  TaskRegistry Moved = std::move(Large.Registry);
  CompileInput OverMoved = Large.input();
  OverMoved.Registry = &Moved;
  EXPECT_EQ(CompilerSession::cacheKey(OverMoved), Original);
  registerAttentionTasks(Large.Registry);
  EXPECT_NE(CompilerSession::cacheKey(Large.input()), Original);
  TaskRegistry Refilled = std::move(Moved);
  registerGemmTasks(Moved);
  OverMoved.Registry = &Moved;
  CompileInput OverRefilled = Large.input();
  OverRefilled.Registry = &Refilled;
  EXPECT_NE(CompilerSession::cacheKey(OverMoved),
            CompilerSession::cacheKey(OverRefilled));

  // Machines are keyed by content: one memory's capacity is enough.
  const MachineModel &H100 = MachineModel::h100();
  std::vector<MemoryLevel> Memories = H100.memories();
  for (MemoryLevel &Mem : Memories)
    if (Mem.Kind == Memory::Shared)
      Mem.CapacityBytes -= 1024;
  MachineModel Smaller(H100.name(), H100.levels(), Memories);
  CompileInput OnSmaller = Small.input();
  OnSmaller.Machine = &Smaller;
  EXPECT_NE(CompilerSession::cacheKey(OnSmaller),
            CompilerSession::cacheKey(Small.input()));

  // Mappings are values: copies and moves keep their key.
  KernelKey MappingKey = CompilerSession::cacheKey(Small.input());
  MappingSpec CopiedMapping = Small.Mapping;
  CompileInput OverCopiedMapping = Small.input();
  OverCopiedMapping.Mapping = &CopiedMapping;
  EXPECT_EQ(CompilerSession::cacheKey(OverCopiedMapping), MappingKey);
  MappingSpec MovedMapping = std::move(CopiedMapping);
  OverCopiedMapping.Mapping = &MovedMapping;
  EXPECT_EQ(CompilerSession::cacheKey(OverCopiedMapping), MappingKey);
}

TEST(Session, SameContentBuiltTwiceSharesAKeyAcrossSessions) {
  SessionGemm Gemm(512);
  CompilerSession First, Second;
  ASSERT_TRUE(First.compile(Gemm.input(), "gemm"));

  // Rebuild everything but the registry (whose identity is its uid) from
  // scratch, machine included.
  GemmConfig Config;
  Config.M = Config.N = Config.K = 512;
  MappingSpec Mapping = gemmMapping(Config);
  const MachineModel &H100 = MachineModel::h100();
  MachineModel Machine(H100.name(), H100.levels(), H100.memories());
  CompileInput Rebuilt{&Gemm.Registry, &Mapping, &Machine,
                       gemmArgTypes(Config)};
  EXPECT_EQ(CompilerSession::cacheKey(Rebuilt),
            CompilerSession::cacheKey(Gemm.input()));
  EXPECT_TRUE(First.isCached(Rebuilt));
  ASSERT_TRUE(Second.compile(Rebuilt, "gemm"));
  EXPECT_TRUE(Second.isCached(Gemm.input()));
}

TEST(Session, CacheKeyIsInjectiveOverTheTunerSpaces) {
  // Every feasible point of the guided GEMM and FA2/FA3 spaces at one
  // paper size: two keys are equal iff the (mapping fingerprint, argument
  // types) identities are. No collisions, and points that build identical
  // mappings share a key.
  const MachineModel &H100 = MachineModel::h100();
  std::vector<KernelSearchSpec> Specs = {
      gemmSearchSpec(GemmConfig(), gemmGuidedAxes()),
      attentionSearchSpec(fa2Config(4096), attentionGuidedAxes()),
      attentionSearchSpec(fa3Config(4096), attentionGuidedAxes())};
  std::unordered_set<KernelKey, Digest128Hash> AllKeys;
  size_t Identities = 0;
  for (const KernelSearchSpec &Spec : Specs) {
    TaskRegistry Registry;
    Spec.Register(Registry);
    std::unordered_map<std::string, KernelKey> KeyOf;
    std::unordered_map<KernelKey, const std::string *, Digest128Hash>
        IdentityOf;
    size_t Feasible = 0;
    MappingSpace(Spec, H100).forEach(
        [&](size_t, const MappingSpace::Candidate &Cand) {
          if (!Cand.feasible())
            return true;
          ++Feasible;
          MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
          CompileInput Input{&Registry, &Mapping, &H100,
                             Spec.BuildArgs(Cand.Point)};
          std::string Identity = Mapping.fingerprint();
          for (const TensorType &Type : Input.EntryArgTypes)
            Identity += "|" + Type.toString();
          KernelKey Key = CompilerSession::cacheKey(Input);
          auto ByIdentity = KeyOf.emplace(Identity, Key).first;
          auto ByKey = IdentityOf.emplace(Key, &ByIdentity->first).first;
          if (ByIdentity->second != Key || *ByKey->second != Identity) {
            ADD_FAILURE() << "key and identity disagree at "
                          << Cand.Point.str() << "\n  " << Identity
                          << "\n  " << *ByKey->second;
            return false;
          }
          return true;
        });
    EXPECT_GT(Feasible, 1000u) << Spec.KernelName;
    Identities += KeyOf.size();
    for (const auto &Entry : IdentityOf)
      AllKeys.insert(Entry.first);
  }
  // The three spaces use three registries, so no key is shared across them.
  EXPECT_EQ(AllKeys.size(), Identities);
}

TEST(Session, CacheHitIsAtLeastTenTimesFasterThanColdCompile) {
  SessionGemm Gemm(4096);
  CompilerSession Session;
  using Clock = std::chrono::steady_clock;

  Clock::time_point ColdStart = Clock::now();
  auto Cold = Session.compile(Gemm.input(), "gemm");
  double ColdMicros =
      std::chrono::duration<double, std::micro>(Clock::now() - ColdStart)
          .count();
  ASSERT_TRUE(Cold);

  // Best hit of a few trials, so one scheduler hiccup cannot fail the
  // assertion; each trial still includes full key construction.
  double HitMicros = std::numeric_limits<double>::infinity();
  for (int Trial = 0; Trial < 5; ++Trial) {
    Clock::time_point HitStart = Clock::now();
    auto Hit = Session.compile(Gemm.input(), "gemm");
    double Micros =
        std::chrono::duration<double, std::micro>(Clock::now() - HitStart)
            .count();
    ASSERT_TRUE(Hit);
    EXPECT_EQ(Hit->get(), Cold->get());
    HitMicros = std::min(HitMicros, Micros);
  }

  EXPECT_GE(ColdMicros, 10.0 * HitMicros)
      << "cold " << ColdMicros << "us vs hit " << HitMicros << "us";
}

TEST(Session, CompileAllIsConcurrentDeterministicAndDeduplicated) {
  SessionGemm Small(512), Large(1024);
  TaskRegistry AttnRegistry;
  registerAttentionTasks(AttnRegistry);
  AttentionConfig AttnConfig = fa2Config(2048);
  MappingSpec AttnMapping = attentionMapping(AttnConfig);
  std::vector<TensorType> AttnArgs = attentionArgTypes(AttnConfig);
  CompileInput Attn{&AttnRegistry, &AttnMapping, &MachineModel::h100(),
                    AttnArgs};

  SessionConfig Config;
  Config.Workers = 4;
  CompilerSession Session(Config);
  std::vector<CompilerSession::Request> Requests = {
      {Small.input(), "gemm_small", {}},
      {Large.input(), "gemm_large", {}},
      {Attn, "attention", {}},
      {Small.input(), "gemm_small_again", {}},
      {Large.input(), "gemm_large_again", {}},
      {Attn, "attention_again", {}}};

  std::vector<uint8_t> Hits;
  auto Results = Session.compileAll(Requests, &Hits);
  ASSERT_EQ(Results.size(), Requests.size());
  // The per-request hit flags are positional and agree exactly with the
  // session counters (this session saw no other traffic).
  ASSERT_EQ(Hits.size(), Requests.size());
  uint64_t FlaggedHits = 0;
  for (uint8_t Hit : Hits)
    FlaggedHits += Hit ? 1 : 0;
  EXPECT_EQ(FlaggedHits, Session.stats().Hits);
  EXPECT_EQ(Hits.size() - FlaggedHits, Session.stats().Misses);
  for (size_t I = 0; I < Results.size(); ++I)
    ASSERT_TRUE(Results[I]) << "request " << I << ": "
                            << Results[I].diagnostic().message();

  // Duplicate inputs share one kernel, whichever worker compiled it.
  EXPECT_EQ(Results[0]->get(), Results[3]->get());
  EXPECT_EQ(Results[1]->get(), Results[4]->get());
  EXPECT_EQ(Results[2]->get(), Results[5]->get());
  EXPECT_EQ(Session.cachedKernels(), 3u);

  // Concurrent compilation is deterministic: bit-identical IR to a fresh
  // serial compile of the same inputs.
  CompilerSession SerialSession;
  auto Serial = SerialSession.compile(Small.input(), "serial");
  ASSERT_TRUE(Serial);
  EXPECT_EQ((*Results[0])->irDump(), (*Serial)->irDump());
}

TEST(Session, StatsSnapshotHitsMissesAndEntries) {
  SessionGemm Small(512), Large(1024);
  CompilerSession Session;

  SessionStats Empty = Session.stats();
  EXPECT_EQ(Empty.Hits, 0u);
  EXPECT_EQ(Empty.Misses, 0u);
  EXPECT_EQ(Empty.Entries, 0u);
  EXPECT_FALSE(Session.isCached(Small.input()));

  ASSERT_TRUE(Session.compile(Small.input(), "gemm"));
  EXPECT_TRUE(Session.isCached(Small.input()));
  EXPECT_FALSE(Session.isCached(Large.input()));
  ASSERT_TRUE(Session.compile(Small.input(), "gemm"));
  ASSERT_TRUE(Session.compile(Large.input(), "gemm"));

  SessionStats Stats = Session.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.Entries, 2u);
  EXPECT_EQ(Stats.Entries, Session.cachedKernels());

  // Clearing drops the kernels but keeps the monotonic counters; probing
  // never counts as a hit or miss.
  Session.clearCache();
  EXPECT_FALSE(Session.isCached(Small.input()));
  SessionStats Cleared = Session.stats();
  EXPECT_EQ(Cleared.Entries, 0u);
  EXPECT_EQ(Cleared.Hits, 1u);
  EXPECT_EQ(Cleared.Misses, 2u);
}

TEST(Session, CompileErrorsAreReportedNotCached) {
  SessionGemm Gemm(512);
  CompilerSession Session;
  CompileInput Bad = Gemm.input();
  Bad.EntryArgTypes.clear(); // Wrong entrypoint arity.
  auto Result = Session.compile(Bad, "bad");
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("entrypoint"),
            std::string::npos);
  EXPECT_EQ(Result.diagnostic().passName(), "dependence-analysis");
  EXPECT_EQ(Session.cachedKernels(), 0u);
  // Failed compiles still count as misses: Hits + Misses == compile calls.
  EXPECT_EQ(Session.stats().Misses, 1u);
  EXPECT_EQ(Session.stats().Hits, 0u);
}
