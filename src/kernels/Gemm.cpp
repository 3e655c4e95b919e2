//===- Gemm.cpp - GEMM-family Cypress kernels -------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 5 GEMM program and its variants, written against the C++
/// embedding of the Cypress DSL. The task tree mirrors the paper exactly:
///
///   gemm_host   (HOST)  - tiles C into U x V blocks, prange over tiles
///   gemm_block  (BLOCK) - K-loop over W-wide tiles into an accumulator
///   gemm_tile   (BLOCK) - splits rows across WGS consumer warpgroups
///   gemm_wg     (WARPGROUP leaf) - the WGMMA dispatch
///
/// plus the clear and store trees the paper elides. The mapping requests
/// warp specialization and a 3-deep pipeline on gemm_block; Cypress then
/// derives the Figure 1b structure (TMA double/triple buffering, mbarrier
/// synchronization, register-resident accumulator) automatically.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <cmath>

using namespace cypress;

namespace {

double flops2MNK(const std::vector<Shape> &Shapes) {
  // Shapes: C [M, N], A [M, K], ...
  return 2.0 * static_cast<double>(Shapes[0].dim(0)) *
         static_cast<double>(Shapes[0].dim(1)) *
         static_cast<double>(Shapes[1].dim(1));
}

double flopsElems(const std::vector<Shape> &Shapes) {
  return static_cast<double>(Shapes[0].numElements());
}

/// Registers the clear and store task trees shared by the GEMM family
/// (idempotent: callers may register several kernels into one registry).
void registerCommonTasks(TaskRegistry &Registry) {
  if (Registry.hasVariant("clear_block"))
    return;

  // clear: zero an accumulator, split across warpgroups.
  Registry.addInner(
      "clear", "clear_block",
      {{"C", 2, ElementType::F32, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        PartitionHandle Cp =
            Ctx.partitionByBlocks(Args[0], Shape({M / Wgs, N}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("clear", {Ctx.index(Cp, {I[0], ScalarExpr(0)})});
        });
      });
  Registry.addLeaf("clear", "clear_wg_leaf",
                   {{"C", 2, ElementType::F32, Privilege::Write}},
                   {"clear", ExecUnit::SIMT, flopsElems});

  // store: write the accumulator to the output tile through a shared
  // staging buffer (the TMA store path of Figure 1b).
  Registry.addInner(
      "store", "store_block",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"Src", 2, ElementType::F32, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        PartitionHandle Cp =
            Ctx.partitionByBlocks(Args[0], Shape({M / Wgs, N}));
        PartitionHandle Sp =
            Ctx.partitionByBlocks(Args[1], Shape({M / Wgs, N}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("store", {Ctx.index(Cp, {I[0], ScalarExpr(0)}),
                               Ctx.index(Sp, {I[0], ScalarExpr(0)})});
        });
      });
  Registry.addLeaf("store", "store_wg_leaf",
                   {{"C", 2, ElementType::F16, Privilege::Write},
                    {"Src", 2, ElementType::F32, Privilege::Read}},
                   {"store", ExecUnit::SIMT, flopsElems});
}

/// Shared mapping instances for the clear and store trees.
void appendCommonMappings(std::vector<TaskMapping> &Instances, int64_t Wgs) {
  {
    TaskMapping TM;
    TM.Instance = "clear_block";
    TM.Variant = "clear_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::None};
    TM.Tunables["WGS"] = Wgs;
    TM.Calls = {"clear_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "clear_wg";
    TM.Variant = "clear_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Register};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "store_block";
    TM.Variant = "store_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::Global, Memory::None};
    TM.Tunables["WGS"] = Wgs;
    TM.Calls = {"store_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "store_wg";
    TM.Variant = "store_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Shared, Memory::Register};
    Instances.push_back(TM);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// GEMM (Figure 5)
//===----------------------------------------------------------------------===//

void cypress::registerGemmTasks(TaskRegistry &Registry) {
  if (Registry.hasVariant("gemm_host"))
    return;
  registerCommonTasks(Registry);

  // gemm_host: tile the output and launch a parallel group per tile.
  Registry.addInner(
      "gemm", "gemm_host",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t U = Ctx.tunable("U"), V = Ctx.tunable("V");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Cp = Ctx.partitionByBlocks(Args[0], Shape({U, V}));
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({U, K}));
        PartitionHandle Bp = Ctx.partitionByBlocks(Args[2], Shape({K, V}));
        Ctx.prange({ScalarExpr(M / U), ScalarExpr(N / V)},
                   [&](ScalarExprs I) {
                     Ctx.launch("gemm",
                                {Ctx.index(Cp, {I[0], I[1]}),
                                 Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                                 Ctx.index(Bp, {ScalarExpr(0), I[1]})});
                   });
      });

  // gemm_block: K-loop into a register-file accumulator.
  Registry.addInner(
      "gemm", "gemm_block",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t W = Ctx.tunable("W");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({M, W}));
        PartitionHandle Bp = Ctx.partitionByBlocks(Args[2], Shape({W, N}));
        TensorHandle Cacc =
            Ctx.makeTensor("Cacc", Shape({M, N}), ElementType::F32);
        Ctx.launch("clear", {Cacc});
        Ctx.srange(ScalarExpr(K / W), [&](ScalarExpr K2) {
          Ctx.launch("gemm", {Cacc, Ctx.index(Ap, {ScalarExpr(0), K2}),
                              Ctx.index(Bp, {K2, ScalarExpr(0)})});
        });
        Ctx.launch("store", {Args[0], Cacc});
      });

  // gemm_tile: row split across consumer warpgroups (lowers per-thread
  // register pressure for large tiles, Section 3.4).
  Registry.addInner(
      "gemm", "gemm_tile",
      {{"C", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Cp =
            Ctx.partitionByBlocks(Args[0], Shape({M / Wgs, N}));
        PartitionHandle Ap =
            Ctx.partitionByBlocks(Args[1], Shape({M / Wgs, K}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("gemm", {Ctx.index(Cp, {I[0], ScalarExpr(0)}),
                              Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                              Args[2]});
        });
      });

  // gemm_wg: the Tensor Core leaf (CuTe WGMMA dispatch in the paper).
  Registry.addLeaf("gemm", "gemm_wg_leaf",
                   {{"C", 2, ElementType::F32, Privilege::ReadWrite},
                    {"A", 2, ElementType::F16, Privilege::Read},
                    {"B", 2, ElementType::F16, Privilege::Read}},
                   {"wgmma_fp16", ExecUnit::TensorCore, flops2MNK});
}

ErrorOrVoid GemmConfig::validate(const MachineModel &Machine) const {
  if (M <= 0 || N <= 0 || K <= 0 || L <= 0 || U <= 0 || V <= 0 || W <= 0 ||
      WGS <= 0 || Pipe <= 0)
    return Diagnostic("gemm problem sizes and tunables must be positive");
  if (PipeA < 0 || PipeB < 0 || SharedLimitKB < 0)
    return Diagnostic(
        "gemm per-stream pipeline depths and the shared-memory limit must "
        "be non-negative (0 = default)");
  if (M % U != 0 || N % V != 0 || K % W != 0)
    return Diagnostic(formatString(
        "tile %lldx%lld (K-tile %lld) does not divide the %lldx%lldx%lld "
        "problem",
        static_cast<long long>(U), static_cast<long long>(V),
        static_cast<long long>(W), static_cast<long long>(M),
        static_cast<long long>(N), static_cast<long long>(K)));
  // The 64-row band rule: each consumer warpgroup's row split must be a
  // whole number of WGMMA bands.
  if (U % WGS != 0 || (U / WGS) % 64 != 0)
    return Diagnostic(formatString(
        "row split U/WGS = %lld/%lld does not divide the tile height into "
        "64-row WGMMA bands",
        static_cast<long long>(U), static_cast<long long>(WGS)));

  // Per-thread register budget for the FP32 accumulator tile, using the
  // resource allocator's own formula: the warpgroup's (U/WGS) x V slice is
  // distributed across the group's threads.
  int64_t RegisterBytes = Machine.capacityBytes(Memory::Register);
  int64_t Threads = Machine.threadsPerInstance(Processor::Warpgroup);
  if (RegisterBytes > 0 && Threads > 0) {
    int64_t PerThread = ceilDiv((U / WGS) * V * 4, Threads);
    if (PerThread > RegisterBytes)
      return Diagnostic(formatString(
          "accumulator tile needs %lld bytes of registers per thread but "
          "the machine provides %lld; split it across more warpgroups",
          static_cast<long long>(PerThread),
          static_cast<long long>(RegisterBytes)));
  }

  // Shared-memory lower bound. The A/B pipeline buffers are concurrently
  // live across the whole K-loop, so they can never alias each other; the
  // output staging tile may alias them (its live range starts after the
  // loop), so the bound is the max of the two groups, not their sum. Each
  // stream is sized by its own effective depth (ArgPipeline override or
  // the loop depth), exactly as the allocator multiplies per-tensor
  // PipelineDepth. A SharedLimitKB cap tightens the budget the same way
  // the allocator's LimitBytes does.
  int64_t SharedBytes = Machine.capacityBytes(Memory::Shared);
  if (SharedLimitKB > 0) {
    int64_t Limit = SharedLimitKB * 1024;
    SharedBytes = SharedBytes > 0 ? std::min(SharedBytes, Limit) : Limit;
  }
  if (SharedBytes > 0) {
    int64_t DepthA = PipeA > 0 ? PipeA : Pipe;
    int64_t DepthB = PipeB > 0 ? PipeB : Pipe;
    int64_t LoopBytes = alignUp(U * W * 2, 128) * DepthA +
                        alignUp(W * V * 2, 128) * DepthB;
    int64_t StagingBytes = WGS * alignUp((U / WGS) * V * 2, 128);
    int64_t Need = std::max(LoopBytes, StagingBytes);
    if (Need > SharedBytes)
      return Diagnostic(formatString(
          "shared memory needs at least %lld bytes (%lld/%lld-deep "
          "pipelines of %lldx%lld and %lldx%lld tiles) but the budget is "
          "%lld per block",
          static_cast<long long>(Need), static_cast<long long>(DepthA),
          static_cast<long long>(DepthB), static_cast<long long>(U),
          static_cast<long long>(W), static_cast<long long>(W),
          static_cast<long long>(V), static_cast<long long>(SharedBytes)));
  }
  return ErrorOrVoid::success();
}

ErrorOrVoid cypress::applyTunable(GemmConfig &Config, const std::string &Name,
                                  int64_t Value) {
  if (Name == "M")
    Config.M = Value;
  else if (Name == "N")
    Config.N = Value;
  else if (Name == "K")
    Config.K = Value;
  else if (Name == "L")
    Config.L = Value;
  else if (Name == "U")
    Config.U = Value;
  else if (Name == "V")
    Config.V = Value;
  else if (Name == "W")
    Config.W = Value;
  else if (Name == "WGS")
    Config.WGS = Value;
  else if (Name == "PIPE")
    Config.Pipe = Value;
  else if (Name == "WSPEC")
    Config.WarpSpecialize = Value != 0;
  else if (Name == "PIPE_A")
    Config.PipeA = Value;
  else if (Name == "PIPE_B")
    Config.PipeB = Value;
  else if (Name == "TMA_A")
    Config.TmaA = Value != 0;
  else if (Name == "TMA_B")
    Config.TmaB = Value != 0;
  else if (Name == "SMEM")
    Config.SharedLimitKB = Value;
  else
    return Diagnostic(formatString("gemm has no tunable named %s",
                                   Name.c_str()));
  return ErrorOrVoid::success();
}

MappingSpec cypress::gemmMapping(const GemmConfig &Config) {
  std::vector<TaskMapping> Instances;
  {
    TaskMapping TM;
    TM.Instance = "gemm_host";
    TM.Variant = "gemm_host";
    TM.Proc = Processor::Host;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global};
    TM.Tunables = {{"U", Config.U}, {"V", Config.V}};
    TM.Entrypoint = true;
    TM.Calls = {"gemm_block"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gemm_block";
    TM.Variant = "gemm_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global};
    TM.Tunables = {{"W", Config.W}};
    TM.Calls = {"clear_block", "gemm_tile", "store_block"};
    TM.WarpSpecialize = Config.WarpSpecialize;
    TM.PipelineDepth = Config.Pipe;
    if (Config.SharedLimitKB > 0)
      TM.SharedLimitBytes = Config.SharedLimitKB * 1024;
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gemm_tile";
    TM.Variant = "gemm_tile";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::None, Memory::Shared, Memory::Shared};
    TM.Tunables = {{"WGS", Config.WGS}};
    TM.Calls = {"gemm_wg"};
    // Per-stream knobs: the A/B tiles staged at this launch boundary may
    // rotate through their own buffer count or pin their loads to SIMT.
    if (Config.PipeA > 0)
      TM.ArgPipeline["A"] = Config.PipeA;
    if (Config.PipeB > 0)
      TM.ArgPipeline["B"] = Config.PipeB;
    if (!Config.TmaA)
      TM.SimtCopyParams.push_back("A");
    if (!Config.TmaB)
      TM.SimtCopyParams.push_back("B");
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gemm_wg";
    TM.Variant = "gemm_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Register, Memory::Shared, Memory::Shared};
    Instances.push_back(TM);
  }
  appendCommonMappings(Instances, Config.WGS);
  return MappingSpec(std::move(Instances));
}

std::vector<TensorType> cypress::gemmArgTypes(const GemmConfig &Config) {
  return {
      {Shape({Config.M, Config.N}), ElementType::F16},
      {Shape({Config.M, Config.K}), ElementType::F16},
      {Shape({Config.K, Config.N}), ElementType::F16},
  };
}

double cypress::gemmFlops(const GemmConfig &Config) {
  return 2.0 * static_cast<double>(Config.L) *
         static_cast<double>(Config.M) * static_cast<double>(Config.N) *
         static_cast<double>(Config.K);
}

//===----------------------------------------------------------------------===//
// Batched GEMM (Figure 13b)
//===----------------------------------------------------------------------===//

void cypress::registerBatchedGemmTasks(TaskRegistry &Registry) {
  registerGemmTasks(Registry);
  if (Registry.hasVariant("bgemm_host"))
    return;

  // Row-stacked layout: C [L*M, N], A [L*M, K], B [L*K, N]. A block's row
  // index determines its batch, which selects the matching K-panel of B.
  Registry.addInner(
      "gemm", "bgemm_host",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t U = Ctx.tunable("U"), V = Ctx.tunable("V");
        int64_t L = Ctx.tunable("L");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t LM = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        int64_t M = LM / L;
        PartitionHandle Cp = Ctx.partitionByBlocks(Args[0], Shape({U, V}));
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({U, K}));
        PartitionHandle Bp = Ctx.partitionByBlocks(Args[2], Shape({K, V}));
        Ctx.prange(
            {ScalarExpr(LM / U), ScalarExpr(N / V)},
            [&](ScalarExprs I) {
              ScalarExpr Batch = I[0].floorDiv(ScalarExpr(M / U));
              Ctx.launch("gemm", {Ctx.index(Cp, {I[0], I[1]}),
                                  Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                                  Ctx.index(Bp, {Batch, I[1]})});
            });
      });
}

MappingSpec cypress::batchedGemmMapping(const GemmConfig &Config) {
  MappingSpec Base = gemmMapping(Config);
  std::vector<TaskMapping> Instances = Base.instances();
  for (TaskMapping &TM : Instances) {
    if (TM.Instance == "gemm_host") {
      TM.Variant = "bgemm_host";
      TM.Tunables["L"] = Config.L;
    }
  }
  return MappingSpec(std::move(Instances));
}

std::vector<TensorType>
cypress::batchedGemmArgTypes(const GemmConfig &Config) {
  return {
      {Shape({Config.L * Config.M, Config.N}), ElementType::F16},
      {Shape({Config.L * Config.M, Config.K}), ElementType::F16},
      {Shape({Config.L * Config.K, Config.N}), ElementType::F16},
  };
}

//===----------------------------------------------------------------------===//
// Dual-GEMM (Figure 13c)
//===----------------------------------------------------------------------===//

void cypress::registerDualGemmTasks(TaskRegistry &Registry) {
  registerCommonTasks(Registry);
  if (Registry.hasVariant("dual_host"))
    return;

  Registry.addInner(
      "dual", "dual_host",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B1", 2, ElementType::F16, Privilege::Read},
       {"B2", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t U = Ctx.tunable("U"), V = Ctx.tunable("V");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Cp = Ctx.partitionByBlocks(Args[0], Shape({U, V}));
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({U, K}));
        PartitionHandle B1p = Ctx.partitionByBlocks(Args[2], Shape({K, V}));
        PartitionHandle B2p = Ctx.partitionByBlocks(Args[3], Shape({K, V}));
        Ctx.prange({ScalarExpr(M / U), ScalarExpr(N / V)},
                   [&](ScalarExprs I) {
                     Ctx.launch("dual",
                                {Ctx.index(Cp, {I[0], I[1]}),
                                 Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                                 Ctx.index(B1p, {ScalarExpr(0), I[1]}),
                                 Ctx.index(B2p, {ScalarExpr(0), I[1]})});
                   });
      });

  Registry.addInner(
      "dual", "dual_block",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B1", 2, ElementType::F16, Privilege::Read},
       {"B2", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t W = Ctx.tunable("W");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({M, W}));
        PartitionHandle B1p = Ctx.partitionByBlocks(Args[2], Shape({W, N}));
        PartitionHandle B2p = Ctx.partitionByBlocks(Args[3], Shape({W, N}));
        TensorHandle Cacc =
            Ctx.makeTensor("Cacc", Shape({M, N}), ElementType::F32);
        Ctx.launch("clear", {Cacc});
        Ctx.srange(ScalarExpr(K / W), [&](ScalarExpr K2) {
          Ctx.launch("dual", {Cacc, Ctx.index(Ap, {ScalarExpr(0), K2}),
                              Ctx.index(B1p, {K2, ScalarExpr(0)}),
                              Ctx.index(B2p, {K2, ScalarExpr(0)})});
        });
        Ctx.launch("store", {Args[0], Cacc});
      });

  Registry.addInner(
      "dual", "dual_tile",
      {{"C", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B1", 2, ElementType::F16, Privilege::Read},
       {"B2", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Cp =
            Ctx.partitionByBlocks(Args[0], Shape({M / Wgs, N}));
        PartitionHandle Ap =
            Ctx.partitionByBlocks(Args[1], Shape({M / Wgs, K}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("dual", {Ctx.index(Cp, {I[0], ScalarExpr(0)}),
                              Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                              Args[2], Args[3]});
        });
      });

  Registry.addLeaf(
      "dual", "dual_wg_leaf",
      {{"C", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B1", 2, ElementType::F16, Privilege::Read},
       {"B2", 2, ElementType::F16, Privilege::Read}},
      {"dual_wgmma", ExecUnit::TensorCore,
       [](const std::vector<Shape> &Shapes) {
         return 4.0 * static_cast<double>(Shapes[0].dim(0)) *
                static_cast<double>(Shapes[0].dim(1)) *
                static_cast<double>(Shapes[1].dim(1));
       }});
}

MappingSpec cypress::dualGemmMapping(const GemmConfig &Config) {
  std::vector<TaskMapping> Instances;
  {
    TaskMapping TM;
    TM.Instance = "dual_host";
    TM.Variant = "dual_host";
    TM.Proc = Processor::Host;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"U", Config.U}, {"V", Config.V}};
    TM.Entrypoint = true;
    TM.Calls = {"dual_block"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "dual_block";
    TM.Variant = "dual_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"W", Config.W}};
    TM.Calls = {"clear_block", "dual_tile", "store_block"};
    TM.WarpSpecialize = Config.WarpSpecialize;
    // Three tile buffers per iteration (A, B1, B2) leave room for only a
    // double-buffered pipeline within the 227 KB of shared memory:
    // (16 + 32 + 32) KB x 2 + 64 KB staging = 224 KB.
    TM.PipelineDepth = std::min<int64_t>(Config.Pipe, 2);
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "dual_tile";
    TM.Variant = "dual_tile";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::None, Memory::Shared, Memory::Shared,
               Memory::Shared};
    TM.Tunables = {{"WGS", Config.WGS}};
    TM.Calls = {"dual_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "dual_wg";
    TM.Variant = "dual_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Register, Memory::Shared, Memory::Shared,
               Memory::Shared};
    Instances.push_back(TM);
  }
  appendCommonMappings(Instances, Config.WGS);
  return MappingSpec(std::move(Instances));
}

std::vector<TensorType> cypress::dualGemmArgTypes(const GemmConfig &Config) {
  return {
      {Shape({Config.M, Config.N}), ElementType::F16},
      {Shape({Config.M, Config.K}), ElementType::F16},
      {Shape({Config.K, Config.N}), ElementType::F16},
      {Shape({Config.K, Config.N}), ElementType::F16},
  };
}

//===----------------------------------------------------------------------===//
// GEMM + Reduction (Figure 13d)
//===----------------------------------------------------------------------===//

void cypress::registerGemmRedTasks(TaskRegistry &Registry) {
  registerGemmTasks(Registry);
  if (Registry.hasVariant("gr_host"))
    return;

  Registry.addInner(
      "gemmred", "gr_host",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read},
       {"Y", 2, ElementType::F32, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t U = Ctx.tunable("U"), V = Ctx.tunable("V");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Cp = Ctx.partitionByBlocks(Args[0], Shape({U, V}));
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({U, K}));
        PartitionHandle Bp = Ctx.partitionByBlocks(Args[2], Shape({K, V}));
        PartitionHandle Yp = Ctx.partitionByBlocks(Args[3], Shape({1, U}));
        Ctx.prange({ScalarExpr(M / U), ScalarExpr(N / V)},
                   [&](ScalarExprs I) {
                     Ctx.launch("gemmred",
                                {Ctx.index(Cp, {I[0], I[1]}),
                                 Ctx.index(Ap, {I[0], ScalarExpr(0)}),
                                 Ctx.index(Bp, {ScalarExpr(0), I[1]}),
                                 Ctx.index(Yp, {I[1], I[0]})});
                   });
      });

  Registry.addInner(
      "gemmred", "gr_block",
      {{"C", 2, ElementType::F16, Privilege::Write},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read},
       {"Y", 2, ElementType::F32, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t W = Ctx.tunable("W");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[1]).dim(1);
        PartitionHandle Ap = Ctx.partitionByBlocks(Args[1], Shape({M, W}));
        PartitionHandle Bp = Ctx.partitionByBlocks(Args[2], Shape({W, N}));
        TensorHandle Cacc =
            Ctx.makeTensor("Cacc", Shape({M, N}), ElementType::F32);
        TensorHandle Yacc =
            Ctx.makeTensor("Yacc", Shape({1, M}), ElementType::F32);
        Ctx.launch("clear", {Cacc});
        Ctx.launch("clear_row", {Yacc});
        Ctx.srange(ScalarExpr(K / W), [&](ScalarExpr K2) {
          Ctx.launch("gemmred_tile",
                     {Cacc, Yacc, Ctx.index(Ap, {ScalarExpr(0), K2}),
                      Ctx.index(Bp, {K2, ScalarExpr(0)})});
        });
        Ctx.launch("store", {Args[0], Cacc});
        Ctx.launch("store_row", {Args[3], Yacc});
      });

  Registry.addInner(
      "gemmred_tile", "gr_tile",
      {{"C", 2, ElementType::F32, Privilege::ReadWrite},
       {"Y", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        const Shape &C = Ctx.shapeOf(Args[0]);
        int64_t M = C.dim(0), N = C.dim(1);
        int64_t K = Ctx.shapeOf(Args[2]).dim(1);
        PartitionHandle Cp =
            Ctx.partitionByBlocks(Args[0], Shape({M / Wgs, N}));
        PartitionHandle Yp =
            Ctx.partitionByBlocks(Args[1], Shape({1, M / Wgs}));
        PartitionHandle Ap =
            Ctx.partitionByBlocks(Args[2], Shape({M / Wgs, K}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("gemmred_wg",
                     {Ctx.index(Cp, {I[0], ScalarExpr(0)}),
                      Ctx.index(Yp, {ScalarExpr(0), I[0]}),
                      Ctx.index(Ap, {I[0], ScalarExpr(0)}), Args[3]});
        });
      });

  // The warpgroup inner variant launches two independent leaves: the WGMMA
  // on the Tensor Core and the row reduction on the SIMT lanes. They touch
  // disjoint accumulators, so the compiler schedules them concurrently —
  // this is the overlap Triton misses (Section 5.2).
  Registry.addInner(
      "gemmred_wg", "gr_wg",
      {{"C", 2, ElementType::F32, Privilege::ReadWrite},
       {"Y", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read},
       {"B", 2, ElementType::F16, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        Ctx.launch("gemm", {Args[0], Args[2], Args[3]});
        Ctx.launch("rowsum", {Args[1], Args[2]});
      });

  Registry.addLeaf(
      "rowsum", "rowsum_wg_leaf",
      {{"Y", 2, ElementType::F32, Privilege::ReadWrite},
       {"A", 2, ElementType::F16, Privilege::Read}},
      {"row_sum_tile", ExecUnit::SIMT,
       [](const std::vector<Shape> &Shapes) {
         return static_cast<double>(Shapes[1].numElements());
       }});

  // clear_row / store_row: column-split variants for the [1, M] vector.
  Registry.addInner(
      "clear_row", "clear_row_block",
      {{"Y", 2, ElementType::F32, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        int64_t M = Ctx.shapeOf(Args[0]).dim(1);
        PartitionHandle Yp =
            Ctx.partitionByBlocks(Args[0], Shape({1, M / Wgs}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("clear", {Ctx.index(Yp, {ScalarExpr(0), I[0]})});
        });
      });

  Registry.addInner(
      "store_row", "store_row_block",
      {{"Y", 2, ElementType::F32, Privilege::Write},
       {"Src", 2, ElementType::F32, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        int64_t M = Ctx.shapeOf(Args[0]).dim(1);
        PartitionHandle Yp =
            Ctx.partitionByBlocks(Args[0], Shape({1, M / Wgs}));
        PartitionHandle Sp =
            Ctx.partitionByBlocks(Args[1], Shape({1, M / Wgs}));
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          Ctx.launch("store_vec", {Ctx.index(Yp, {ScalarExpr(0), I[0]}),
                                   Ctx.index(Sp, {ScalarExpr(0), I[0]})});
        });
      });
  Registry.addLeaf("store_vec", "store_vec_leaf",
                   {{"Y", 2, ElementType::F32, Privilege::Write},
                    {"Src", 2, ElementType::F32, Privilege::Read}},
                   {"store", ExecUnit::SIMT, flopsElems});
}

MappingSpec cypress::gemmRedMapping(const GemmConfig &Config) {
  std::vector<TaskMapping> Instances;
  {
    TaskMapping TM;
    TM.Instance = "gr_host";
    TM.Variant = "gr_host";
    TM.Proc = Processor::Host;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"U", Config.U}, {"V", Config.V}};
    TM.Entrypoint = true;
    TM.Calls = {"gr_block"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gr_block";
    TM.Variant = "gr_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"W", Config.W}};
    TM.Calls = {"clear_block", "clear_row_block", "gr_tile", "store_block",
                "store_row_block"};
    TM.WarpSpecialize = Config.WarpSpecialize;
    TM.PipelineDepth = Config.Pipe;
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gr_tile";
    TM.Variant = "gr_tile";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::None, Memory::None, Memory::Shared, Memory::Shared};
    TM.Tunables = {{"WGS", Config.WGS}};
    TM.Calls = {"gr_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gr_wg";
    TM.Variant = "gr_wg";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::None, Memory::None, Memory::Shared, Memory::Shared};
    TM.Calls = {"gemm_wg", "rowsum_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "gemm_wg";
    TM.Variant = "gemm_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Register, Memory::Shared, Memory::Shared};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "rowsum_wg";
    TM.Variant = "rowsum_wg_leaf";
    TM.Proc = Processor::Warpgroup;
    // The reduction accumulator lives in the register file; Triton's
    // heuristic placement into shared memory is what Section 5.2 shows
    // costs 2x (the ablation bench flips this choice).
    TM.Mems = {Memory::Register, Memory::Shared};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "clear_row_block";
    TM.Variant = "clear_row_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::None};
    TM.Tunables = {{"WGS", Config.WGS}};
    TM.Calls = {"clear_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "store_row_block";
    TM.Variant = "store_row_block";
    TM.Proc = Processor::Block;
    TM.Mems = {Memory::Global, Memory::None};
    TM.Tunables = {{"WGS", Config.WGS}};
    TM.Calls = {"store_vec_wg"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "store_vec_wg";
    TM.Variant = "store_vec_leaf";
    TM.Proc = Processor::Warpgroup;
    TM.Mems = {Memory::Shared, Memory::Register};
    Instances.push_back(TM);
  }
  appendCommonMappings(Instances, Config.WGS);
  return MappingSpec(std::move(Instances));
}

std::vector<TensorType> cypress::gemmRedArgTypes(const GemmConfig &Config) {
  return {
      {Shape({Config.M, Config.N}), ElementType::F16},
      {Shape({Config.M, Config.K}), ElementType::F16},
      {Shape({Config.K, Config.N}), ElementType::F16},
      {Shape({Config.N / Config.V, Config.M}), ElementType::F32},
  };
}
