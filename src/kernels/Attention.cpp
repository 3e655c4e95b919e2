//===- Attention.cpp - Flash Attention 2/3 Cypress kernels ------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward attention (Section 5.3). The logical description follows the
/// Flash Attention 2 algorithm: per 192-row query block, loop over 64-row
/// key/value tiles computing S = Q.K^T, an online-softmax update, and
/// O += P.V, with the running max/denominator kept in registers. Query
/// rows split across three consumer warpgroups (the tuning the paper found
/// competitive with Flash Attention 3); K/V tiles stream through shared
/// memory via the TMA with a 2-deep pipeline.
///
/// The FA3 variant (StageScores) restructures the loop exactly as the
/// Flash Attention 3 paper does: the score tile is copied into a staging
/// register tile immediately after Q.K^T, so the *next* iteration's Q.K^T
/// (which only write-after-read depends on the staging copy, not on the
/// softmax) can overlap the current softmax. Cypress infers all of the
/// interleaved synchronization from the sequential program.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <cmath>

using namespace cypress;

namespace {

double flopsQK(const std::vector<Shape> &Shapes) {
  // S [m, BC], Q [m, D]: 2 * m * BC * D.
  return 2.0 * static_cast<double>(Shapes[0].dim(0)) *
         static_cast<double>(Shapes[0].dim(1)) *
         static_cast<double>(Shapes[1].dim(1));
}

double flopsPV(const std::vector<Shape> &Shapes) {
  // O [m, D], S [m, BC]: 2 * m * D * BC.
  return 2.0 * static_cast<double>(Shapes[0].dim(0)) *
         static_cast<double>(Shapes[0].dim(1)) *
         static_cast<double>(Shapes[1].dim(1));
}

double flopsSoftmax(const std::vector<Shape> &Shapes) {
  // Per score: scale, max pass, subtract, exponential (~8 FLOP-equivalents
  // on the SFU path including the FP32<->FP16 conversions), sum pass; plus
  // two D-wide passes over the output accumulator for the rescale.
  double M = static_cast<double>(Shapes[0].dim(0));
  double N = static_cast<double>(Shapes[0].dim(1));
  double D = static_cast<double>(Shapes[3].dim(1));
  return M * (12.0 * N + 2.0 * D);
}

/// Declares a warpgroup-splitting inner task that partitions all arguments
/// row-wise and forwards to \p Child. Several attention stages share this
/// shape, differing only in which arguments exist.
void addRowSplitTask(TaskRegistry &Registry, const std::string &Task,
                     const std::string &Variant, const std::string &Child,
                     std::vector<TaskParam> Params,
                     std::vector<bool> SplitArg) {
  Registry.addInner(
      Task, Variant, Params,
      [Child, SplitArg](InnerContext &Ctx, TensorHandles Args) {
        int64_t Wgs = Ctx.tunable("WGS");
        InlineVector<PartitionHandle, 8> Parts;
        for (size_t I = 0; I < Args.size(); ++I)
          Parts.push_back(PartitionHandle());
        for (size_t I = 0; I < Args.size(); ++I) {
          if (!SplitArg[I])
            continue;
          const Shape &S = Ctx.shapeOf(Args[I]);
          if (S.rank() == 2 && S.dim(0) > 1) {
            Parts[I] =
                Ctx.partitionByBlocks(Args[I], Shape({S.dim(0) / Wgs,
                                                      S.dim(1)}));
          } else if (S.rank() == 1) {
            Parts[I] = Ctx.partitionByBlocks(Args[I],
                                             Shape({S.dim(0) / Wgs}));
          }
        }
        Ctx.prange({ScalarExpr(Wgs)}, [&](ScalarExprs I) {
          InlineVector<TensorHandle, 8> Pieces;
          for (size_t A = 0; A < Args.size(); ++A) {
            if (!SplitArg[A]) {
              Pieces.push_back(Args[A]);
              continue;
            }
            const Shape &S = Ctx.shapeOf(Args[A]);
            if (S.rank() == 1)
              Pieces.push_back(Ctx.index(Parts[A], {I[0]}));
            else
              Pieces.push_back(
                  Ctx.index(Parts[A], {I[0], ScalarExpr(0)}));
          }
          Ctx.launch(Child, Pieces, Ctx.scalarArgs());
        });
      });
}

} // namespace

AttentionConfig cypress::fa2Config(int64_t SeqLen) {
  AttentionConfig Config;
  Config.SeqLen = SeqLen;
  Config.WGS = 3;
  Config.BR = 192;
  Config.BC = 128;
  Config.Pipe = 2;
  Config.StageScores = false;
  return Config;
}

AttentionConfig cypress::fa3Config(int64_t SeqLen) {
  // Same three-consumer-warpgroup tuning as FA2 (the paper found this
  // competitive with the reference FA3's two-warpgroup layout), plus the
  // staged-scores main loop.
  AttentionConfig Config = fa2Config(SeqLen);
  Config.StageScores = true;
  return Config;
}

ErrorOrVoid AttentionConfig::validate(const MachineModel &Machine) const {
  if (Batch <= 0 || Heads <= 0 || SeqLen <= 0 || HeadDim <= 0 || BR <= 0 ||
      BC <= 0 || WGS <= 0 || Pipe <= 0)
    return Diagnostic("attention problem sizes and tunables must be positive");
  if (PipeK < 0 || PipeV < 0 || SharedLimitKB < 0)
    return Diagnostic(
        "attention per-stream pipeline depths and the shared-memory limit "
        "must be non-negative (0 = default)");
  // The host task tiles the row-stacked [Batch*Heads*SeqLen, D] tensors by
  // BR-row query blocks (blocks may straddle head boundaries — Heads is
  // chosen so the panel indexing still lands on whole heads), and the main
  // loop streams BC-row K/V tiles over one sequence.
  if ((Batch * Heads * SeqLen) % BR != 0 || SeqLen % BC != 0)
    return Diagnostic(formatString(
        "query block %lld / key block %lld do not divide the %lld stacked "
        "rows / sequence length %lld",
        static_cast<long long>(BR), static_cast<long long>(BC),
        static_cast<long long>(Batch * Heads * SeqLen),
        static_cast<long long>(SeqLen)));
  if (BR % WGS != 0 || (BR / WGS) % 64 != 0)
    return Diagnostic(formatString(
        "row split BR/WGS = %lld/%lld does not divide the query block into "
        "64-row WGMMA bands",
        static_cast<long long>(BR), static_cast<long long>(WGS)));

  // Register lower bound: the output accumulator and the score tile(s) are
  // concurrently live in every main-loop iteration, each split row-wise
  // across the consumer warpgroups.
  int64_t RegisterBytes = Machine.capacityBytes(Memory::Register);
  int64_t Threads = Machine.threadsPerInstance(Processor::Warpgroup);
  if (RegisterBytes > 0 && Threads > 0) {
    int64_t Rows = BR / WGS;
    int64_t ScoreTiles = StageScores ? 2 : 1;
    int64_t PerThread = ceilDiv(Rows * HeadDim * 4, Threads) +
                        ScoreTiles * ceilDiv(Rows * BC * 4, Threads);
    if (PerThread > RegisterBytes)
      return Diagnostic(formatString(
          "accumulator and score tiles need %lld bytes of registers per "
          "thread but the machine provides %lld; split across more "
          "warpgroups or shrink BC",
          static_cast<long long>(PerThread),
          static_cast<long long>(RegisterBytes)));
  }

  // Shared lower bound, mirroring the allocator's aliasing on this
  // mapping: the Q tile is live across the qk launch and truly interferes
  // with the K pipeline buffers, so they sum. The V pipeline feeds the
  // later pv launch and its buffers fully alias the Q+K region (the
  // allocator serializes the two groups with write-after-read edges), so
  // the loop bound is max(Q + K-deep, V-deep), and the output staging
  // tile only matters if it exceeds everything else.
  int64_t SharedBytes = Machine.capacityBytes(Memory::Shared);
  if (SharedLimitKB > 0) {
    int64_t Limit = SharedLimitKB * 1024;
    SharedBytes = SharedBytes > 0 ? std::min(SharedBytes, Limit) : Limit;
  }
  if (SharedBytes > 0) {
    int64_t DepthK = PipeK > 0 ? PipeK : Pipe;
    int64_t DepthV = PipeV > 0 ? PipeV : Pipe;
    int64_t QBytes = alignUp(BR * HeadDim * 2, 128);
    int64_t TileBytes = alignUp(BC * HeadDim * 2, 128);
    int64_t LoopBytes = std::max(QBytes + TileBytes * DepthK,
                                 TileBytes * DepthV);
    int64_t StagingBytes = WGS * alignUp((BR / WGS) * HeadDim * 2, 128);
    int64_t Need = std::max(LoopBytes, StagingBytes);
    if (Need > SharedBytes)
      return Diagnostic(formatString(
          "shared memory needs at least %lld bytes (Q tile plus "
          "%lld/%lld-deep K/V pipelines) but the budget is %lld per block",
          static_cast<long long>(Need), static_cast<long long>(DepthK),
          static_cast<long long>(DepthV),
          static_cast<long long>(SharedBytes)));
  }
  return ErrorOrVoid::success();
}

ErrorOrVoid cypress::applyTunable(AttentionConfig &Config,
                                  const std::string &Name, int64_t Value) {
  if (Name == "BATCH")
    Config.Batch = Value;
  else if (Name == "HEADS")
    Config.Heads = Value;
  else if (Name == "SEQ")
    Config.SeqLen = Value;
  else if (Name == "D")
    Config.HeadDim = Value;
  else if (Name == "BR")
    Config.BR = Value;
  else if (Name == "BC")
    Config.BC = Value;
  else if (Name == "WGS")
    Config.WGS = Value;
  else if (Name == "PIPE")
    Config.Pipe = Value;
  else if (Name == "STAGE")
    Config.StageScores = Value != 0;
  else if (Name == "PIPE_K")
    Config.PipeK = Value;
  else if (Name == "PIPE_V")
    Config.PipeV = Value;
  else if (Name == "SMEM")
    Config.SharedLimitKB = Value;
  else
    return Diagnostic(formatString("attention has no tunable named %s",
                                   Name.c_str()));
  return ErrorOrVoid::success();
}

void cypress::registerAttentionTasks(TaskRegistry &Registry) {
  if (Registry.hasVariant("fa_host"))
    return;

  TaskParam OW{"O", 2, ElementType::F16, Privilege::Write};
  TaskParam QR{"Q", 2, ElementType::F16, Privilege::Read};
  TaskParam KR{"K", 2, ElementType::F16, Privilege::Read};
  TaskParam VR{"V", 2, ElementType::F16, Privilege::Read};

  // fa_host: one block per 192-row query band; K/V panels per head.
  Registry.addInner(
      "fa", "fa_host", {OW, QR, KR, VR},
      [](InnerContext &Ctx, TensorHandles Args) {
        int64_t BR = Ctx.tunable("BR");
        int64_t S = Ctx.tunable("S");
        const Shape &O = Ctx.shapeOf(Args[0]);
        int64_t Rows = O.dim(0), D = O.dim(1);
        PartitionHandle Op = Ctx.partitionByBlocks(Args[0], Shape({BR, D}));
        PartitionHandle Qp = Ctx.partitionByBlocks(Args[1], Shape({BR, D}));
        PartitionHandle Kp = Ctx.partitionByBlocks(Args[2], Shape({S, D}));
        PartitionHandle Vp = Ctx.partitionByBlocks(Args[3], Shape({S, D}));
        Ctx.prange({ScalarExpr(Rows / BR)}, [&](ScalarExprs I) {
          ScalarExpr Head = I[0].floorDiv(ScalarExpr(S / BR));
          Ctx.launch("fa", {Ctx.index(Op, {I[0], ScalarExpr(0)}),
                            Ctx.index(Qp, {I[0], ScalarExpr(0)}),
                            Ctx.index(Kp, {Head, ScalarExpr(0)}),
                            Ctx.index(Vp, {Head, ScalarExpr(0)})});
        });
      });

  // The FA2 main loop (per block): S = Q.K^T; online softmax; O += P.V.
  auto Fa2Body = [](InnerContext &Ctx, TensorHandles Args) {
    int64_t BC = Ctx.tunable("BC");
    const Shape &O = Ctx.shapeOf(Args[0]);
    int64_t BR = O.dim(0), D = O.dim(1);
    int64_t S = Ctx.shapeOf(Args[2]).dim(0);
    int64_t ScaleFx = static_cast<int64_t>(
        65536.0 / std::sqrt(static_cast<double>(D)));

    PartitionHandle Kp = Ctx.partitionByBlocks(Args[2], Shape({BC, D}));
    PartitionHandle Vp = Ctx.partitionByBlocks(Args[3], Shape({BC, D}));
    TensorHandle Oacc =
        Ctx.makeTensor("Oacc", Shape({BR, D}), ElementType::F32);
    TensorHandle Mx = Ctx.makeTensor("Mx", Shape({BR}), ElementType::F32);
    TensorHandle L = Ctx.makeTensor("L", Shape({BR}), ElementType::F32);
    TensorHandle Sc =
        Ctx.makeTensor("Sc", Shape({BR, BC}), ElementType::F32);

    Ctx.launch("fa_init", {Oacc, Mx, L});
    Ctx.srange(ScalarExpr(S / BC), [&](ScalarExpr K2) {
      Ctx.launch("fa_qk",
                 {Sc, Args[1], Ctx.index(Kp, {K2, ScalarExpr(0)})});
      Ctx.launch("fa_softmax", {Sc, Mx, L, Oacc},
                 {ScalarExpr(ScaleFx)});
      Ctx.launch("fa_pv", {Oacc, Sc, Ctx.index(Vp, {K2, ScalarExpr(0)})});
    });
    Ctx.launch("fa_out", {Args[0], Oacc, L});
  };
  Registry.addInner("fa", "fa2_block", {OW, QR, KR, VR}, Fa2Body);

  // The FA3 restructuring: stage the scores so the next Q.K^T overlaps the
  // current softmax (Section 5.3's pipelined main loop).
  auto Fa3Body = [](InnerContext &Ctx, TensorHandles Args) {
    int64_t BC = Ctx.tunable("BC");
    const Shape &O = Ctx.shapeOf(Args[0]);
    int64_t BR = O.dim(0), D = O.dim(1);
    int64_t S = Ctx.shapeOf(Args[2]).dim(0);
    int64_t ScaleFx = static_cast<int64_t>(
        65536.0 / std::sqrt(static_cast<double>(D)));

    PartitionHandle Kp = Ctx.partitionByBlocks(Args[2], Shape({BC, D}));
    PartitionHandle Vp = Ctx.partitionByBlocks(Args[3], Shape({BC, D}));
    TensorHandle Oacc =
        Ctx.makeTensor("Oacc", Shape({BR, D}), ElementType::F32);
    TensorHandle Mx = Ctx.makeTensor("Mx", Shape({BR}), ElementType::F32);
    TensorHandle L = Ctx.makeTensor("L", Shape({BR}), ElementType::F32);
    TensorHandle Sc =
        Ctx.makeTensor("Sc", Shape({BR, BC}), ElementType::F32);
    TensorHandle Sc2 =
        Ctx.makeTensor("Sc2", Shape({BR, BC}), ElementType::F32);

    Ctx.launch("fa_init", {Oacc, Mx, L});
    Ctx.srange(ScalarExpr(S / BC), [&](ScalarExpr K2) {
      Ctx.launch("fa_qk",
                 {Sc, Args[1], Ctx.index(Kp, {K2, ScalarExpr(0)})});
      // Staging copy: after it completes, Sc is free for the next
      // iteration's Q.K^T while the softmax chews on Sc2.
      Ctx.launch("fa_stage", {Sc2, Sc});
      Ctx.launch("fa_softmax", {Sc2, Mx, L, Oacc},
                 {ScalarExpr(ScaleFx)});
      Ctx.launch("fa_pv", {Oacc, Sc2, Ctx.index(Vp, {K2, ScalarExpr(0)})});
    });
    Ctx.launch("fa_out", {Args[0], Oacc, L});
  };
  Registry.addInner("fa", "fa3_block", {OW, QR, KR, VR}, Fa3Body);

  //===--- Stage task trees (warpgroup row splits + leaves) ---------------===//

  addRowSplitTask(Registry, "fa_init", "fa_init_block", "fa_init_wg",
                  {{"O", 2, ElementType::F32, Privilege::Write},
                   {"Mx", 1, ElementType::F32, Privilege::Write},
                   {"L", 1, ElementType::F32, Privilege::Write}},
                  {true, true, true});
  Registry.addInner(
      "fa_init_wg", "fa_init_wg",
      {{"O", 2, ElementType::F32, Privilege::Write},
       {"Mx", 1, ElementType::F32, Privilege::Write},
       {"L", 1, ElementType::F32, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        Ctx.launch("clear", {Args[0]});
        Ctx.launch("smx_init", {Args[1], Args[2]});
      });
  Registry.addLeaf("smx_init", "smx_init_leaf",
                   {{"Mx", 1, ElementType::F32, Privilege::Write},
                    {"L", 1, ElementType::F32, Privilege::Write}},
                   {"softmax_init", ExecUnit::SIMT,
                    [](const std::vector<Shape> &Shapes) {
                      return static_cast<double>(Shapes[0].numElements());
                    }});

  addRowSplitTask(Registry, "fa_qk", "fa_qk_block", "fa_qk_wg",
                  {{"S", 2, ElementType::F32, Privilege::Write},
                   {"Q", 2, ElementType::F16, Privilege::Read},
                   {"K", 2, ElementType::F16, Privilege::Read}},
                  {true, true, false});
  Registry.addLeaf("fa_qk_wg", "fa_qk_wg_leaf",
                   {{"S", 2, ElementType::F32, Privilege::Write},
                    {"Q", 2, ElementType::F16, Privilege::Read},
                    {"K", 2, ElementType::F16, Privilege::Read}},
                   {"wgmma_fp16_bt_set", ExecUnit::TensorCore, flopsQK});

  addRowSplitTask(Registry, "fa_softmax", "fa_softmax_block",
                  "fa_softmax_wg",
                  {{"S", 2, ElementType::F32, Privilege::ReadWrite},
                   {"Mx", 1, ElementType::F32, Privilege::ReadWrite},
                   {"L", 1, ElementType::F32, Privilege::ReadWrite},
                   {"O", 2, ElementType::F32, Privilege::ReadWrite}},
                  {true, true, true, true});
  Registry.addLeaf("fa_softmax_wg", "fa_softmax_wg_leaf",
                   {{"S", 2, ElementType::F32, Privilege::ReadWrite},
                    {"Mx", 1, ElementType::F32, Privilege::ReadWrite},
                    {"L", 1, ElementType::F32, Privilege::ReadWrite},
                    {"O", 2, ElementType::F32, Privilege::ReadWrite}},
                   {"softmax_step", ExecUnit::SIMT, flopsSoftmax});

  addRowSplitTask(Registry, "fa_pv", "fa_pv_block", "fa_pv_wg",
                  {{"O", 2, ElementType::F32, Privilege::ReadWrite},
                   {"S", 2, ElementType::F32, Privilege::Read},
                   {"V", 2, ElementType::F16, Privilege::Read}},
                  {true, true, false});
  Registry.addLeaf("fa_pv_wg", "fa_pv_wg_leaf",
                   {{"O", 2, ElementType::F32, Privilege::ReadWrite},
                    {"S", 2, ElementType::F32, Privilege::Read},
                    {"V", 2, ElementType::F16, Privilege::Read}},
                   {"wgmma_fp16", ExecUnit::TensorCore, flopsPV});

  addRowSplitTask(Registry, "fa_stage", "fa_stage_block", "fa_stage_wg",
                  {{"Dst", 2, ElementType::F32, Privilege::Write},
                   {"Src", 2, ElementType::F32, Privilege::Read}},
                  {true, true});
  Registry.addLeaf("fa_stage_wg", "fa_stage_wg_leaf",
                   {{"Dst", 2, ElementType::F32, Privilege::Write},
                    {"Src", 2, ElementType::F32, Privilege::Read}},
                   {"store", ExecUnit::SIMT,
                    [](const std::vector<Shape> &Shapes) {
                      return static_cast<double>(Shapes[0].numElements());
                    }});

  addRowSplitTask(Registry, "fa_out", "fa_out_block", "fa_out_wg",
                  {{"O", 2, ElementType::F16, Privilege::Write},
                   {"Acc", 2, ElementType::F32, Privilege::ReadWrite},
                   {"L", 1, ElementType::F32, Privilege::Read}},
                  {true, true, true});
  Registry.addInner(
      "fa_out_wg", "fa_out_wg",
      {{"O", 2, ElementType::F16, Privilege::Write},
       {"Acc", 2, ElementType::F32, Privilege::ReadWrite},
       {"L", 1, ElementType::F32, Privilege::Read}},
      [](InnerContext &Ctx, TensorHandles Args) {
        Ctx.launch("smx_fin", {Args[1], Args[2]});
        Ctx.launch("store", {Args[0], Args[1]});
      });
  Registry.addLeaf("smx_fin", "smx_fin_leaf",
                   {{"O", 2, ElementType::F32, Privilege::ReadWrite},
                    {"L", 1, ElementType::F32, Privilege::Read}},
                   {"softmax_finalize", ExecUnit::SIMT,
                    [](const std::vector<Shape> &Shapes) {
                      return static_cast<double>(Shapes[0].numElements());
                    }});

  // Shared store leaf (same shape as the GEMM one, registered here too so
  // attention works in a registry without the GEMM tasks).
  if (!Registry.hasVariant("store_wg_leaf"))
    Registry.addLeaf("store", "store_wg_leaf",
                     {{"C", 2, ElementType::F16, Privilege::Write},
                      {"Src", 2, ElementType::F32, Privilege::Read}},
                     {"store", ExecUnit::SIMT,
                      [](const std::vector<Shape> &Shapes) {
                        return static_cast<double>(
                            Shapes[0].numElements());
                      }});
  if (!Registry.hasVariant("clear_wg_leaf"))
    Registry.addLeaf("clear", "clear_wg_leaf",
                     {{"C", 2, ElementType::F32, Privilege::Write}},
                     {"clear", ExecUnit::SIMT,
                      [](const std::vector<Shape> &Shapes) {
                        return static_cast<double>(
                            Shapes[0].numElements());
                      }});
}

MappingSpec cypress::attentionMapping(const AttentionConfig &Config) {
  std::vector<TaskMapping> Instances;
  auto Block = [&](const std::string &Instance, const std::string &Variant,
                   std::vector<Memory> Mems,
                   std::vector<std::string> Calls) {
    TaskMapping TM;
    TM.Instance = Instance;
    TM.Variant = Variant;
    TM.Proc = Processor::Block;
    TM.Mems = std::move(Mems);
    TM.Tunables["WGS"] = Config.WGS;
    TM.Calls = std::move(Calls);
    Instances.push_back(TM);
  };
  auto Wg = [&](const std::string &Instance, const std::string &Variant,
                std::vector<Memory> Mems,
                std::vector<std::string> Calls = {}) {
    TaskMapping TM;
    TM.Instance = Instance;
    TM.Variant = Variant;
    TM.Proc = Processor::Warpgroup;
    TM.Mems = std::move(Mems);
    TM.Calls = std::move(Calls);
    Instances.push_back(TM);
  };

  {
    TaskMapping TM;
    TM.Instance = "fa_host";
    TM.Variant = "fa_host";
    TM.Proc = Processor::Host;
    TM.Mems = {Memory::Global, Memory::Global, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"BR", Config.BR}, {"S", Config.SeqLen}};
    TM.Entrypoint = true;
    TM.Calls = {"fa_block"};
    Instances.push_back(TM);
  }
  {
    TaskMapping TM;
    TM.Instance = "fa_block";
    TM.Variant = Config.StageScores ? "fa3_block" : "fa2_block";
    TM.Proc = Processor::Block;
    // Q is staged into shared memory once per block; K/V panels stay in
    // global memory and stream tile-by-tile through the TMA.
    TM.Mems = {Memory::Global, Memory::Shared, Memory::Global,
               Memory::Global};
    TM.Tunables = {{"BC", Config.BC}};
    TM.Calls = {"fa_init_block", "fa_qk_block", "fa_softmax_block",
                "fa_pv_block",  "fa_out_block", "fa_stage_block"};
    TM.WarpSpecialize = true;
    TM.PipelineDepth = Config.Pipe;
    if (Config.SharedLimitKB > 0)
      TM.SharedLimitBytes = Config.SharedLimitKB * 1024;
    Instances.push_back(TM);
  }

  Block("fa_init_block", "fa_init_block",
        {Memory::None, Memory::None, Memory::None}, {"fa_init_wg"});
  Wg("fa_init_wg", "fa_init_wg",
     {Memory::None, Memory::None, Memory::None},
     {"clear_wg", "smx_init_wg"});
  Wg("clear_wg", "clear_wg_leaf", {Memory::Register});
  Wg("smx_init_wg", "smx_init_leaf", {Memory::Register, Memory::Register});

  Block("fa_qk_block", "fa_qk_block",
        {Memory::None, Memory::None, Memory::Shared}, {"fa_qk_wg"});
  // The K tile staged at this boundary may rotate through its own buffer
  // count, decoupled from the loop depth (and likewise V below).
  if (Config.PipeK > 0)
    Instances.back().ArgPipeline["K"] = Config.PipeK;
  Wg("fa_qk_wg", "fa_qk_wg_leaf",
     {Memory::Register, Memory::Shared, Memory::Shared});

  Block("fa_softmax_block", "fa_softmax_block",
        {Memory::None, Memory::None, Memory::None, Memory::None},
        {"fa_softmax_wg"});
  Wg("fa_softmax_wg", "fa_softmax_wg_leaf",
     {Memory::Register, Memory::Register, Memory::Register,
      Memory::Register});

  Block("fa_pv_block", "fa_pv_block",
        {Memory::None, Memory::None, Memory::Shared}, {"fa_pv_wg"});
  if (Config.PipeV > 0)
    Instances.back().ArgPipeline["V"] = Config.PipeV;
  Wg("fa_pv_wg", "fa_pv_wg_leaf",
     {Memory::Register, Memory::Register, Memory::Shared});

  Block("fa_stage_block", "fa_stage_block", {Memory::None, Memory::None},
        {"fa_stage_wg"});
  Wg("fa_stage_wg", "fa_stage_wg_leaf",
     {Memory::Register, Memory::Register});

  Block("fa_out_block", "fa_out_block",
        {Memory::Global, Memory::None, Memory::None}, {"fa_out_wg"});
  Wg("fa_out_wg", "fa_out_wg", {Memory::None, Memory::None, Memory::None},
     {"smx_fin_wg", "store_wg"});
  Wg("smx_fin_wg", "smx_fin_leaf", {Memory::Register, Memory::Register});
  Wg("store_wg", "store_wg_leaf", {Memory::Shared, Memory::Register});

  return MappingSpec(std::move(Instances));
}

std::vector<TensorType>
cypress::attentionArgTypes(const AttentionConfig &Config) {
  int64_t Rows = Config.Batch * Config.Heads * Config.SeqLen;
  TensorType T{Shape({Rows, Config.HeadDim}), ElementType::F16};
  return {T, T, T, T};
}

double cypress::attentionFlops(const AttentionConfig &Config) {
  // The convention used by the Flash Attention papers: 4 * S^2 * D FLOPs
  // per (batch, head) for the forward pass.
  return 4.0 * static_cast<double>(Config.Batch) *
         static_cast<double>(Config.Heads) *
         static_cast<double>(Config.SeqLen) *
         static_cast<double>(Config.SeqLen) *
         static_cast<double>(Config.HeadDim);
}
