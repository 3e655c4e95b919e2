//===- ResourceAllocation.cpp - Shared-memory allocation -------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 4 of the compiler (Section 4.2.4, Figure 11). Binds every
/// shared-memory tensor of a block to a physical byte range within the
/// user's per-block budget. The trade-off is memory pressure versus
/// parallelism: aliasing two logical tensors onto one buffer saves space
/// but serializes their live ranges.
///
/// The algorithm starts from the COMPLETE interference graph (every pair of
/// tensors interferes, i.e. nothing aliases) and relaxes: if an allocation
/// under the current graph exceeds the budget, one auxiliary edge — an edge
/// between tensors whose live ranges do NOT actually overlap — is removed
/// (largest combined size first) and allocation retries. Removing edges
/// only between non-overlapping tensors keeps the result correct; starting
/// complete keeps aliasing minimal. If even the true interference graph
/// does not fit, an out-of-memory diagnostic tells the user to adjust the
/// mapping.
///
/// For every aliased pair the pass inserts a write-after-read event edge:
/// the first writer of the later tensor waits on the last readers of the
/// earlier one, preventing reuse hazards.
///
/// All tables live in pooled thread-local scratch indexed densely by tensor
/// id or range index (interference is a flat bit matrix — the shared-tensor
/// count per block is small), so steady-state tuner sweeps neither hash nor
/// allocate here.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>

using namespace cypress;

namespace {

/// Live-range info for one shared tensor within the block body, in
/// flattened op order.
struct LiveRange {
  TensorId Tensor = InvalidTensorId;
  int64_t Bytes = 0;     ///< Allocation size including pipeline buffers.
  size_t FirstUse = 0;   ///< Flattened position of the first def/use.
  size_t LastUse = 0;    ///< Flattened position of the last use.
  Operation *FirstWriter = nullptr;
  Operation *LastReader = nullptr; ///< Latest read position's op.
};

constexpr uint32_t NoRange = ~0u;

/// Pooled per-run tables. LiveRange holds raw Operation pointers, so the
/// scratch never outlives one run() call's module walk.
struct AllocScratch {
  std::vector<Operation *> Order;     ///< Flattened pre-order op sequence.
  std::vector<LiveRange> Ranges;
  std::vector<int64_t> WgExtent;      ///< By tensor id; 0 = no alloc seen.
  std::vector<uint32_t> RangeOf;      ///< By tensor id; NoRange = none.
  std::vector<uint8_t> Edge;          ///< N*N interference bit matrix.
  std::vector<std::pair<size_t, size_t>> Auxiliary;
  std::vector<size_t> BySize;
  std::vector<int64_t> Offsets;
  std::vector<std::pair<int64_t, int64_t>> Forbidden;
  std::vector<uint8_t> RegCounted;    ///< By tensor id.
  /// One op's tensor uses, merged across duplicate occurrences and sorted
  /// by id so range discovery order matches the historical all-tensors
  /// scan at each position.
  struct Use {
    TensorId Tensor;
    bool Reads;
    bool Writes;
  };
  std::vector<Use> Uses;
};

AllocScratch &allocScratch() {
  thread_local AllocScratch Scratch;
  return Scratch;
}

/// Flattens the block body (including loop bodies) into a linear order used
/// for live-range construction. Ops inside loops conservatively extend live
/// ranges across the whole loop.
void linearize(IRBlock &Block, std::vector<Operation *> &Out) {
  for (std::unique_ptr<Operation> &Op : Block.Ops) {
    Out.push_back(Op.get());
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
      linearize(Op->Body, Out);
  }
}

class Allocator {
public:
  Allocator(IRModule &Module, const MachineModel &Machine, int64_t LimitBytes)
      : Module(Module), Machine(Machine), LimitBytes(LimitBytes),
        S(allocScratch()) {}

  ErrorOr<SharedAllocation> run() {
    S.Order.clear();
    linearize(Module.root(), S.Order);
    if (ErrorOrVoid Regs = checkRegisterPressure(); !Regs)
      return Regs.diagnostic();
    collectRanges();
    std::vector<LiveRange> &Ranges = S.Ranges;
    if (Ranges.empty())
      return SharedAllocation{};

    // The mapping may tighten the budget below the machine capacity
    // (TaskMapping::SharedLimitBytes, plumbed through as LimitBytes); the
    // machine capacity is the hard ceiling either way.
    int64_t Budget = Machine.memory(Memory::Shared).CapacityBytes;
    if (LimitBytes > 0)
      Budget = std::min(Budget, LimitBytes);

    // Complete interference graph: every unordered pair starts present.
    // Auxiliary edges are those whose live ranges do not truly overlap.
    size_t N = Ranges.size();
    S.Edge.assign(N * N, 1);
    S.Auxiliary.clear();
    for (size_t I = 0; I < N; ++I) {
      for (size_t J = I + 1; J < N; ++J) {
        bool Overlap = Ranges[I].FirstUse <= Ranges[J].LastUse &&
                       Ranges[J].FirstUse <= Ranges[I].LastUse;
        if (!Overlap)
          S.Auxiliary.push_back({I, J});
      }
    }
    // Remove the largest-combined-size auxiliary edges first: each removal
    // buys the most space, so total aliasing stays minimal.
    std::sort(S.Auxiliary.begin(), S.Auxiliary.end(),
              [&](const auto &A, const auto &B) {
                int64_t SA = Ranges[A.first].Bytes + Ranges[A.second].Bytes;
                int64_t SB = Ranges[B.first].Bytes + Ranges[B.second].Bytes;
                return SA > SB;
              });

    size_t NextRelax = 0;
    SharedAllocation Result;
    while (true) {
      std::optional<SharedAllocation> Attempt = tryAllocate(Budget);
      if (Attempt) {
        Result = std::move(*Attempt);
        break;
      }
      if (NextRelax == S.Auxiliary.size())
        return Diagnostic(formatString(
            "shared memory allocation exceeds the per-block budget of %lld "
            "bytes even with maximal aliasing; map fewer tensors to shared "
            "memory or reduce tile sizes",
            static_cast<long long>(Budget)));
      auto [EI, EJ] = S.Auxiliary[NextRelax++];
      S.Edge[EI * N + EJ] = 0;
      S.Edge[EJ * N + EI] = 0;
    }

    insertWarEdges(Result);
    Result.buildIndex();
    return Result;
  }

private:
  /// Register-file capacity check (Section 3.4): tensors mapped to the
  /// register memory are distributed over the threads of their home
  /// processor level; the per-thread total must fit the 255-register CUDA
  /// limit. This is what forces large accumulators to be split across
  /// warpgroups.
  ErrorOrVoid checkRegisterPressure() {
    const int64_t BytesPerThread =
        Machine.memory(Memory::Register).CapacityBytes;
    // Live-range-insensitive sum: register tensors in our kernels are live
    // for essentially the whole block.
    int64_t PerThreadBytes = 0;
    S.RegCounted.assign(Module.tensors().size(), 0);
    auto Count = [&](TensorId Id) {
      const IRTensor &T = Module.tensor(Id);
      if (T.Mem != Memory::Register || S.RegCounted[Id])
        return;
      S.RegCounted[Id] = 1;
      int64_t Threads = 1;
      switch (T.HomeProc) {
      case Processor::Warpgroup:
        Threads = H100Constants::ThreadsPerWarp *
                  H100Constants::WarpsPerWarpgroup;
        break;
      case Processor::Warp:
        Threads = H100Constants::ThreadsPerWarp;
        break;
      default:
        break;
      }
      PerThreadBytes += ceilDiv(T.Type.sizeBytes(), Threads);
    };
    for (const Operation *Op : S.Order) {
      if (Op->Kind == OpKind::Copy) {
        Count(Op->CopySrc.Tensor);
        Count(Op->CopyDst.Tensor);
      } else if (Op->Kind == OpKind::Call) {
        for (const TensorSlice &Slice : Op->Args)
          Count(Slice.Tensor);
      }
    }
    if (PerThreadBytes > BytesPerThread)
      return Diagnostic(formatString(
          "register allocation needs %lld bytes per thread but the machine "
          "provides %lld (255 registers); split accumulators across more "
          "warpgroups (Section 3.4)",
          static_cast<long long>(PerThreadBytes),
          static_cast<long long>(BytesPerThread)));
    return ErrorOrVoid::success();
  }

  /// Appends \p Op's shared-memory tensor uses to S.Uses, merging duplicate
  /// occurrences (a read-write call argument both reads and writes).
  void gatherUses(Operation &Op) {
    S.Uses.clear();
    auto Note = [&](TensorId Tensor, bool Reads, bool Writes) {
      if (Module.tensor(Tensor).Mem != Memory::Shared)
        return;
      for (AllocScratch::Use &U : S.Uses)
        if (U.Tensor == Tensor) {
          U.Reads |= Reads;
          U.Writes |= Writes;
          return;
        }
      S.Uses.push_back({Tensor, Reads, Writes});
    };
    if (Op.Kind == OpKind::Alloc) {
      Note(Op.AllocTensor, false, false);
    } else if (Op.Kind == OpKind::Copy) {
      Note(Op.CopySrc.Tensor, true, false);
      Note(Op.CopyDst.Tensor, false, true);
    } else if (Op.Kind == OpKind::Call) {
      for (size_t I = 0, E = Op.Args.size(); I != E; ++I)
        Note(Op.Args[I].Tensor, true, Op.ArgIsWritten[I]);
    }
    // Range discovery order must match the historical per-position scan
    // over the module tensor table, i.e. ascending tensor id.
    std::sort(S.Uses.begin(), S.Uses.end(),
              [](const AllocScratch::Use &A, const AllocScratch::Use &B) {
                return A.Tensor < B.Tensor;
              });
  }

  void collectRanges() {
    // Tensors allocated inside flattened warpgroup context have one
    // physical instance per warpgroup; their footprint scales accordingly.
    S.WgExtent.assign(Module.tensors().size(), 0);
    for (const Operation *Op : S.Order) {
      if (Op->Kind != OpKind::Alloc)
        continue;
      S.WgExtent[Op->AllocTensor] = warpgroupExtent(*Op);
    }

    S.Ranges.clear();
    S.RangeOf.assign(Module.tensors().size(), NoRange);
    for (size_t Pos = 0; Pos < S.Order.size(); ++Pos) {
      Operation &Op = *S.Order[Pos];
      gatherUses(Op);
      for (const AllocScratch::Use &U : S.Uses) {
        uint32_t Index = S.RangeOf[U.Tensor];
        if (Index == NoRange) {
          Index = static_cast<uint32_t>(S.Ranges.size());
          S.RangeOf[U.Tensor] = Index;
          const IRTensor &T = Module.tensor(U.Tensor);
          LiveRange R;
          R.Tensor = U.Tensor;
          int64_t Instances =
              S.WgExtent[U.Tensor] ? S.WgExtent[U.Tensor] : 1;
          R.Bytes =
              alignUp(T.Type.sizeBytes(), 128) * T.PipelineDepth * Instances;
          R.FirstUse = Pos;
          S.Ranges.push_back(R);
        }
        LiveRange &R = S.Ranges[Index];
        R.LastUse = Pos;
        if (U.Writes && !R.FirstWriter && Op.Kind != OpKind::Alloc)
          R.FirstWriter = &Op;
        if (U.Reads && Op.Kind != OpKind::Alloc)
          R.LastReader = &Op; // Latest read position wins.
      }
    }
  }

  /// First-fit offset assignment honoring the interference graph: tensors
  /// connected by an edge must not overlap in addresses; unconnected
  /// tensors are packed greedily and may alias.
  std::optional<SharedAllocation> tryAllocate(int64_t Budget) {
    std::vector<LiveRange> &Ranges = S.Ranges;
    size_t N = Ranges.size();
    // Sort by size descending for better packing.
    S.BySize.resize(N);
    for (size_t I = 0; I < N; ++I)
      S.BySize[I] = I;
    std::sort(S.BySize.begin(), S.BySize.end(), [&](size_t A, size_t B) {
      if (Ranges[A].Bytes != Ranges[B].Bytes)
        return Ranges[A].Bytes > Ranges[B].Bytes;
      return A < B;
    });

    S.Offsets.assign(N, -1);
    int64_t High = 0;
    for (size_t I : S.BySize) {
      // Collect forbidden intervals from already-placed neighbors.
      S.Forbidden.clear();
      for (size_t J = 0; J < N; ++J) {
        if (J == I || S.Offsets[J] < 0 || !S.Edge[I * N + J])
          continue;
        S.Forbidden.push_back({S.Offsets[J], S.Offsets[J] + Ranges[J].Bytes});
      }
      std::sort(S.Forbidden.begin(), S.Forbidden.end());
      int64_t Candidate = 0;
      for (const auto &[Lo, Hi] : S.Forbidden) {
        if (Candidate + Ranges[I].Bytes <= Lo)
          break;
        Candidate = std::max(Candidate, Hi);
      }
      if (Candidate + Ranges[I].Bytes > Budget)
        return std::nullopt;
      S.Offsets[I] = Candidate;
      High = std::max(High, Candidate + Ranges[I].Bytes);
    }

    SharedAllocation Result;
    Result.TotalBytes = High;
    for (size_t I = 0; I < N; ++I)
      Result.Entries.push_back({Ranges[I].Tensor, S.Offsets[I],
                                Ranges[I].Bytes});
    // Record aliased pairs (address overlap).
    for (size_t I = 0; I < N; ++I)
      for (size_t J = I + 1; J < N; ++J) {
        bool Overlap = S.Offsets[I] < S.Offsets[J] + Ranges[J].Bytes &&
                       S.Offsets[J] < S.Offsets[I] + Ranges[I].Bytes;
        if (Overlap)
          Result.AliasedPairs.push_back(
              {Ranges[I].Tensor, Ranges[J].Tensor});
      }
    return Result;
  }

  /// For each aliased pair, the later tensor's first writer must wait for
  /// the earlier tensor's last readers (write-after-read on the shared
  /// physical buffer).
  void insertWarEdges(const SharedAllocation &Alloc) {
    for (const auto &[TA, TB] : Alloc.AliasedPairs) {
      LiveRange &A = S.Ranges[S.RangeOf[TA]];
      LiveRange &B = S.Ranges[S.RangeOf[TB]];
      // Order by live range: earlier one's readers gate later's writer.
      LiveRange &Early = A.LastUse <= B.FirstUse ? A : B;
      LiveRange &Late = A.LastUse <= B.FirstUse ? B : A;
      if (!Late.FirstWriter || !Early.LastReader)
        continue;
      Operation *Reader = Early.LastReader;
      if (Reader->Result == InvalidEventId)
        continue;
      EventRef Ref;
      Ref.Event = Reader->Result;
      const EventType &Type = Module.event(Reader->Result).Type;
      for (const EventDim &Dim : Type.Dims) {
        (void)Dim;
        Ref.Indices.push_back(EventIndex::broadcast());
      }
      Late.FirstWriter->Preconds.push_back(std::move(Ref));
    }
  }

  IRModule &Module;
  const MachineModel &Machine;
  int64_t LimitBytes;
  AllocScratch &S;
};

} // namespace

ErrorOr<SharedAllocation>
cypress::runResourceAllocation(IRModule &Module, const MachineModel &Machine,
                               int64_t LimitBytes) {
  return Allocator(Module, Machine, LimitBytes).run();
}

std::unique_ptr<Pass> cypress::createResourceAllocationPass() {
  // The allocator's WAR edges may reference loop-interior events from
  // outside their scope until repair-event-scopes normalizes them, so
  // inter-stage verification is deferred to that pass (verifyAfter=false).
  return std::make_unique<FunctionPass>(
      "resource-allocation",
      [](PipelineState &State) -> ErrorOrVoid {
        // The tightest positive per-instance limit governs the whole
        // kernel: shared memory is one per-block arena, so the strictest
        // instance wins.
        int64_t Limit = 0;
        for (const TaskMapping &TM : State.Input->Mapping->instances())
          if (TM.SharedLimitBytes > 0)
            Limit = Limit ? std::min(Limit, TM.SharedLimitBytes)
                          : TM.SharedLimitBytes;
        ErrorOr<SharedAllocation> Alloc =
            runResourceAllocation(State.Module, *State.Input->Machine, Limit);
        if (!Alloc)
          return Alloc.diagnostic();
        State.Alloc = std::move(*Alloc);
        return ErrorOrVoid::success();
      },
      /*Verify=*/false);
}
