//===- CopyElimination.cpp - Removing copy-in/copy-out copies --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 3 of the compiler (Section 4.2.3). The copy-in/copy-out discipline
/// of the dependence analysis makes the analysis local but introduces many
/// unnecessary copies; this pass removes them with a set of rewrite patterns
/// akin to Figure 10 (and Sequoia's compiler):
///
///  * launch-pair forwarding: a launch argument's fresh tensor whose mapped
///    memory matches the data it copies from (or is `none`) is replaced by
///    the original slice; the paired copies then die as self-copies,
///  * copy propagation: `copy(X -> P); ...; copy(P -> Y)` over the same
///    piece with no intervening writes rewrites the consumer to read X,
///  * self-copy and duplicate elimination (Figure 10d/c), renaming the
///    erased event into its single-precondition event where ranks align and
///    splicing preconditions (with broadcast-aware processor index
///    conversion) otherwise — preserving the synchronization that collapsed
///    event arrays imply,
///  * spill hoisting (Figure 10b): a loop body that copies a piece into an
///    accumulator at the top and back at the bottom, with a loop-invariant
///    color, hoists the pair into the preamble/postamble — this is what
///    keeps the GEMM accumulator resident in the register file across the
///    K loop,
///  * dead-copy/dead-alloc cleanup.
///
/// Patterns that can eliminate events run before ones that must preserve
/// dependencies, mirroring the paper's ordering heuristic. After the
/// fixpoint, any tensor mapped to the `none` memory that still appears in a
/// copy or call is reported as an unsatisfiable mapping constraint
/// (Section 3.3).
///
/// The engine is worklist-driven over a flat op graph built once per run:
/// every op gets a slot in program (pre)order, with per-event user lists
/// and per-tensor toucher lists maintained incrementally across rewrites.
/// Event renames and precondition splices walk use-lists instead of the
/// module; erasure is lazy (slots are marked dead and swept once at the
/// end); each per-op pattern pops candidate anchors in program order from
/// its own bitset worklist, re-seeded only where a rewrite can change a
/// match (the anchors that scan a touched tensor's touchers past the
/// rewritten op, and the ops whose erase legality moved). The rewrite
/// sequence — and therefore the printed IR, pinned byte-for-byte by
/// CompilerParityTest — is identical to the historical rescan-everything
/// implementation; only the work to find each rewrite changed.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "support/Format.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace cypress;

namespace {

constexpr uint32_t InvalidSlot = ~0u;

//===----------------------------------------------------------------------===//
// Structural slice equivalence
//===----------------------------------------------------------------------===//

bool colorsEqual(const InlineVector<ScalarExpr, 2> &A,
                 const InlineVector<ScalarExpr, 2> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (!A[I].equals(B[I]))
      return false;
  return true;
}

/// True if two slices denote the same data: same root tensor, same buffer,
/// and structurally identical partition chains (specs compared by value, so
/// two tasks partitioning the same tensor the same way match even though
/// they created distinct partition ids).
bool sliceEquivalent(const IRModule &M, const TensorSlice &A,
                     const TensorSlice &B) {
  if (A.Tensor != B.Tensor)
    return false;
  if (!A.BufferIndex.equals(B.BufferIndex))
    return false;
  if (A.isWhole() != B.isWhole())
    return false;
  if (A.isWhole())
    return true;
  const IRPartition &PA = M.partition(*A.Part);
  const IRPartition &PB = M.partition(*B.Part);
  if (!PA.Spec.equals(PB.Spec))
    return false;
  if (!colorsEqual(A.Color, B.Color))
    return false;
  return sliceEquivalent(M, PA.Base, PB.Base);
}

//===----------------------------------------------------------------------===//
// Slice/tensor helpers
//===----------------------------------------------------------------------===//

/// Visits every slice of an op (in place). Templated: this runs inside
/// every slice rewrite, so the callback must not go through std::function.
template <typename Fn> void forEachSlice(Operation &Op, const Fn &Callback) {
  if (Op.Kind == OpKind::Copy) {
    Callback(Op.CopySrc);
    Callback(Op.CopyDst);
  } else if (Op.Kind == OpKind::Call) {
    for (TensorSlice &Slice : Op.Args)
      Callback(Slice);
  }
}

/// Does the op read (or write) data rooted at \p Tensor?
bool opReadsTensor(const Operation &Op, TensorId Tensor) {
  if (Op.Kind == OpKind::Copy)
    return Op.CopySrc.Tensor == Tensor;
  if (Op.Kind == OpKind::Call) {
    for (size_t I = 0, E = Op.Args.size(); I != E; ++I)
      if (Op.Args[I].Tensor == Tensor)
        return true; // Calls may read even written args (read-write).
  }
  return false;
}

bool opWritesTensor(const Operation &Op, TensorId Tensor) {
  if (Op.Kind == OpKind::Copy)
    return Op.CopyDst.Tensor == Tensor;
  if (Op.Kind == OpKind::Call) {
    for (size_t I = 0, E = Op.Args.size(); I != E; ++I)
      if (Op.Args[I].Tensor == Tensor && Op.ArgIsWritten[I])
        return true;
  }
  return false;
}

/// The distinct root tensors an op's slices reference, in slice order.
void collectRoots(const Operation &Op, std::vector<TensorId> &Out) {
  Out.clear();
  auto Add = [&Out](TensorId T) {
    for (TensorId Have : Out)
      if (Have == T)
        return;
    Out.push_back(T);
  };
  if (Op.Kind == OpKind::Copy) {
    Add(Op.CopySrc.Tensor);
    Add(Op.CopyDst.Tensor);
  } else if (Op.Kind == OpKind::Call) {
    for (const TensorSlice &Slice : Op.Args)
      Add(Slice.Tensor);
  }
}

//===----------------------------------------------------------------------===//
// Pooled graph scratch
//===----------------------------------------------------------------------===//

/// A worklist of anchors popped in ascending program position: one bit
/// per position, so re-seeding an already-queued anchor is free, pops come
/// out deduplicated, and a pop is a find-first-set over a few words.
/// Positions are dense and re-derived after a hoist (see renumber), which
/// remaps the queued bits along with them.
struct SlotWorklist {
  std::vector<uint64_t> Bits; ///< By program position.
  size_t Lowest = 0;          ///< Every word below this one is zero.

  void reset(size_t Positions) {
    Bits.assign((Positions + 63) / 64, 0);
    Lowest = 0;
  }
  void set(uint32_t Pos) {
    size_t Word = Pos >> 6;
    Bits[Word] |= 1ull << (Pos & 63);
    if (Word < Lowest)
      Lowest = Word;
  }
  bool empty() {
    while (Lowest < Bits.size() && !Bits[Lowest])
      ++Lowest;
    return Lowest == Bits.size();
  }
  /// Dequeues every queued position in [Lo, Hi], passing each to \p Take.
  template <typename Fn> void takeRange(uint32_t Lo, uint32_t Hi, Fn &&Take) {
    for (uint32_t Word = Lo >> 6; Word <= Hi >> 6; ++Word) {
      uint64_t Mask = ~0ull;
      if (Word == Lo >> 6)
        Mask &= ~0ull << (Lo & 63);
      if (Word == Hi >> 6)
        Mask &= ~0ull >> (63 - (Hi & 63));
      uint64_t Taken = Bits[Word] & Mask;
      Bits[Word] &= ~Mask;
      for (; Taken; Taken &= Taken - 1)
        Take(Word * 64 + static_cast<uint32_t>(__builtin_ctzll(Taken)));
    }
  }

  /// The lowest queued position, dequeued; requires !empty().
  uint32_t pop() {
    uint64_t &Word = Bits[Lowest];
    unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
    Word &= Word - 1;
    return static_cast<uint32_t>(Lowest * 64 + Bit);
  }
};

/// All per-run tables, pooled thread-locally so steady-state runs (tuner
/// sweeps compile hundreds of kernels back to back) allocate nothing: the
/// inner vectors keep their capacity across modules.
struct GraphScratch {
  struct OpNode {
    Operation *Op = nullptr;
    IRBlock *Block = nullptr;
    uint32_t Parent = ~0u; ///< Slot of the enclosing loop op (root: ~0u).
    uint32_t SubtreeEnd = 0; ///< Position of the subtree's last op (loops).
    uint32_t Depth = 0;
    bool Alive = false;
  };

  std::vector<OpNode> Nodes; ///< Slot-indexed; built in program order.
  /// Slot -> dense program (pre)order position, kept apart from Nodes for
  /// the sorted-list searches. Equals the slot until a hoist moves ops,
  /// after which renumber re-derives it from the blocks.
  std::vector<uint32_t> PosOf;
  std::vector<uint32_t> SlotAt; ///< Position -> slot.
  /// Op id -> slot (ids are unique and dense per module at this stage, so
  /// a vector beats hashing every lookup; InvalidSlot = not in the graph).
  std::vector<uint32_t> SlotById;
  std::vector<std::vector<uint32_t>> EventUsers;  ///< By event id (hints).
  std::vector<uint32_t> EventProducer;            ///< By event id.
  std::vector<std::vector<uint32_t>> TensorUsers; ///< By tensor id, sorted.
  /// Copy-kind subset of TensorUsers, same sort order. Seeding only ever
  /// enqueues copies (SeedMask is zero for everything else), and most
  /// touchers of a hot tensor are calls, so sweeping this subset instead
  /// of the full list drops the dominant per-rewrite seeding cost.
  std::vector<std::vector<uint32_t>> TensorCopyUsers;
  std::vector<uint32_t> ReadCount;                ///< By tensor id.
  /// Partitions by the root tensor of their base slice, so forwarding a
  /// tensor rebases exactly its partitions instead of scanning them all.
  std::vector<std::vector<PartitionId>> PartsOf;
  std::vector<TensorId> RootsA, RootsB;           ///< collectRoots buffers.
  std::vector<TensorId> HoistRoots;  ///< Roots a hoist affects.
  std::vector<EventId> HoistEvents;  ///< Events a hoist rewires.
  std::vector<EventRef> PrecondScratch;           ///< Spliced references.
  /// Queued (pattern, slot) pairs carried across a renumbering.
  std::vector<std::pair<unsigned, uint32_t>> Requeue;
  /// Launch-boundary copies grouped by their fresh tensor, ascending id.
  /// Built once per graph: the copies' identities never change, only their
  /// aliveness and slices, which the forwarding scan re-checks per call.
  struct BoundaryGroup {
    TensorId Tensor = InvalidTensorId;
    uint32_t Begin = 0, End = 0; ///< Member range in BoundarySlots.
    /// Eligibility cache: recomputed only when Dirty (a member copy was
    /// mutated or died); the forwarding scan otherwise reads the flag.
    bool Dirty = true;
    bool Eligible = false;
  };
  std::vector<BoundaryGroup> BoundaryGroups;
  /// (fresh tensor, slot) per boundary copy, grouped by tensor after build.
  std::vector<std::pair<TensorId, uint32_t>> BoundarySlots;
  /// Fresh tensor id -> index of its boundary group (InvalidSlot: none).
  std::vector<uint32_t> GroupOf;
  SlotWorklist Work[5];                           ///< One per op pattern.
  std::vector<uint8_t> LoopDirty;                 ///< By slot: loop needs a
                                                  ///< spill-hoist re-check.
  std::vector<uint32_t> ForLoopSlots;             ///< All For-loop slots.
  /// Per-slot bitmask of worklists the op qualifies for (bit = Pattern),
  /// recomputed only when the op's slices change; zero for dead ops and
  /// non-copies. Conditions that move without the op (read counts) stay at
  /// pop time.
  std::vector<uint8_t> SeedMask;
  /// First boundary group that could currently be eligible; groups before
  /// it are clean and ineligible.
  size_t BoundaryCursor = 0;
  std::vector<uint8_t> LiveTensors, LiveParts; ///< Dead-decl cleanup marks.

  void clearLists(std::vector<std::vector<uint32_t>> &Lists, size_t Count) {
    if (Lists.size() < Count)
      Lists.resize(Count);
    for (size_t I = 0; I < Count; ++I)
      Lists[I].clear();
  }
};

GraphScratch &graphScratch() {
  thread_local GraphScratch Scratch;
  return Scratch;
}

//===----------------------------------------------------------------------===//
// The pass
//===----------------------------------------------------------------------===//

class CopyEliminator {
public:
  CopyEliminator(IRModule &Module, PassCounters *Counters,
                 CancelCheck *Cancel)
      : Module(Module), Counters(Counters), Cancel(Cancel),
        S(graphScratch()) {}

  ErrorOrVoid run() {
    build();
    // Iterate the pattern set to a fixpoint. Spill/forwarding patterns run
    // first (they can remove synchronization); cleanup follows.
    for (unsigned Round = 0; Round < MaxRounds; ++Round) {
      bool Changed = false;
      // Each pattern performs one safe rewrite per call; drive every
      // pattern to its own local fixpoint inside the round.
      auto Drive = [&](bool (CopyEliminator::*Pattern)()) {
        unsigned Guard = 0;
        while (!stopRequested() && (this->*Pattern)() && ++Guard < 10000)
          Changed = true;
      };
      Drive(&CopyEliminator::copyPropagation);
      Drive(&CopyEliminator::launchPairForwarding);
      Drive(&CopyEliminator::selfCopyElimination);
      Drive(&CopyEliminator::duplicateElimination);
      Drive(&CopyEliminator::redundantStoreElimination);
      Drive(&CopyEliminator::spillHoisting);
      Drive(&CopyEliminator::deadCopyElimination);
      // The checkpoint fires *between* rewrites (each pattern call is one
      // whole rewrite), so stopping here leaves the module well-formed —
      // just less optimized than a full fixpoint run would make it. The
      // structured diagnostic still aborts the compile: a half-optimized
      // kernel must never be mistaken for the real compilation result.
      if (stopRequested())
        return Cancel->diagnostic("copy-elimination worklist");
      if (!Changed)
        break;
    }
    std::optional<Diagnostic> NoneErr = sweep();
    cypress::repairEventScopes(Module);
    trimPreconditions(Module.root());
    if (NoneErr)
      return *NoneErr;
    return ErrorOrVoid::success();
  }

private:
  static constexpr unsigned MaxRounds = 64;

  enum Pattern : unsigned {
    PatCopyProp,
    PatSelfCopy,
    PatDup,
    PatRedStore,
    PatDeadCopy,
    NumPatterns,
  };

  /// The patterns that erase their anchor: their match also depends on
  /// whether the anchor's event can be rewired (eraseOp), which changes
  /// with the anchor's preconditions and its event's users.
  static constexpr uint8_t EraseBits =
      (1u << PatSelfCopy) | (1u << PatRedStore) | (1u << PatDeadCopy);

  using OpNode = GraphScratch::OpNode;

  //===--- Graph construction ---------------------------------------------===//

  void build() {
    S.Nodes.clear();
    S.PosOf.clear();
    S.SlotAt.clear();
    S.SlotById.assign(Module.opIdBound(), InvalidSlot);
    S.clearLists(S.EventUsers, Module.numEvents());
    if (S.EventProducer.size() < Module.numEvents())
      S.EventProducer.resize(Module.numEvents());
    std::fill_n(S.EventProducer.begin(), Module.numEvents(), InvalidSlot);
    S.clearLists(S.TensorUsers, Module.tensors().size());
    S.clearLists(S.TensorCopyUsers, Module.tensors().size());
    S.ReadCount.assign(Module.tensors().size(), 0);
    S.clearLists(S.PartsOf, Module.tensors().size());
    for (const IRPartition &P : Module.partitionsConst())
      S.PartsOf[P.Base.Tensor].push_back(P.Id);
    S.BoundarySlots.clear();
    buildBlock(Module.root(), InvalidSlot, 0);
    buildBoundaryGroups();
    S.LoopDirty.assign(S.Nodes.size(), 1);
    S.SeedMask.assign(S.Nodes.size(), 0);
    S.ForLoopSlots.clear();
    for (SlotWorklist &WL : Work)
      WL.reset(S.Nodes.size());
    for (uint32_t Slot = 0, E = S.Nodes.size(); Slot != E; ++Slot) {
      recomputeSeedMask(Slot);
      seedAll(Slot);
      if (S.Nodes[Slot].Op->Kind == OpKind::For)
        S.ForLoopSlots.push_back(Slot);
    }
  }

  void buildBlock(IRBlock &Block, uint32_t Parent, unsigned Depth) {
    for (std::unique_ptr<Operation> &OpPtr : Block.Ops) {
      Operation *Op = OpPtr.get();
      uint32_t Slot = static_cast<uint32_t>(S.Nodes.size());
      S.Nodes.push_back({Op, &Block, Parent, Slot, Depth, true});
      S.PosOf.push_back(Slot);
      S.SlotAt.push_back(Slot);
      if (Op->Id >= S.SlotById.size())
        S.SlotById.resize(Op->Id + 1, InvalidSlot);
      assert(S.SlotById[Op->Id] == InvalidSlot &&
             "duplicate op id in module");
      S.SlotById[Op->Id] = Slot;
      if (Op->Result != InvalidEventId)
        S.EventProducer[Op->Result] = Slot;
      for (const EventRef &Ref : Op->Preconds)
        addEventUser(Ref.Event, Slot);
      addTouches(Slot);
      adjustReadCounts(*Op, +1);
      if (Op->Kind == OpKind::Copy && Op->LaunchBoundary &&
          Op->BoundaryTensor != InvalidTensorId)
        S.BoundarySlots.emplace_back(Op->BoundaryTensor, Slot);
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor) {
        if (Op->Body.Yield)
          addEventUser(Op->Body.Yield->Event, Slot);
        buildBlock(Op->Body, Slot, Depth + 1);
        S.Nodes[Slot].SubtreeEnd = static_cast<uint32_t>(S.Nodes.size()) - 1;
      }
    }
  }

  /// Groups the boundary copies by fresh tensor, ascending tensor id (slot
  /// order within a group).
  void buildBoundaryGroups() {
    std::sort(S.BoundarySlots.begin(), S.BoundarySlots.end());
    S.BoundaryGroups.clear();
    S.GroupOf.assign(Module.tensors().size(), InvalidSlot);
    for (uint32_t I = 0, E = S.BoundarySlots.size(); I != E; ++I) {
      TensorId T = S.BoundarySlots[I].first;
      if (S.BoundaryGroups.empty() || S.BoundaryGroups.back().Tensor != T) {
        S.GroupOf[T] = static_cast<uint32_t>(S.BoundaryGroups.size());
        S.BoundaryGroups.push_back({T, I, I, true, false});
      }
      S.BoundaryGroups.back().End = I + 1;
    }
    S.BoundaryCursor = 0;
  }

  /// Marks every loop enclosing \p Slot for spill-hoist re-examination.
  /// Hoist matches read whole loop bodies, so any body mutation dirties
  /// the ancestor chain.
  void markDirtyLoops(uint32_t Slot) {
    for (uint32_t P = S.Nodes[Slot].Parent; P != InvalidSlot;
         P = S.Nodes[P].Parent)
      S.LoopDirty[P] = 1;
  }

  /// Re-derives program positions after a hoist moved ops out of a loop.
  /// The moved ops land right around the loop, so the ops that now sit at
  /// \p Block.Ops[First..Last] are exactly the ones that occupied the
  /// loop's old span [Lo, Hi] of positions; nothing outside the span
  /// moves. Relative order of the unmoved ops is unchanged, so the sorted
  /// toucher lists stay sorted (the moved ops left them before the move);
  /// queued anchors in the span follow their slots.
  void renumber(IRBlock &Block, size_t First, size_t Last, uint32_t Lo,
                uint32_t Hi) {
    S.Requeue.clear();
    for (unsigned P = 0; P < NumPatterns; ++P)
      Work[P].takeRange(Lo, Hi, [&](uint32_t Pos) {
        S.Requeue.emplace_back(P, S.SlotAt[Pos]);
      });
    uint32_t Next = Lo;
    for (size_t I = First; I <= Last; ++I)
      renumberOp(*Block.Ops[I], Next);
    assert(Next == Hi + 1 && "a hoist must not change the span's size");
    (void)Hi;
    for (const auto &[P, Slot] : S.Requeue)
      Work[P].set(posOf(Slot));
  }

  void renumberOp(Operation &Op, uint32_t &Next) {
    uint32_t Slot = slotOf(&Op);
    S.PosOf[Slot] = Next;
    S.SlotAt[Next++] = Slot;
    if (Op.Kind == OpKind::For || Op.Kind == OpKind::PFor) {
      for (std::unique_ptr<Operation> &Inner : Op.Body.Ops)
        renumberOp(*Inner, Next);
      S.Nodes[Slot].SubtreeEnd = Next - 1;
    }
  }

  bool alive(uint32_t Slot) const { return S.Nodes[Slot].Alive; }
  Operation &op(uint32_t Slot) const { return *S.Nodes[Slot].Op; }
  uint32_t posOf(uint32_t Slot) const { return S.PosOf[Slot]; }

  /// Iterator to the first entry of a position-sorted slot list strictly
  /// after \p Slot in program order.
  std::vector<uint32_t>::const_iterator
  firstAfter(const std::vector<uint32_t> &Users, uint32_t Slot) const {
    return std::upper_bound(Users.begin(), Users.end(), posOf(Slot),
                            [this](uint32_t Key, uint32_t User) {
                              return Key < posOf(User);
                            });
  }

  void addEventUser(EventId Event, uint32_t Slot) {
    if (Event == InvalidEventId)
      return;
    // Bounded dedup window: a splice re-registers one user's refs back to
    // back, so recent duplicates are the common case; rare older ones
    // survive as hints, which rewiring visits harmlessly twice (the second
    // visit finds no reference left). A full scan here would make
    // splicing quadratic in a hot event's user count.
    std::vector<uint32_t> &Users = S.EventUsers[Event];
    size_t Window = Users.size() < 4 ? Users.size() : 4;
    for (size_t I = Users.size() - Window; I < Users.size(); ++I)
      if (Users[I] == Slot)
        return;
    Users.push_back(Slot);
  }

  void insertUser(std::vector<uint32_t> &Users, uint32_t Slot, uint32_t Key) {
    if (Users.empty() || posOf(Users.back()) < Key) // Build appends.
      Users.push_back(Slot);
    else
      Users.insert(std::upper_bound(Users.begin(), Users.end(), Key,
                                    [this](uint32_t K, uint32_t User) {
                                      return K < posOf(User);
                                    }),
                   Slot);
  }

  void eraseUser(std::vector<uint32_t> &Users, uint32_t Slot, uint32_t Key) {
    auto It = std::lower_bound(Users.begin(), Users.end(), Key,
                               [this](uint32_t User, uint32_t K) {
                                 return posOf(User) < K;
                               });
    if (It != Users.end() && *It == Slot)
      Users.erase(It);
  }

  void addTouches(uint32_t Slot) {
    Operation &Op = op(Slot);
    collectRoots(Op, S.RootsA);
    uint32_t Key = posOf(Slot);
    bool IsCopy = Op.Kind == OpKind::Copy;
    for (TensorId T : S.RootsA) {
      insertUser(S.TensorUsers[T], Slot, Key);
      if (IsCopy)
        insertUser(S.TensorCopyUsers[T], Slot, Key);
    }
  }

  void removeTouches(uint32_t Slot) {
    Operation &Op = op(Slot);
    collectRoots(Op, S.RootsA);
    uint32_t Key = posOf(Slot);
    bool IsCopy = Op.Kind == OpKind::Copy;
    for (TensorId T : S.RootsA) {
      eraseUser(S.TensorUsers[T], Slot, Key);
      if (IsCopy)
        eraseUser(S.TensorCopyUsers[T], Slot, Key);
    }
  }

  /// Read-occurrence counts back the dead-copy pattern: a tensor with zero
  /// read occurrences matches the historical "never appears as a copy
  /// source or call argument" scan.
  void adjustReadCounts(const Operation &Op, int Delta) {
    if (Op.Kind == OpKind::Copy) {
      S.ReadCount[Op.CopySrc.Tensor] += Delta;
    } else if (Op.Kind == OpKind::Call) {
      for (const TensorSlice &Slice : Op.Args)
        S.ReadCount[Slice.Tensor] += Delta;
    }
  }

  //===--- Worklist seeding ------------------------------------------------===//

  /// Every per-op pattern anchors on a copy; each worklist additionally
  /// filters by the cheap parts of its pattern's match predicate,
  /// precomputed into SeedMask. The filters read only state whose every
  /// change recomputes the mask (the op's own slices) or static tensor
  /// attributes, so a slot skipped here cannot silently become a match;
  /// conditions that change without the op (read counts) are re-checked
  /// at pop time instead.
  void recomputeSeedMask(uint32_t Slot) {
    uint8_t Mask = 0;
    const OpNode &Node = S.Nodes[Slot];
    if (Node.Alive && Node.Op->Kind == OpKind::Copy) {
      const Operation &Op = *Node.Op;
      TensorId SrcRoot = Op.CopySrc.Tensor;
      TensorId DstRoot = Op.CopyDst.Tensor;
      const IRTensor &Dst = Module.tensor(DstRoot);
      if (!Dst.IsEntryArg) {
        if (Dst.Mem == Memory::None ||
            Dst.Mem == Module.tensor(SrcRoot).Mem)
          Mask |= 1u << PatCopyProp;
        Mask |= (1u << PatRedStore) | (1u << PatDeadCopy);
      }
      if (SrcRoot == DstRoot) // sliceEquivalent requires equal roots.
        Mask |= 1u << PatSelfCopy;
      Mask |= 1u << PatDup;
    }
    S.SeedMask[Slot] = Mask;
  }

  /// Queues \p Slot on the worklists in \p Bits that its mask allows.
  void seed(uint32_t Slot, uint8_t Bits) {
    uint8_t Mask = S.SeedMask[Slot] & Bits;
    if (!Mask)
      return;
    uint32_t Pos = posOf(Slot);
    for (unsigned P = 0; P < NumPatterns; ++P)
      if (Mask & (1u << P))
        Work[P].set(Pos);
  }

  /// The op's own slices changed (or it is new to the graph): every
  /// pattern it qualifies for must look at it again.
  void seedAll(uint32_t Slot) { seed(Slot, 0xff); }

  /// Re-seeds the copies whose match reads tensor \p T's touchers, after a
  /// toucher at position \p Pos changed (its slices or its liveness). The
  /// forward-scanning patterns only see touchers after their anchor, so
  /// copy propagation, duplicate and redundant-store anchors before Pos
  /// are affected; copy propagation and redundant stores scan their
  /// destination root only. Dead-copy anchors read the destination's read
  /// count, which only ever needs a look once it is zero.
  void seedTouchers(TensorId T, uint32_t Pos) {
    bool Unread = S.ReadCount[T] == 0;
    for (uint32_t Slot : S.TensorCopyUsers[T]) {
      bool Before = posOf(Slot) < Pos;
      bool DstHere = op(Slot).CopyDst.Tensor == T;
      uint8_t Bits = 0;
      if (Before)
        Bits |= 1u << PatDup;
      if (DstHere && Before)
        Bits |= (1u << PatCopyProp) | (1u << PatRedStore);
      if (DstHere && Unread)
        Bits |= 1u << PatDeadCopy;
      seed(Slot, Bits);
    }
  }

  void seedProducer(EventId Event) {
    if (Event == InvalidEventId)
      return;
    uint32_t Slot = S.EventProducer[Event];
    if (Slot != InvalidSlot)
      seed(Slot, EraseBits);
  }

  /// Re-seeds the producers of every event \p Op references: their erase
  /// legality (spliceEvent over their users) depends on this op's indices.
  void seedReferencedProducers(const Operation &Op) {
    for (const EventRef &Ref : Op.Preconds)
      seedProducer(Ref.Event);
  }

  /// Applies a slice mutation to an alive op, keeping toucher lists, read
  /// counts, and worklists consistent: the op itself and the anchors that
  /// read its old or new roots' touchers are re-seeded.
  template <typename Fn> void mutateSlices(uint32_t Slot, Fn &&Mutate) {
    Operation &Op = op(Slot);
    removeTouches(Slot);
    adjustReadCounts(Op, -1);
    collectRoots(Op, S.RootsB); // Old roots.
    Mutate();
    adjustReadCounts(Op, +1);
    addTouches(Slot); // Uses RootsA = new roots.
    // Seed the union of old and new roots' touchers once (the common
    // rewrite changes one endpoint, so the sets mostly overlap).
    for (TensorId T : S.RootsA)
      if (std::find(S.RootsB.begin(), S.RootsB.end(), T) == S.RootsB.end())
        S.RootsB.push_back(T);
    recomputeSeedMask(Slot);
    seedAll(Slot);
    for (TensorId T : S.RootsB)
      seedTouchers(T, posOf(Slot));
    dirtyBoundaryGroup(Op);
    markDirtyLoops(Slot);
  }

  void markDead(uint32_t Slot) {
    Operation &Op = op(Slot);
    markDirtyLoops(Slot);
    removeTouches(Slot);
    adjustReadCounts(Op, -1);
    S.Nodes[Slot].Alive = false;
    S.SeedMask[Slot] = 0;
    if (Op.Result != InvalidEventId)
      S.EventProducer[Op.Result] = InvalidSlot;
    dirtyBoundaryGroup(Op);
    for (TensorId T : S.RootsA) // The roots removeTouches collected.
      seedTouchers(T, posOf(Slot));
    // A dead user stops blocking precondition splices of the events it
    // referenced; their producers may have become erasable.
    seedReferencedProducers(Op);
  }

  void bumpPop() {
    if (Counters)
      ++Counters->WorklistPops;
    // Every pop advances the checkpoint's stride counter; once it fires
    // it stays latched and the pattern loops drain out via stopRequested.
    if (Cancel)
      Cancel->shouldStop();
  }

  /// True once the request's cancellation checkpoint has fired (polling at
  /// worklist-pop granularity, see bumpPop).
  bool stopRequested() { return Cancel && Cancel->shouldStop(); }
  void bumpRewrite() {
    if (Counters)
      ++Counters->Rewrites;
  }

  /// Pops the next queued anchor of \p Pattern in program order, or
  /// InvalidSlot once the worklist is drained. Dead anchors are skipped.
  uint32_t nextAnchor(Pattern P) {
    SlotWorklist &WL = Work[P];
    while (!WL.empty()) {
      uint32_t Slot = S.SlotAt[WL.pop()];
      bumpPop();
      if (alive(Slot))
        return Slot;
    }
    return InvalidSlot;
  }

  //===--- Event rewiring helpers ----------------------------------------===//

  /// Renames event \p From to \p To in every reference (indices preserved).
  /// Each user's rewrite is independent of the others, so users are
  /// visited in hint-list order. Rewiring only appends to other events'
  /// lists (an op never references its own event), so From's list is
  /// stable while it is walked.
  void renameEvent(EventId From, EventId To) {
    const std::vector<uint32_t> &Users = S.EventUsers[From];
    for (size_t I = 0; I < Users.size(); ++I) {
      uint32_t Slot = Users[I];
      if (!alive(Slot))
        continue;
      Operation &Op = op(Slot);
      bool Changed = false;
      for (EventRef &Ref : Op.Preconds)
        if (Ref.Event == From) {
          Ref.Event = To;
          Changed = true;
        }
      if ((Op.Kind == OpKind::For || Op.Kind == OpKind::PFor) &&
          Op.Body.Yield && Op.Body.Yield->Event == From) {
        Op.Body.Yield->Event = To;
        Changed = true;
      }
      if (Changed) {
        addEventUser(To, Slot);
        preconditionsChanged(Slot);
      }
    }
    S.EventUsers[From].clear();
    // To's user set grew; its producer's erase legality changed with it.
    seedProducer(To);
  }

  /// Bookkeeping after \p Slot's preconditions or yield changed: its own
  /// erase legality and its referenced producers' may have moved, and a
  /// loop's hoist match reads its body's event wiring.
  void preconditionsChanged(uint32_t Slot) {
    Operation &Op = op(Slot);
    seed(Slot, EraseBits);
    seedReferencedProducers(Op);
    markDirtyLoops(Slot);
    if (Op.Kind == OpKind::For || Op.Kind == OpKind::PFor)
      S.LoopDirty[Slot] = 1;
  }

  /// Replaces references to \p From with the op's precondition refs,
  /// converting point-wise processor indices to match the user's indexing
  /// (a broadcast user of a flattened event must keep waiting on all
  /// instances of the producer's preconditions). Each reference is
  /// replaced in place, so the user's other references keep their order
  /// and storage. Fails when a reference cannot be adjusted: users visited
  /// before it keep their spliced preconditions, the failing user keeps
  /// its own.
  bool spliceEvent(EventId From, const std::vector<EventRef> &Preconds) {
    // The plain processor index of each of From's dimensions: what
    // adjustSpliced matches the spliced references' indices against.
    InlineVector<ScalarExpr, 4> Plain;
    for (const EventDim &Dim : Module.event(From).Type.Dims)
      Plain.push_back(ScalarExpr::procIndex(Dim.Proc));
    const std::vector<uint32_t> &Users = S.EventUsers[From]; // As rename.
    std::vector<EventRef> &Spliced = S.PrecondScratch; // Capacity pools.
    for (size_t UserIdx = 0; UserIdx < Users.size(); ++UserIdx) {
      uint32_t Slot = Users[UserIdx];
      if (!alive(Slot))
        continue;
      Operation &Op = op(Slot);
      bool IsLoop = Op.Kind == OpKind::For || Op.Kind == OpKind::PFor;
      bool Yields = IsLoop && Op.Body.Yield && Op.Body.Yield->Event == From;
      size_t Refs = static_cast<size_t>(
          std::count_if(Op.Preconds.begin(), Op.Preconds.end(),
                        [From](const EventRef &R) { return R.Event == From; }));
      if (!Refs && !Yields)
        continue; // A stale hint, or a user already rewired.
      // Adjust every replacement before touching the user, so a failure
      // leaves it as it was. The producer stays in place and is re-seeded
      // when one of its users changes (seedReferencedProducers).
      Spliced.clear();
      for (const EventRef &Ref : Op.Preconds) {
        if (Ref.Event != From)
          continue;
        for (const EventRef &P : Preconds) {
          Spliced.push_back(P);
          if (!adjustSpliced(Ref, Plain, Spliced.back()))
            return false;
        }
      }
      // Replace each reference in place, moving every other reference at
      // most once: the list grows to its new size and refills from the
      // back. A list at capacity doubles, so later splices into the same
      // user move nothing more; run() trims surviving lists at the end.
      std::vector<EventRef> &List = Op.Preconds;
      size_t Step = Preconds.size();
      if (!Step) {
        List.erase(std::remove_if(List.begin(), List.end(),
                                  [From](const EventRef &R) {
                                    return R.Event == From;
                                  }),
                   List.end());
      } else {
        size_t OldSize = List.size();
        size_t Out = OldSize - Refs + Spliced.size();
        if (Out > List.capacity())
          List.reserve(std::max(Out, 2 * List.capacity()));
        List.resize(Out);
        size_t Next = Spliced.size();
        for (size_t I = OldSize; I-- > 0;) {
          if (List[I].Event == From) {
            for (size_t K = 0; K < Step; ++K)
              List[--Out] = std::move(Spliced[--Next]);
          } else if (--Out != I) {
            List[Out] = std::move(List[I]);
          }
        }
      }
      if (Refs)
        for (const EventRef &P : Preconds) {
          addEventUser(P.Event, Slot);
          // The spliced-in events gained a user: their producers' erase
          // legality moved.
          seedProducer(P.Event);
        }
      if (Yields) {
        // A yield cannot expand to multiple events; retarget to the single
        // precondition if there is one, else drop the yield.
        if (Preconds.size() == 1 && Preconds[0].Indices.empty()) {
          Op.Body.Yield = Preconds[0];
          addEventUser(Op.Body.Yield->Event, Slot);
        } else {
          Op.Body.Yield.reset();
        }
      }
      seed(Slot, EraseBits);
      markDirtyLoops(Slot);
      if (IsLoop)
        S.LoopDirty[Slot] = 1;
    }
    S.EventUsers[From].clear();
    return true;
  }

  /// Adjusts \p Result, a copy of a spliced precondition, for a user that
  /// referenced the erased event as \p User; false when it cannot be
  /// adjusted. A point-wise processor index equal to \p Plain[D], the plain
  /// index of the erased event's dimension D, takes the user's index for
  /// that dimension (turning into a broadcast when the user broadcast).
  static bool adjustSpliced(const EventRef &User,
                            const InlineVector<ScalarExpr, 4> &Plain,
                            EventRef &Result) {
    Result.IterLag += User.IterLag;
    for (EventIndex &Index : Result.Indices) {
      if (Index.isBroadcast())
        continue;
      if (!Index.Index.usesProcIndex())
        continue;
      // Identify which processor this index selects; only plain
      // processor-index expressions are handled.
      if (Index.Index.kind() != ScalarExpr::Kind::ProcIndex)
        return false;
      bool Matched = false;
      for (size_t D = 0, E = Plain.size(); D != E; ++D) {
        if (Index.Index.equals(Plain[D])) {
          if (D < User.Indices.size())
            Index = User.Indices[D];
          Matched = true;
          break;
        }
      }
      if (!Matched)
        return false; // Complex proc expression: bail out.
    }
    return true;
  }

  /// Erases the op at \p Slot (must not be a loop), rewiring its event.
  /// Returns false (leaving the op in place) when rewiring is not legal.
  /// Rename and splice retarget every reference to the erased event
  /// (yields included), so no reference to it survives.
  bool eraseOp(uint32_t Slot) {
    Operation &Op = op(Slot);
    assert(Op.Kind != OpKind::For && Op.Kind != OpKind::PFor &&
           "cannot erase loops");
    if (Op.Result != InvalidEventId) {
      const EventType &Type = Module.event(Op.Result).Type;
      // Fast path: one precondition with identical rank -> rename.
      if (Op.Preconds.size() == 1 &&
          Module.event(Op.Preconds[0].Event).Type.Dims.size() ==
              Type.Dims.size() &&
          Op.Preconds[0].IterLag == 0 && allPointwise(Op.Preconds[0])) {
        renameEvent(Op.Result, Op.Preconds[0].Event);
      } else if (!spliceEvent(Op.Result, Op.Preconds)) {
        return false;
      }
    }
    markDead(Slot);
    return true;
  }

  static bool allPointwise(const EventRef &Ref) {
    for (const EventIndex &Index : Ref.Indices)
      if (Index.isBroadcast())
        return false;
    return true;
  }

  //===--- Pattern: copy propagation --------------------------------------===//

  /// copy(X -> P) ... copy(P -> Y) with equivalent P slices and no
  /// intervening write to P's root: the consumer reads X directly.
  bool copyPropagation() {
    for (uint32_t Slot; (Slot = nextAnchor(PatCopyProp)) != InvalidSlot;) {
      if (tryCopyPropagationAt(Slot)) {
        bumpRewrite();
        return true;
      }
    }
    return false;
  }

  bool tryCopyPropagationAt(uint32_t Slot) {
    Operation &Producer = op(Slot);
    if (Producer.Kind != OpKind::Copy)
      return false;
    TensorId Root = Producer.CopyDst.Tensor;
    if (Module.tensor(Root).IsEntryArg)
      return false;
    // Propagating across a *staging* copy would defeat its purpose: a
    // consumer reading a shared tile must not be rewritten to re-fetch
    // from global memory. Only propagate when the intermediate adds no
    // locality (unmaterialized, or same memory as the original source).
    Memory MidMem = Module.tensor(Root).Mem;
    Memory SrcMem = Module.tensor(Producer.CopySrc.Tensor).Mem;
    if (MidMem != Memory::None && MidMem != SrcMem)
      return false;
    // Scan forward in program order over the ops touching P's root — only
    // they can write it or consume the copied piece.
    const std::vector<uint32_t> &Users = S.TensorUsers[Root];
    for (auto It = firstAfter(Users, Slot); It != Users.end(); ++It) {
      if (!alive(*It))
        continue;
      Operation &Consumer = op(*It);
      // Stop at any other write to the root tensor.
      if (opWritesTensor(Consumer, Root) &&
          !(Consumer.Kind == OpKind::Copy &&
            sliceEquivalent(Module, Consumer.CopySrc, Producer.CopyDst)))
        break;
      if (Consumer.Kind != OpKind::Copy)
        continue;
      if (!sliceEquivalent(Module, Consumer.CopySrc, Producer.CopyDst))
        continue;
      if (sliceEquivalent(Module, Consumer.CopySrc, Producer.CopySrc))
        break; // Already propagated (or self copy).
      // Don't propagate across loop scopes when the source carries loop
      // variables that differ between contexts.
      if (S.Nodes[*It].Depth != S.Nodes[Slot].Depth)
        continue;
      uint32_t ConsumerSlot = *It;
      mutateSlices(ConsumerSlot,
                   [&] { Consumer.CopySrc = Producer.CopySrc; });
      // The consumer must still wait for the producer (it already does
      // through version chaining); keep preconditions unchanged.
      return true;
    }
    return false;
  }

  //===--- Pattern: launch-pair forwarding --------------------------------===//

  /// Forwards a launch argument's fresh tensor to the slice it was copied
  /// from/to, when its mapped memory adds nothing (None, or same memory as
  /// the source data). Sequential semantics of the source program guarantee
  /// no third party touches the slice while the callee runs, so the
  /// substitution is always legal for launch-boundary pairs. Global
  /// pattern: the candidate set (boundary copies in ascending fresh-tensor
  /// order) is rebuilt per call — it is tiny and shrinks monotonically.
  bool launchPairForwarding() {
    // Forwarding considers fresh tensors in ascending id (the order the
    // historical ordered-map scan applied); within a group the last
    // program-order copy-in/copy-out wins. Pair by the launch's fresh
    // tensor, not by slice shape: slice rewrites (copy propagation) must
    // not flip a copy-in into looking like some other tensor's copy-out.
    for (size_t Index = S.BoundaryCursor; Index < S.BoundaryGroups.size();
         ++Index) {
      GraphScratch::BoundaryGroup &Group = S.BoundaryGroups[Index];
      // Classify at most once per group visit: the dirty recompute doubles
      // as the eligible path's source lookup.
      const TensorSlice *Slice = nullptr;
      if (Group.Dirty) {
        Slice = classifyBoundaryGroup(Group);
        Group.Eligible = Slice != nullptr;
        Group.Dirty = false;
      } else if (Group.Eligible) {
        Slice = classifyBoundaryGroup(Group);
      }
      if (!Group.Eligible) {
        // Clean-and-ineligible prefix: skip it on the next call too.
        if (Index == S.BoundaryCursor)
          ++S.BoundaryCursor;
        continue;
      }
      // When both a copy-in and a copy-out exist, forwarding follows the
      // copy-in's source: data flows in -> use -> out, so substituting the
      // fresh tensor with the in-source leaves the copy-out rewritten to a
      // correct (possibly non-trivial) store of that source.
      TensorSlice Source = *Slice; // Copy: substituteTensor rewrites the op
                                   // holding the source slice.
      Group.Eligible = false; // The fresh tensor's id never comes back.
      substituteTensor(Group.Tensor, Source);
      bumpRewrite();
      return true;
    }
    return false;
  }

  /// The forwarding source for a boundary group, or nullptr when the group
  /// is currently ineligible (no surviving pair, already forwarded, entry
  /// argument, or a staging memory the forwarding would discard).
  const TensorSlice *classifyBoundaryGroup(
      const GraphScratch::BoundaryGroup &Group) {
    TensorId Tensor = Group.Tensor;
    const IRTensor &T = Module.tensor(Tensor);
    if (T.IsEntryArg)
      return nullptr;
    Operation *In = nullptr, *Out = nullptr;
    uint32_t InKey = 0, OutKey = 0;
    for (uint32_t I = Group.Begin; I != Group.End; ++I) {
      uint32_t Slot = S.BoundarySlots[I].second;
      if (!alive(Slot))
        continue;
      Operation &Op = op(Slot);
      // The last copy in program order wins its side of the pair.
      if (Op.CopyDst.isWhole() && Op.CopyDst.Tensor == Op.BoundaryTensor) {
        if (!In || posOf(Slot) > InKey) {
          In = &Op;
          InKey = posOf(Slot);
        }
      } else if (Op.CopySrc.isWhole() &&
                 Op.CopySrc.Tensor == Op.BoundaryTensor) {
        if (!Out || posOf(Slot) > OutKey) {
          Out = &Op;
          OutKey = posOf(Slot);
        }
      }
    }
    const TensorSlice *Source = nullptr;
    if (In)
      Source = &In->CopySrc;
    else if (Out)
      Source = &Out->CopyDst;
    if (!Source)
      return nullptr;
    if (Source->Tensor == Tensor)
      return nullptr; // Already forwarded.
    Memory SourceMem = Module.tensor(Source->Tensor).Mem;
    // Forwarding ignores pipeline depth: the fresh tensor's buffers
    // existed only to hold the copy, which disappears entirely.
    if (T.Mem != Memory::None && T.Mem != SourceMem)
      return nullptr;
    return Source;
  }

  /// Invalidates the eligibility cache of \p Op's boundary group after a
  /// mutation or death.
  void dirtyBoundaryGroup(const Operation &Op) {
    if (Op.Kind != OpKind::Copy || !Op.LaunchBoundary ||
        Op.BoundaryTensor == InvalidTensorId)
      return;
    uint32_t Index = S.GroupOf[Op.BoundaryTensor];
    S.BoundaryGroups[Index].Dirty = true;
    if (Index < S.BoundaryCursor)
      S.BoundaryCursor = Index;
  }

  /// Replaces every reference to whole-\p From (op slices and partition
  /// bases) with \p To, rebasing partitions rooted at From. Every alive
  /// toucher of From is rewritten, so From's toucher lists and read count
  /// move to To wholesale instead of per op. Seeding touches only what the
  /// rewrite changed: each rewritten op itself, and the anchors that scan
  /// To's touchers. A rewritten op's other roots need no sweep: what it
  /// does to them (reads, writes, its slices on them) is unchanged, and
  /// every match test that reads its new To slices is made by an anchor
  /// that touches To itself.
  void substituteTensor(TensorId From, const TensorSlice &To) {
    std::vector<PartitionId> &Rebased = S.PartsOf[From];
    for (PartitionId Id : Rebased) {
      IRPartition &P = Module.partition(Id);
      if (P.Base.isWhole())
        P.Base = To;
      else
        P.Base.Tensor = To.Tensor; // Chain root updates below.
    }
    std::vector<PartitionId> &Into = S.PartsOf[To.Tensor];
    Into.insert(Into.end(), Rebased.begin(), Rebased.end());
    Rebased.clear();
    uint32_t LastPos = 0;
    for (uint32_t Slot : S.TensorUsers[From]) {
      LastPos = posOf(Slot); // The list is sorted and holds alive ops.
      Operation &Op = op(Slot);
      forEachSlice(Op, [&](TensorSlice &Slice) {
        if (Slice.Tensor != From)
          return;
        if (Slice.isWhole())
          Slice = To;
        else
          Slice.Tensor = To.Tensor;
      });
      recomputeSeedMask(Slot);
      seedAll(Slot);
      dirtyBoundaryGroup(Op);
      markDirtyLoops(Slot);
    }
    moveUsers(S.TensorUsers[From], S.TensorUsers[To.Tensor]);
    moveUsers(S.TensorCopyUsers[From], S.TensorCopyUsers[To.Tensor]);
    S.ReadCount[To.Tensor] += S.ReadCount[From];
    S.ReadCount[From] = 0;
    seedTouchers(To.Tensor, LastPos);
  }

  /// Inserts the position-sorted list \p From into \p Into (an op touching
  /// both stays listed once) and empties From. From is a fresh tensor's
  /// handful of touchers, so each lands by binary search, resuming where
  /// the previous one did, instead of a merge over all of Into.
  void moveUsers(std::vector<uint32_t> &From, std::vector<uint32_t> &Into) {
    auto At = Into.begin();
    for (uint32_t Slot : From) {
      At = std::lower_bound(At, Into.end(), posOf(Slot),
                            [this](uint32_t User, uint32_t Key) {
                              return posOf(User) < Key;
                            });
      if (At == Into.end() || *At != Slot)
        At = Into.insert(At, Slot);
    }
    From.clear();
  }

  //===--- Pattern: self-copy elimination (Figure 10d) ---------------------===//

  bool selfCopyElimination() {
    for (uint32_t Slot; (Slot = nextAnchor(PatSelfCopy)) != InvalidSlot;) {
      Operation &Op = op(Slot);
      if (Op.Kind != OpKind::Copy)
        continue;
      if (!sliceEquivalent(Module, Op.CopySrc, Op.CopyDst))
        continue;
      if (eraseOp(Slot)) {
        bumpRewrite();
        return true;
      }
    }
    return false;
  }

  //===--- Pattern: duplicate elimination (Figure 10c) ---------------------===//

  bool duplicateElimination() {
    for (uint32_t Slot; (Slot = nextAnchor(PatDup)) != InvalidSlot;) {
      if (tryDuplicateAt(Slot)) {
        bumpRewrite();
        return true;
      }
    }
    return false;
  }

  bool tryDuplicateAt(uint32_t Slot) {
    Operation &First = op(Slot);
    if (First.Kind != OpKind::Copy)
      return false;
    // Only ops touching the copy's source or destination root can either
    // match or block the match; merge-iterate the two sorted toucher lists
    // in program order without materializing the union.
    const std::vector<uint32_t> &SrcUsers =
        S.TensorUsers[First.CopySrc.Tensor];
    const std::vector<uint32_t> &DstUsers =
        S.TensorUsers[First.CopyDst.Tensor];
    auto SrcIt = firstAfter(SrcUsers, Slot);
    auto DstIt = firstAfter(DstUsers, Slot);
    while (SrcIt != SrcUsers.end() || DstIt != DstUsers.end()) {
      uint32_t USlot;
      if (DstIt == DstUsers.end() ||
          (SrcIt != SrcUsers.end() && posOf(*SrcIt) <= posOf(*DstIt))) {
        USlot = *SrcIt++;
        if (DstIt != DstUsers.end() && *DstIt == USlot)
          ++DstIt;
      } else {
        USlot = *DstIt++;
      }
      if (!alive(USlot))
        continue;
      Operation &Second = op(USlot);
      if (opWritesTensor(Second, First.CopySrc.Tensor) ||
          opWritesTensor(Second, First.CopyDst.Tensor))
        break;
      if (Second.Kind != OpKind::Copy)
        continue;
      if (!sliceEquivalent(Module, First.CopySrc, Second.CopySrc) ||
          !sliceEquivalent(Module, First.CopyDst, Second.CopyDst))
        continue;
      if (S.Nodes[USlot].Depth != S.Nodes[Slot].Depth)
        continue;
      // Identical copy with unchanged operands: the second is redundant;
      // its event forwards to the first copy's event.
      if (Second.Result != InvalidEventId)
        renameEvent(Second.Result, First.Result);
      markDead(USlot);
      return true;
    }
    return false;
  }

  //===--- Pattern: redundant stores ----------------------------------------===//

  /// copy(X -> P) followed by copy(Y -> P) over the same piece with no read
  /// of P's root in between: the first store is dead. Arises when two
  /// launches in one loop iteration both copy their accumulator fragment
  /// back to the same unmaterialized parent piece.
  bool redundantStoreElimination() {
    for (uint32_t Slot; (Slot = nextAnchor(PatRedStore)) != InvalidSlot;) {
      if (tryRedundantStoreAt(Slot)) {
        bumpRewrite();
        return true;
      }
    }
    return false;
  }

  bool tryRedundantStoreAt(uint32_t Slot) {
    Operation &First = op(Slot);
    if (First.Kind != OpKind::Copy)
      return false;
    TensorId Root = First.CopyDst.Tensor;
    if (Module.tensor(Root).IsEntryArg)
      return false;
    const std::vector<uint32_t> &Users = S.TensorUsers[Root];
    for (auto It = firstAfter(Users, Slot); It != Users.end(); ++It) {
      if (!alive(*It))
        continue;
      Operation &Second = op(*It);
      if (opReadsTensor(Second, Root))
        break;
      // Same-block requirement: across loop boundaries the next iteration
      // of the first copy's loop may read the piece before this position,
      // which the forward scan cannot see. Within one body the second
      // store re-executes every iteration, so erasure stays correct.
      if (Second.Kind == OpKind::Copy &&
          sliceEquivalent(Module, Second.CopyDst, First.CopyDst) &&
          S.Nodes[*It].Block == S.Nodes[Slot].Block) {
        if (eraseOp(Slot))
          return true;
        break;
      }
      if (opWritesTensor(Second, Root))
        break; // A different-slice write: stop the scan conservatively.
    }
    return false;
  }

  //===--- Pattern: spill hoisting (Figure 10b) ----------------------------===//

  /// Loop bodies of the form
  ///   alloc t; copy(P[j] -> t); ...body...; copy(t -> P[j])
  /// with loop-invariant j and no other reference to P's root inside the
  /// body hoist the allocation and both copies out of the loop, keeping the
  /// accumulator resident across iterations. Global pattern: loops are few
  /// and a hoist restructures blocks, so each call scans the loop slots
  /// directly and a successful hoist renumbers the program positions.
  bool spillHoisting() {
    for (uint32_t Slot : S.ForLoopSlots) {
      if (!alive(Slot) || !S.LoopDirty[Slot])
        continue;
      Operation &Loop = op(Slot);
      if (hoistFromLoop(Slot, Loop)) {
        bumpRewrite();
        return true;
      }
      // Nothing inside this loop changed since this failed attempt; skip
      // it until a mutation dirties it again.
      S.LoopDirty[Slot] = 0;
    }
    return false;
  }

  bool opAlive(const Operation *Op) {
    uint32_t Slot = slotOf(Op);
    return Slot != InvalidSlot && alive(Slot);
  }

  uint32_t slotOf(const Operation *Op) const {
    return Op->Id < S.SlotById.size() ? S.SlotById[Op->Id] : InvalidSlot;
  }

  bool hoistFromLoop(uint32_t LoopSlot, Operation &Loop) {
    IRBlock &Body = Loop.Body;
    // Find a copy-in near the top whose source is loop-invariant and whose
    // destination is a whole local tensor.
    for (size_t I = 0; I < Body.Ops.size(); ++I) {
      Operation &In = *Body.Ops[I];
      if (!opAlive(&In))
        continue;
      if (In.Kind != OpKind::Copy || !In.CopyDst.isWhole())
        continue;
      TensorId Acc = In.CopyDst.Tensor;
      if (sliceUsesVar(In.CopySrc, Loop.LoopVar))
        continue;
      TensorId Root = In.CopySrc.Tensor;
      if (Root == Acc)
        continue;
      // Find the matching trailing copy-out.
      for (size_t J = Body.Ops.size(); J-- > I + 1;) {
        Operation &Out = *Body.Ops[J];
        if (!opAlive(&Out))
          continue;
        if (Out.Kind != OpKind::Copy || !Out.CopySrc.isWhole() ||
            Out.CopySrc.Tensor != Acc)
          continue;
        if (!sliceEquivalent(Module, Out.CopyDst, In.CopySrc))
          continue;
        // No other reference to the root slice inside the body (nested
        // loops included): the loop's subtree is a contiguous position
        // range, so Root's toucher list answers this with one range scan.
        bool Clean = true;
        const std::vector<uint32_t> &Touchers = S.TensorUsers[Root];
        for (auto It = firstAfter(Touchers, LoopSlot);
             It != Touchers.end() &&
             posOf(*It) <= S.Nodes[LoopSlot].SubtreeEnd;
             ++It) {
          if (!alive(*It))
            continue;
          Operation *Toucher = S.Nodes[*It].Op;
          if (Toucher != &In && Toucher != &Out) {
            Clean = false;
            break;
          }
        }
        if (!Clean)
          continue;
        performHoist(LoopSlot, Loop, I, J, Acc);
        return true;
      }
    }
    return false;
  }

  static bool sliceUsesVar(const TensorSlice &Slice, LoopVarId Var) {
    for (const ScalarExpr &Color : Slice.Color)
      if (Color.usesLoopVar(Var))
        return true;
    return Slice.BufferIndex.usesLoopVar(Var);
  }

  void performHoist(uint32_t LoopSlot, Operation &Loop, size_t InIdx,
                    size_t OutIdx, TensorId Acc) {
    IRBlock &Body = Loop.Body;
    IRBlock &Parent = *S.Nodes[LoopSlot].Block;

    // The hoist's blast radius: everything whose pattern matches can
    // change when these ops move and their events rewire.
    std::vector<TensorId> &AffectedTensors = S.HoistRoots;
    std::vector<EventId> &AffectedEvents = S.HoistEvents;
    AffectedTensors.clear();
    AffectedEvents.clear();
    auto NoteOp = [&](const Operation &Op) {
      collectRoots(Op, S.RootsB);
      for (TensorId T : S.RootsB)
        AffectedTensors.push_back(T);
      if (Op.Result != InvalidEventId)
        AffectedEvents.push_back(Op.Result);
      for (const EventRef &Ref : Op.Preconds)
        AffectedEvents.push_back(Ref.Event);
    };
    NoteOp(*Body.Ops[InIdx]);
    NoteOp(*Body.Ops[OutIdx]);
    NoteOp(Loop);
    if (Body.Yield)
      AffectedEvents.push_back(Body.Yield->Event);

    uint32_t InSlot = slotOf(Body.Ops[InIdx].get());
    uint32_t OutSlot = slotOf(Body.Ops[OutIdx].get());

    // Moved copies leave their toucher lists while their old positions
    // are still in place; they re-enter under the new ones.
    removeTouches(InSlot);
    removeTouches(OutSlot);

    std::unique_ptr<Operation> Out = std::move(Body.Ops[OutIdx]);
    Body.Ops.erase(Body.Ops.begin() + static_cast<long>(OutIdx));
    std::unique_ptr<Operation> In = std::move(Body.Ops[InIdx]);
    Body.Ops.erase(Body.Ops.begin() + static_cast<long>(InIdx));

    // Hoist the accumulator's allocation if it lives in the body.
    std::unique_ptr<Operation> Alloc;
    for (size_t K = 0; K < Body.Ops.size(); ++K) {
      if (Body.Ops[K]->Kind == OpKind::Alloc &&
          Body.Ops[K]->AllocTensor == Acc) {
        Alloc = std::move(Body.Ops[K]);
        Body.Ops.erase(Body.Ops.begin() + static_cast<long>(K));
        break;
      }
    }
    uint32_t AllocSlot = Alloc ? slotOf(Alloc.get()) : InvalidSlot;

    // Intra-body users of the copy-in's event now reference an event
    // defined before the loop; SSA ordering still holds. The copy-out's
    // preconditions referenced in-body events, which would escape their
    // scope: rebase it onto the loop's completion event.
    Out->Preconds.clear();
    if (Loop.Result != InvalidEventId) {
      Out->Preconds.push_back(EventRef::unit(Loop.Result));
      addEventUser(Loop.Result, OutSlot);
    }

    // The loop must wait for the hoisted copy-in; the copy-in adopts the
    // loop's entry dependencies (conservative but sound).
    if (In->Result != InvalidEventId) {
      for (const EventRef &Pre : Loop.Preconds) {
        In->Preconds.push_back(Pre);
        addEventUser(Pre.Event, InSlot);
      }
      Loop.Preconds.push_back(EventRef::unit(In->Result));
      addEventUser(In->Result, LoopSlot);
    }

    // If the body yielded the copy-out's event, retarget.
    if (Body.Yield && Out->Result != InvalidEventId &&
        Body.Yield->Event == Out->Result) {
      Body.Yield.reset();
      for (auto It = Body.Ops.rbegin(); It != Body.Ops.rend(); ++It)
        if (opAlive(It->get()) && (*It)->Result != InvalidEventId) {
          Body.Yield = EventRef::unit((*It)->Result);
          addEventUser((*It)->Result, LoopSlot);
          break;
        }
    }

    // Alloc and copy-in go right before the loop, copy-out right after.
    size_t At = 0;
    for (size_t K = 0; K < Parent.Ops.size(); ++K)
      if (Parent.Ops[K].get() == &Loop) {
        At = K;
        break;
      }
    size_t First = At;
    uint32_t SpanLo = posOf(LoopSlot);
    uint32_t SpanHi = S.Nodes[LoopSlot].SubtreeEnd;
    if (Alloc)
      Parent.Ops.insert(Parent.Ops.begin() + static_cast<long>(At++),
                        std::move(Alloc));
    Parent.Ops.insert(Parent.Ops.begin() + static_cast<long>(At++),
                      std::move(In));
    Parent.Ops.insert(Parent.Ops.begin() + static_cast<long>(At + 1),
                      std::move(Out));

    // Relocate the moved ops in the graph, then re-derive positions.
    for (uint32_t Slot : {AllocSlot, InSlot, OutSlot}) {
      if (Slot == InvalidSlot)
        continue;
      OpNode &Node = S.Nodes[Slot];
      Node.Block = &Parent;
      Node.Parent = S.Nodes[LoopSlot].Parent;
      Node.Depth = S.Nodes[LoopSlot].Depth;
    }
    renumber(Parent, First, At + 1, SpanLo, SpanHi);
    addTouches(InSlot);
    addTouches(OutSlot);

    // Invalidation: the moved ops, everything sharing their tensors, the
    // events they rewired, and the loop's spill-hoist dirtiness. Positions
    // and depths moved, so every affected anchor is re-seeded for every
    // pattern, once per distinct tensor and event.
    for (auto *List : {&AffectedTensors, &AffectedEvents}) {
      std::sort(List->begin(), List->end());
      List->erase(std::unique(List->begin(), List->end()), List->end());
    }
    for (TensorId T : AffectedTensors)
      for (uint32_t Slot : S.TensorCopyUsers[T])
        seedAll(Slot);
    for (EventId E : AffectedEvents) {
      if (E == InvalidEventId)
        continue;
      if (S.EventProducer[E] != InvalidSlot)
        seedAll(S.EventProducer[E]);
      for (uint32_t Slot : S.EventUsers[E])
        seedAll(Slot);
    }
    dirtyBoundaryGroup(op(InSlot));
    dirtyBoundaryGroup(op(OutSlot));
    markDirtyLoops(InSlot);
    S.LoopDirty[LoopSlot] = 1;
    markDirtyLoops(LoopSlot);
  }

  //===--- Pattern: dead copies -------------------------------------------===//

  /// Copies into tensors that are never read (and are not kernel outputs).
  bool deadCopyElimination() {
    for (uint32_t Slot; (Slot = nextAnchor(PatDeadCopy)) != InvalidSlot;) {
      Operation &Op = op(Slot);
      if (Op.Kind != OpKind::Copy)
        continue;
      TensorId Dst = Op.CopyDst.Tensor;
      if (Module.tensor(Dst).IsEntryArg)
        continue;
      if (S.ReadCount[Dst] != 0)
        continue;
      if (eraseOp(Slot)) {
        bumpRewrite();
        return true;
      }
    }
    return false;
  }

  //===--- Cleanup ----------------------------------------------------------===//

  /// Physically removes the ops marked dead during the fixpoint (erasure
  /// is lazy so slot order stays stable) together with the allocations
  /// and partitions no surviving op references, in one walk. Returns the
  /// Section 3.3 post-condition's diagnostic: no tensor mapped to `none`
  /// may survive in a copy or call (it would have to be materialized).
  std::optional<Diagnostic> sweep() {
    S.LiveTensors.assign(Module.tensors().size(), 0);
    S.LiveParts.assign(Module.partitionsConst().size(), 0);
    for (const OpNode &Node : S.Nodes)
      if (Node.Alive)
        forEachSlice(*Node.Op, [&](TensorSlice &Slice) {
          S.LiveTensors[Slice.Tensor] = 1;
          std::optional<PartitionId> Part = Slice.Part;
          while (Part && !S.LiveParts[*Part]) {
            S.LiveParts[*Part] = 1;
            const IRPartition &P = Module.partition(*Part);
            S.LiveTensors[P.Base.Tensor] = 1;
            Part = P.Base.Part;
          }
        });
    for (TensorId T : Module.entryArgs())
      S.LiveTensors[T] = 1;
    std::optional<Diagnostic> Err;
    sweepBlock(Module.root(), Err);
    return Err;
  }

  /// Splices grow the surviving users' lists in place and the scope
  /// repair deduplicates them; the compiled kernel keeps these lists, so
  /// their slack is trimmed once, here.
  static void trimPreconditions(IRBlock &Block) {
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      Op->Preconds.shrink_to_fit();
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
        trimPreconditions(Op->Body);
    }
  }

  void sweepBlock(IRBlock &Block, std::optional<Diagnostic> &Err) {
    // Compact by hand: the dead operations go back to the pool, which
    // std::remove_if (it overwrites them) would not allow.
    size_t Kept = 0;
    for (size_t I = 0, E = Block.Ops.size(); I != E; ++I) {
      std::unique_ptr<Operation> &Op = Block.Ops[I];
      bool Dead;
      if (Op->Kind == OpKind::Alloc) {
        Dead = !S.LiveTensors[Op->AllocTensor];
      } else if (Op->Kind == OpKind::MakePart) {
        Dead = !S.LiveParts[Op->Part];
      } else {
        uint32_t Slot = slotOf(Op.get());
        Dead = Slot != InvalidSlot && !alive(Slot);
      }
      if (Dead)
        retireOperation(std::move(Op));
      else if (Kept++ != I)
        Block.Ops[Kept - 1] = std::move(Op);
    }
    Block.Ops.resize(Kept);
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      if (!Err)
        forEachSlice(*Op, [&](const TensorSlice &Slice) {
          const IRTensor &T = Module.tensor(Slice.Tensor);
          if (!Err && T.Mem == Memory::None)
            Err = Diagnostic(formatString(
                "tensor %s mapped to the none memory cannot be eliminated; "
                "change the partitioning or mapping strategy",
                T.Name.c_str()));
        });
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
        sweepBlock(Op->Body, Err);
    }
  }

  IRModule &Module;
  PassCounters *Counters;
  CancelCheck *Cancel;
  GraphScratch &S;
  SlotWorklist (&Work)[NumPatterns] = S.Work; ///< Alias into S.
};

} // namespace

ErrorOrVoid cypress::runCopyElimination(IRModule &Module,
                                        PassCounters *Counters,
                                        CancelCheck *Cancel) {
  return CopyEliminator(Module, Counters, Cancel).run();
}

//===----------------------------------------------------------------------===//
// Execution-unit assignment
//===----------------------------------------------------------------------===//

namespace {
void assignExecUnitsIn(IRModule &Module, IRBlock &Block) {
  for (std::unique_ptr<Operation> &Op : Block.Ops) {
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor) {
      assignExecUnitsIn(Module, Op->Body);
      continue;
    }
    if (Op->Kind != OpKind::Copy)
      continue;
    const IRTensor &SrcT = Module.tensor(Op->CopySrc.Tensor);
    const IRTensor &DstT = Module.tensor(Op->CopyDst.Tensor);
    // Bulk global<->shared transfers ride the TMA on Hopper (Section 2.2);
    // everything else (register traffic, shared<->shared staging) is SIMT.
    // A mapping may pin a tensor's copies to SIMT (SimtCopyParams): those
    // transfers then run on the consumer warps — the exec-unit assignment
    // axis the autotuner sweeps.
    bool Tma = ((SrcT.Mem == Memory::Global && DstT.Mem == Memory::Shared) ||
                (SrcT.Mem == Memory::Shared && DstT.Mem == Memory::Global)) &&
               !SrcT.ForceSimtCopy && !DstT.ForceSimtCopy;
    Op->Unit = Tma ? ExecUnit::TMA : ExecUnit::SIMT;
  }
}
} // namespace

void cypress::assignExecUnits(IRModule &Module) {
  assignExecUnitsIn(Module, Module.root());
}

//===----------------------------------------------------------------------===//
// Event scope repair (shared by copy elimination and resource allocation)
//===----------------------------------------------------------------------===//

namespace {

/// Pooled state for repairEventScopes: the repair runs once per pipeline
/// stage AND once per copy-elimination fixpoint, so its tables are pooled
/// per thread and the recursion is direct (no std::function dispatch).
struct ScopeRepairScratch {
  std::vector<std::vector<const Operation *>> Chains;
  size_t NumChains = 0; ///< Live prefix of Chains (rest keep capacity).
  std::vector<uint32_t> ChainOf;
  std::vector<const Operation *> Chain;

  std::vector<const Operation *> &freshChain() {
    if (NumChains == Chains.size())
      Chains.emplace_back();
    std::vector<const Operation *> &C = Chains[NumChains++];
    C.clear();
    return C;
  }
};

ScopeRepairScratch &scopeRepairScratch() {
  thread_local ScopeRepairScratch Scratch;
  return Scratch;
}

constexpr uint32_t NoChain = ~0u;

/// Definition environment per event: the chain of loop ops entered to
/// reach the defining block (empty = root block). Every event defined in
/// one loop nest shares a chain, so chains are stored once per nest and
/// events map to a chain index — no per-event vector copies.
class ScopeRepairer {
public:
  ScopeRepairer(IRModule &Module, ScopeRepairScratch &S)
      : Module(Module), S(S) {}

  void run() {
    S.NumChains = 0;
    S.freshChain(); // Chain 0: the root block.
    S.ChainOf.assign(Module.numEvents(), NoChain);
    S.Chain.clear();
    collect(Module.root(), 0);
    S.Chain.clear();
    fix(Module.root());
  }

private:
  void collect(const IRBlock &Block, uint32_t ChainId) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Op->Result != InvalidEventId && Op->Result < Module.numEvents())
        S.ChainOf[Op->Result] = ChainId;
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor) {
        S.Chain.push_back(Op.get());
        S.freshChain().assign(S.Chain.begin(), S.Chain.end());
        collect(Op->Body, static_cast<uint32_t>(S.NumChains) - 1);
        S.Chain.pop_back();
      }
    }
  }

  void fix(IRBlock &Block) {
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      // Compact the list in place: each reference is kept, rebased onto
      // the loop that hides its event, or dropped, and then dropped again
      // if a structurally identical one was already kept (the list only
      // shrinks, so it stays in the op's own buffer).
      std::vector<EventRef> &Refs = Op->Preconds;
      size_t Kept = 0;
      for (size_t I = 0; I < Refs.size(); ++I) {
        EventRef &Ref = Refs[I];
        if (Ref.Event >= Module.numEvents() ||
            S.ChainOf[Ref.Event] == NoChain)
          continue; // Producer erased without rewiring: drop.
        const std::vector<const Operation *> &Def =
            S.Chains[S.ChainOf[Ref.Event]];
        size_t Common = 0;
        while (Common < Def.size() && Common < S.Chain.size() &&
               Def[Common] == S.Chain[Common])
          ++Common;
        if (Common != Def.size()) {
          // The event lives inside loops the user is not in; wait for the
          // outermost such loop instead.
          const Operation *Loop = Def[Common];
          if (Loop == Op.get())
            continue; // A loop waiting on its own body: drop.
          if (Loop->Result == InvalidEventId)
            continue;
          Ref.Event = Loop->Result;
          Ref.IterLag = 0;
          Ref.Indices.clear();
          const EventType &Type = Module.event(Loop->Result).Type;
          for (size_t D = 0; D < Type.Dims.size(); ++D)
            Ref.Indices.push_back(EventIndex::broadcast());
        }
        if (std::none_of(Refs.begin(), Refs.begin() + static_cast<long>(Kept),
                         [&Ref](const EventRef &Have) {
                           return sameRef(Have, Ref);
                         })) {
          if (Kept != I)
            Refs[Kept] = std::move(Ref);
          ++Kept;
        }
      }
      Refs.erase(Refs.begin() + static_cast<long>(Kept), Refs.end());
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor) {
        S.Chain.push_back(Op.get());
        fix(Op->Body);
        S.Chain.pop_back();
      }
    }
  }

  /// Structural identity of two references (the deduplication key).
  static bool sameRef(const EventRef &A, const EventRef &B) {
    if (A.Event != B.Event || A.IterLag != B.IterLag ||
        A.Indices.size() != B.Indices.size())
      return false;
    for (size_t D = 0; D < A.Indices.size(); ++D) {
      if (A.Indices[D].isBroadcast() != B.Indices[D].isBroadcast())
        return false;
      if (!A.Indices[D].isBroadcast() &&
          !A.Indices[D].Index.equals(B.Indices[D].Index))
        return false;
    }
    return true;
  }

  IRModule &Module;
  ScopeRepairScratch &S;
};

} // namespace

void cypress::repairEventScopes(IRModule &Module) {
  ScopeRepairer(Module, scopeRepairScratch()).run();
}

std::unique_ptr<Pass> cypress::createCopyEliminationPass() {
  return std::make_unique<FunctionPass>(
      "copy-elimination", [](PipelineState &State) {
        return runCopyElimination(State.Module, &State.Counters,
                                  State.Cancel);
      });
}

std::unique_ptr<Pass> cypress::createAssignExecUnitsPass() {
  return std::make_unique<FunctionPass>(
      "assign-exec-units", [](PipelineState &State) {
        assignExecUnits(State.Module);
        return ErrorOrVoid::success();
      });
}

std::unique_ptr<Pass> cypress::createRepairEventScopesPass() {
  return std::make_unique<FunctionPass>(
      "repair-event-scopes", [](PipelineState &State) {
        repairEventScopes(State.Module);
        return ErrorOrVoid::success();
      });
}
