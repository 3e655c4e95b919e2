//===- Schedule.h - Warp-specialized agent schedule of one block ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The agent schedule of one grid body, shared by the two executors that
/// run a kernel the way the hardware would: the timing model (BlockTimer,
/// src/sim/Simulator.cpp) drives it with a clock, the scalar CPU lowering
/// (src/backend) with data. Its rules therefore exist exactly once:
///
///  * agent 0 is the DMA warp, agents 1..W the compute warpgroups; an op
///    belongs to the DMA agent iff the grid is warp-specialized and the
///    warp-spec pass tagged it;
///  * ops with a warpgroup dimension run once per warpgroup (DMA-owned
///    instances all land on agent 0, each with its own preconditions);
///  * precondition keys are the consumer's iteration coordinates at the
///    producer's loop depth; pipeline lag subtracts from the innermost
///    coordinate and is vacuously satisfied for the first LAG iterations;
///  * a `for` op's completion event fires when every body instance of that
///    loop instance has completed (Figure 8's `for` events).
///
/// expand() enumerates every Copy/Call instance into per-agent streams of
/// dense arenas, sharded across a SimWorkerPool with a bit-identical
/// in-order merge. Completions live in one flat NaN-initialized array
/// indexed by strided iteration keys, so ready() is array loads and
/// complete() array stores. What an instance costs and when it starts are
/// the driver's business.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SIM_SCHEDULE_H
#define CYPRESS_SIM_SCHEDULE_H

#include "ir/IR.h"
#include "sim/Simulator.h"
#include "support/Cancel.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace cypress {

class Schedule {
public:
  /// Times index meaning "no empty completion slot" (see ready()).
  static constexpr uint64_t NoSlot = ~uint64_t(0);

  /// One precondition of one instance, with the warpgroup index already
  /// evaluated under the instance's environment, so a readiness check
  /// never evaluates an expression.
  struct PrecondDesc {
    EventId Event = InvalidEventId;
    int64_t IterLag = 0;
    int32_t WantWg = -1; ///< Concrete warpgroup index; -1 when not indexed.
    bool Broadcast = false;
  };

  /// One shared-memory access site of an op: a byte range of one pipeline
  /// buffer of \p Tensor's allocation. Which buffer an instance touches is
  /// its byte offset in the offset arena (smemLo()).
  struct SmemSite {
    TensorId Tensor = InvalidTensorId;
    int64_t Offset = 0; ///< Allocation offset of buffer 0.
    int64_t Bytes = 0;  ///< Bytes of one pipeline buffer.
    const ScalarExpr *BufferIndex = nullptr;
    bool Write = false;
  };

  /// Arena offset of an op with no per-(op, warpgroup) table.
  static constexpr uint32_t NoTable = ~0u;

  /// Per-op record in the dense op table (indexed by a dense id assigned
  /// by the static pre-walk). For Copy/Call ops it also holds the op's
  /// instance template (see buildTemplates).
  struct OpRec {
    const Operation *Op = nullptr;
    EventId Result = InvalidEventId; ///< Op->Result, next to the hot fields.
    uint32_t Depth = 0;    ///< Number of enclosing sequential loops.
    uint32_t ChainOff = 0; ///< Enclosing loop ops (dense ids), in ChainArena.
    /// For `For` ops: the coordinate range this loop iterates over, across
    /// all its instantiations (min Lo .. max Hi-1). Sizes the slabs of
    /// every event produced under this loop.
    int64_t MinCoord = std::numeric_limits<int64_t>::max();
    int64_t MaxCoord = std::numeric_limits<int64_t>::min();
    /// Template: [Off, Off + Count) ranges of the PrecondTmpls/SmemSites
    /// arenas, the warpgroup replica count (-1 when the op has no
    /// warpgroup dim), and whether the DMA agent issues the op.
    uint32_t PrecondTmplOff = 0, PrecondCount = 0;
    uint32_t SmemSiteOff = 0, SmemCount = 0;
    /// Offsets of the op's per-(op, warpgroup) tables in the Preconds and
    /// SmemLo arenas: PrecondCount (SmemCount) entries per replica. NoTable
    /// when a warpgroup (buffer) index mentions a loop variable; each
    /// instance then carries its own entries in the same arena.
    uint32_t PrecondTable = NoTable, SmemTable = NoTable;
    /// Whether a buffer index names a processor index: otherwise all
    /// replicas of a loop-dependent op share one row of smem offsets.
    bool SmemPerReplica = false;
    int64_t WgExtent = -1;
    bool Dma = false;
    /// Dense slots are assigned by a static pre-walk, so an op can hold a
    /// slot without ever being reached (a zero-trip enclosing loop).
    /// Events produced by unreached ops size their slabs as if the
    /// producer were unknown.
    bool Visited = false;
  };

  /// One executable instance of an operation: its op, its replica and
  /// offsets into the arenas. Its iteration coordinates and loop-instance
  /// path share one offset (both are Depth long, interned together); its
  /// preconditions and smem byte offsets sit in the op's table or, for a
  /// loop-dependent op, in entries of its own.
  struct InstRec {
    uint32_t OpIdx = 0; ///< Dense op table index.
    int32_t Wg = -1;    ///< -1 when the op has no warpgroup dim.
    uint32_t PathOff = 0;
    uint32_t PrecondOff = 0;
    uint32_t SmemOff = 0;
  };

  // Defined out of line, where the private shard types are complete.
  Schedule();
  ~Schedule();

  /// Expands \p Grid's body under \p Base (the block's environment: every
  /// processor index and any enclosing host loop variables) and sizes
  /// the completion table, discarding any previous expansion while
  /// keeping every arena's capacity. \p Cancel is polled once per
  /// top-level unit and reports a stop under \p CheckpointLabel. \p Alloc
  /// places shared-memory accesses for smemSites(); without one none are
  /// recorded. \p Hints pre-size the tables; \p Pool shards the expansion.
  ErrorOrVoid expand(const IRModule &Module, const Operation &Grid,
                     const ScalarEnv &Base, const Cancellation *Cancel,
                     const char *CheckpointLabel,
                     const SharedAllocation *Alloc = nullptr,
                     const SimHints *Hints = nullptr,
                     SimWorkerPool *Pool = nullptr);

  /// Agent count: the DMA warp plus one agent per compute warpgroup.
  size_t numAgents() const { return NumAgents; }
  /// The instances agent \p Agent issues, in program order.
  const std::vector<InstRec> &stream(size_t Agent) const {
    return Streams[Agent];
  }
  const std::vector<OpRec> &ops() const { return Ops; }
  const Operation &op(const InstRec &Inst) const {
    return *Ops[Inst.OpIdx].Op;
  }
  /// The instance's shared-memory access sites and, in step with them, the
  /// byte offset of the buffer each touches; Ops[OpIdx].SmemCount long.
  const SmemSite *smemSites(const InstRec &Inst) const {
    return SmemSites.data() + Ops[Inst.OpIdx].SmemSiteOff;
  }
  const int64_t *smemLo(const InstRec &Inst) const {
    return SmemLo.data() + Inst.SmemOff;
  }
  /// True once the completion slot \p Slot (from ready()) has been filled.
  bool filled(uint64_t Slot) const { return !std::isnan(Times[Slot]); }

  /// Binds \p Env to the environment \p Inst was expanded under: its
  /// iteration coordinates to the enclosing loops' variables and the
  /// warpgroup index to its replica. Processor indices and host loop
  /// variables are the block's, already in \p Env.
  void bindEnv(const InstRec &Inst, ScalarEnv &Env) const {
    const OpRec &Op = Ops[Inst.OpIdx];
    const uint32_t *Chain = ChainArena.data() + Op.ChainOff;
    const int64_t *C = Coords.data() + Inst.PathOff;
    for (uint32_t D = 0; D < Op.Depth; ++D)
      Env.LoopVars[Ops[Chain[D]].Op->LoopVar] = C[D];
    Env.ProcIndices[Processor::Warpgroup] = std::max<int32_t>(Inst.Wg, 0);
  }

  /// A readiness check of one instance that can stop at an unmet
  /// precondition and later resume there: slots are written once per
  /// expansion and never cleared, so a precondition met once stays met
  /// with the same time.
  struct Check {
    double WaitTime = 0.0; ///< Latest completion among the met ones.
    uint32_t Next = 0;     ///< First precondition not yet met.
    uint64_t BlockedAt = NoSlot;
  };

  /// Checks the preconditions of an instance in order from \p Progress's
  /// Next, stopping at the first unmet one; on success Progress.WaitTime
  /// is the time the last of them completes, a broadcast wait costing
  /// \p BarrierLatency on top. On failure Progress.BlockedAt is the empty
  /// completion slot it waits on (NoSlot when no slot holds its key); a
  /// check that failed on an empty slot fails the same way until filled()
  /// says otherwise.
  bool ready(const InstRec &Inst, double BarrierLatency,
             Check &Progress) const {
    const OpRec &Op = Ops[Inst.OpIdx];
    const int64_t *C = Coords.data() + Inst.PathOff;
    double &WaitTime = Progress.WaitTime;
    uint64_t &BlockedAt = Progress.BlockedAt;
    for (uint32_t &I = Progress.Next; I < Op.PrecondCount; ++I) {
      const PrecondDesc *P = Preconds.data() + Inst.PrecondOff + I;
      // Expansion keeps only in-grid events (see buildTemplates).
      const EventRec &Rec = Events[P->Event];
      uint32_t KeyLen = std::min<uint32_t>(Op.Depth, Rec.Depth);
      int64_t Last = KeyLen ? C[KeyLen - 1] : 0;
      if (P->IterLag > 0) {
        if (KeyLen == 0)
          continue; // Lag at depth zero: vacuously satisfied.
        Last -= P->IterLag;
        if (Last < 0)
          continue; // First PIPE iterations: buffer not yet reused.
      }

      // Producers always register keys at their own depth; a shorter
      // prefix (consumer shallower than producer) can never match, nor can
      // a key outside the producer's coordinate box.
      uint64_t Idx;
      if (KeyLen != Rec.Depth || !coordIndex(Rec, C, KeyLen, Last, Idx)) {
        BlockedAt = NoSlot;
        return false;
      }
      double Cycle = 0.0;
      if (Rec.WgReplicated) {
        if (P->WantWg >= 0 && !P->Broadcast) {
          if (!lookupTime(Rec, P->WantWg, Idx, Cycle, BlockedAt))
            return false;
        } else {
          // All warpgroup instances must exist.
          int64_t Wgs = static_cast<int64_t>(NumAgents) - 1;
          for (int64_t Wg = 0; Wg < Wgs; ++Wg) {
            double T;
            if (!lookupTime(Rec, Wg, Idx, T, BlockedAt))
              return false;
            Cycle = std::max(Cycle, T);
          }
          Cycle += BarrierLatency;
        }
      } else {
        if (!lookupTime(Rec, -1, Idx, Cycle, BlockedAt))
          return false;
        if (P->Broadcast)
          Cycle += BarrierLatency;
      }
      WaitTime = std::max(WaitTime, Cycle);
    }
    return true;
  }

  /// Records that \p Inst completed at \p Completion: fills its event's
  /// completion slot and credits every enclosing loop instance; when the
  /// last body instance of a loop instance completes, the loop's event
  /// becomes available at the latest body completion.
  void complete(const InstRec &Inst, double Completion) {
    const OpRec &Op = Ops[Inst.OpIdx];
    const int64_t *C = Coords.data() + Inst.PathOff;
    if (Op.Result != InvalidEventId) {
      const EventRec &Rec = Events[Op.Result];
      uint32_t KeyLen = Op.Depth;
      uint64_t Idx = 0;
      bool InRange =
          coordIndex(Rec, C, KeyLen, KeyLen ? C[KeyLen - 1] : 0, Idx);
      assert(InRange && KeyLen == Rec.Depth &&
             "producer key outside its own coordinate box");
      (void)InRange;
      uint64_t Slot = Inst.Wg < 0 ? 0 : static_cast<uint64_t>(Inst.Wg) + 1;
      Times[Rec.TimesOff + Slot * Rec.CoordCount + Idx] = Completion;
    }

    const uint32_t *Path = LoopPaths.data() + Inst.PathOff;
    for (uint32_t D = 0; D < Op.Depth; ++D) {
      LoopInst &Loop = Loops[Path[D]];
      Loop.MaxTime = std::max(Loop.MaxTime, Completion);
      if (--Loop.Remaining == 0 && Loop.Event != InvalidEventId) {
        const EventRec &Rec = Events[Loop.Event];
        assert(Rec.Depth == D && "loop event outside its loop's depth");
        uint64_t Idx = 0;
        bool InRange = coordIndex(Rec, C, D, D ? C[D - 1] : 0, Idx);
        assert(InRange && "loop prefix outside its own coordinate box");
        (void)InRange;
        Times[Rec.TimesOff + Idx] = Loop.MaxTime; // Warpgroup slot -1.
      }
    }
  }

private:
  struct PrecondTmpl;
  struct TopUnit;
  struct OpAcc;
  struct ShardBuf;

  /// Per-event completion table descriptor. Completion times for the
  /// event's (warpgroup, iteration-prefix) instances live in the shared
  /// Times arena at [TimesOff, TimesOff + WgSlots * CoordCount); NaN marks
  /// "not yet completed". Slot 0 holds the unreplicated (-1) warpgroup
  /// key, slots 1..Wgs the per-warpgroup keys of replicated events. The
  /// coordinate box is the producer's own enclosing-loop ranges (Depth
  /// entries at BoxOff in the box arena), so a slab is exactly as large as
  /// the set of keys the producer can ever register — sibling loops with
  /// skewed extents don't inflate it.
  struct EventRec {
    uint64_t TimesOff = 0;
    uint64_t CoordCount = 1;
    uint32_t WgSlots = 1;
    uint32_t Depth = 0;  ///< Number of enclosing loops of the producer.
    uint32_t BoxOff = 0; ///< Producer's enclosing loop ranges.
    bool WgReplicated = false;
    bool Known = false; ///< Produced inside the grid body.
  };

  /// The coordinates one enclosing loop iterates over, across all its
  /// instantiations: [Min, Min + Extent).
  struct CoordBox {
    int64_t Min = 0;
    uint64_t Extent = 0;
  };

  /// Outstanding body-instance count per loop instance (one For op entered
  /// at one enclosing iteration prefix).
  struct LoopInst {
    int64_t Remaining = 0;
    double MaxTime = 0;
    EventId Event = InvalidEventId;
  };

  void indexOps(const IRBlock &Block);
  uint32_t assignDense(const Operation &Op);
  void buildTemplates(const IRModule &Module, const Operation &Grid,
                      const ScalarEnv &Base, const SharedAllocation *Alloc);
  void buildUnits(const Operation &Grid, const ScalarEnv &Base);
  void expandShards(const ScalarEnv &Base, SimWorkerPool *Pool,
                    const Cancellation *Cancel, const char *CheckpointLabel);
  void expandUnitRange(ShardBuf &B, size_t Begin, size_t End,
                       const Cancellation *Cancel,
                       const char *CheckpointLabel);
  void expandShardBlock(ShardBuf &B, const IRBlock &Block);
  void expandShardOp(ShardBuf &B, const Operation &Op);
  void fillTables(OpRec &Rec);
  void mergeShards(size_t NumShards);
  void buildEventTables(SimWorkerPool *Pool);

  /// Strided linear index of the coordinate prefix Coords[0..Len) within
  /// \p Rec's producer coordinate box, with the last coordinate overridden
  /// by \p Last (pipeline lag). False when any coordinate falls outside
  /// the box (no producer instance exists there).
  bool coordIndex(const EventRec &Rec, const int64_t *C, uint32_t Len,
                  int64_t Last, uint64_t &Out) const {
    uint64_t Idx = 0;
    const CoordBox *Box = Boxes.data() + Rec.BoxOff;
    for (uint32_t D = 0; D < Len; ++D) {
      int64_t Coord = (D + 1 == Len) ? Last : C[D];
      // Below Min wraps around to an offset past any extent.
      uint64_t Off =
          static_cast<uint64_t>(Coord) - static_cast<uint64_t>(Box[D].Min);
      if (Off >= Box[D].Extent)
        return false;
      Idx = Idx * Box[D].Extent + Off;
    }
    Out = Idx;
    return true;
  }

  /// Completion time of the warpgroup \p Wg instance (-1: unreplicated)
  /// of the key at coordinate index \p Idx (see coordIndex) of \p Rec;
  /// false when that instance has not completed, with \p Pending set to
  /// its still-empty Times slot, or when the event has no such warpgroup
  /// slot (Pending = NoSlot).
  bool lookupTime(const EventRec &Rec, int64_t Wg, uint64_t Idx, double &Out,
                  uint64_t &Pending) const {
    uint64_t Slot = Wg < 0 ? 0 : static_cast<uint64_t>(Wg) + 1;
    if (Slot >= Rec.WgSlots) {
      Pending = NoSlot;
      return false;
    }
    uint64_t At = Rec.TimesOff + Slot * Rec.CoordCount + Idx;
    double T = Times[At];
    if (std::isnan(T)) {
      Pending = At;
      return false;
    }
    Out = T;
    return true;
  }

  std::vector<std::vector<InstRec>> Streams; ///< Instances per agent.
  std::vector<int64_t> Coords;               ///< Iteration-coordinate arena.
  std::vector<uint32_t> LoopPaths;           ///< Loop-instance-path arena.
  /// Per-(op, warpgroup) tables first (FixedPreconds / FixedSmem entries),
  /// then the entries of loop-dependent instances.
  std::vector<PrecondDesc> Preconds;
  std::vector<int64_t> SmemLo; ///< Buffer byte offsets, per SmemSite.
  uint32_t FixedPreconds = 0, FixedSmem = 0;
  std::vector<OpRec> Ops;
  std::vector<PrecondTmpl> PrecondTmpls; ///< Per-op template arenas.
  std::vector<SmemSite> SmemSites;
  ScalarEnv TableEnv; ///< Base environment the tables are evaluated under.
  std::vector<uint32_t> OpDense; ///< OpId -> dense op index (~0u absent).
  std::vector<EventRec> Events;  ///< Indexed by EventId.
  std::vector<std::pair<EventId, OpId>> KnownEvents;
  std::vector<double> Times; ///< Shared completion-time arena (NaN = absent).
  std::vector<LoopInst> Loops;
  std::vector<uint32_t> ChainArena; ///< Enclosing-loop dense ids per op.
  std::vector<CoordBox> Boxes;      ///< Per-event producer loop ranges.
  std::vector<TopUnit> Units;       ///< Top-level expansion work list.
  std::vector<ShardBuf> Shards;     ///< Per-shard buffers (pooled).

  size_t NumAgents = 0;
  int64_t Wgs = 1;          ///< Widest warpgroup dim (static pre-walk).
  uint32_t NumTopLoops = 0; ///< Global loop instances from buildUnits.
  std::vector<uint32_t> LoopOpStack; ///< Pre-walk: enclosing For dense ids.
  std::optional<Diagnostic> Failure;
};

} // namespace cypress

#endif // CYPRESS_SIM_SCHEDULE_H
