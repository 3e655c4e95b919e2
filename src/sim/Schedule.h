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

  /// One shared-memory access of one instance (a byte range of one
  /// pipeline buffer), for the timing model's race trace.
  struct SmemPre {
    TensorId Tensor = InvalidTensorId;
    OpId Op = ~0u;
    int64_t Lo = 0, Hi = 0; ///< Byte range.
    size_t IterHash = 0;
    int32_t Wg = -1;
    bool Write = false;
  };

  /// Per-op record in the dense op table (indexed by a dense id assigned
  /// by the static pre-walk). For Copy/Call ops it also holds the op's
  /// instance template (see buildTemplates).
  struct OpRec {
    const Operation *Op = nullptr;
    uint32_t Depth = 0;    ///< Number of enclosing sequential loops.
    uint32_t ChainOff = 0; ///< Enclosing loop ops (dense ids), in ChainArena.
    /// For `For` ops: the coordinate range this loop iterates over, across
    /// all its instantiations (min Lo .. max Hi-1). Sizes the slabs of
    /// every event produced under this loop.
    int64_t MinCoord = std::numeric_limits<int64_t>::max();
    int64_t MaxCoord = std::numeric_limits<int64_t>::min();
    /// Template: [Off, Off + Count) ranges of the PrecondTmpls/SmemTmpls
    /// arenas, the warpgroup replica count (-1 when the op has no
    /// warpgroup dim), and whether the DMA agent issues the op.
    uint32_t PrecondTmplOff = 0, PrecondTmplCount = 0;
    uint32_t SmemTmplOff = 0, SmemTmplCount = 0;
    int64_t WgExtent = -1;
    bool Dma = false;
    /// Dense slots are assigned by a static pre-walk, so an op can hold a
    /// slot without ever being reached (a zero-trip enclosing loop).
    /// Events produced by unreached ops size their slabs as if the
    /// producer were unknown.
    bool Visited = false;
  };

  /// One executable instance of an operation. All variable-length payloads
  /// (iteration coordinates, loop-instance path, precondition descriptors,
  /// smem ranges) live in the arenas; the instance stores offsets.
  struct InstRec {
    const Operation *Op = nullptr;
    int32_t Wg = -1;    ///< -1 when the op has no warpgroup dim.
    uint32_t OpIdx = 0; ///< Dense op table index.
    uint32_t Depth = 0; ///< Enclosing loop count == coordinate count.
    uint32_t CoordOff = 0;
    uint32_t LoopOff = 0;
    uint32_t PrecondOff = 0, PrecondCount = 0;
    uint32_t SmemOff = 0, SmemCount = 0;
  };

  // Defined out of line, where the private shard types are complete.
  Schedule();
  ~Schedule();

  /// Expands \p Grid's body under \p Base (the block's environment: every
  /// processor index and any enclosing host loop variables) and sizes
  /// the completion table, discarding any previous expansion while
  /// keeping every arena's capacity. \p Cancel is polled once per
  /// top-level unit and reports a stop under \p CheckpointLabel. \p Alloc
  /// places shared-memory accesses for smem(); without one none are
  /// recorded. \p Hints pre-size the tables; \p Pool shards the expansion.
  ErrorOrVoid expand(const IRModule &Module, const Operation &Grid,
                     const ScalarEnv &Base, const Cancellation *Cancel,
                     const char *CheckpointLabel,
                     const SharedAllocation *Alloc = nullptr,
                     const SimHints *Hints = nullptr,
                     SimWorkerPool *Pool = nullptr);

  /// Agent count: the DMA warp plus one agent per compute warpgroup.
  size_t numAgents() const { return NumAgents; }
  const std::vector<uint32_t> &stream(size_t Agent) const {
    return Streams[Agent];
  }
  const InstRec &inst(uint32_t Idx) const { return Insts[Idx]; }
  const std::vector<OpRec> &ops() const { return Ops; }
  const SmemPre *smem(const InstRec &Inst) const {
    return SmemPres.data() + Inst.SmemOff;
  }
  /// True once the completion slot \p Slot (from ready()) has been filled.
  bool filled(uint64_t Slot) const { return !std::isnan(Times[Slot]); }

  /// Binds \p Env to the environment \p Inst was expanded under: its
  /// iteration coordinates to the enclosing loops' variables and the
  /// warpgroup index to its replica. Processor indices and host loop
  /// variables are the block's, already in \p Env.
  void bindEnv(const InstRec &Inst, ScalarEnv &Env) const {
    const uint32_t *Chain = ChainArena.data() + Ops[Inst.OpIdx].ChainOff;
    const int64_t *C = Coords.data() + Inst.CoordOff;
    for (uint32_t D = 0; D < Inst.Depth; ++D)
      Env.LoopVars[Ops[Chain[D]].Op->LoopVar] = C[D];
    Env.ProcIndices[Processor::Warpgroup] = std::max<int32_t>(Inst.Wg, 0);
  }

  /// Checks the preconditions of an instance in order, stopping at the
  /// first unmet one; on success \p WaitTime is the time the last of them
  /// completes, a broadcast wait costing \p BarrierLatency on top. On
  /// failure \p BlockedAt is the empty completion slot it waits on
  /// (NoSlot when no slot holds its key). Slots are written once per
  /// expansion and never cleared, so a head that failed on an empty slot
  /// fails the same way until filled() says otherwise.
  bool ready(const InstRec &Inst, double BarrierLatency, double &WaitTime,
             uint64_t &BlockedAt) const {
    WaitTime = 0.0;
    const PrecondDesc *P = Preconds.data() + Inst.PrecondOff;
    const int64_t *C = Coords.data() + Inst.CoordOff;
    for (uint32_t I = 0; I < Inst.PrecondCount; ++I, ++P) {
      // Expansion keeps only in-grid events (see buildTemplates).
      const EventRec &Rec = Events[P->Event];
      uint32_t KeyLen = std::min<uint32_t>(Inst.Depth, Rec.Depth);
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
    const Operation &Op = *Inst.Op;
    const int64_t *C = Coords.data() + Inst.CoordOff;
    if (Op.Result != InvalidEventId) {
      const EventRec &Rec = Events[Op.Result];
      uint32_t KeyLen = std::min(Inst.Depth, Ops[Inst.OpIdx].Depth);
      uint64_t Idx = 0;
      bool InRange =
          coordIndex(Rec, C, KeyLen, KeyLen ? C[KeyLen - 1] : 0, Idx);
      assert(InRange && KeyLen == Rec.Depth &&
             "producer key outside its own coordinate box");
      (void)InRange;
      uint64_t Slot = Inst.Wg < 0 ? 0 : static_cast<uint64_t>(Inst.Wg) + 1;
      Times[Rec.TimesOff + Slot * Rec.CoordCount + Idx] = Completion;
    }

    const uint32_t *Path = LoopPaths.data() + Inst.LoopOff;
    for (uint32_t D = 0; D < Inst.Depth; ++D) {
      LoopInst &Loop = Loops[Path[D]];
      Loop.MaxTime = std::max(Loop.MaxTime, Completion);
      if (--Loop.Remaining == 0 && Loop.Event != InvalidEventId) {
        EventRec &Rec = Events[Loop.Event];
        Rec.Depth = D;
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
  struct SmemTmpl;
  struct TopUnit;
  struct OpAcc;
  struct ShardBuf;

  /// Per-event completion table descriptor. Completion times for the
  /// event's (warpgroup, iteration-prefix) instances live in the shared
  /// Times arena at [TimesOff, TimesOff + WgSlots * CoordCount); NaN marks
  /// "not yet completed". Slot 0 holds the unreplicated (-1) warpgroup
  /// key, slots 1..Wgs the per-warpgroup keys of replicated events. The
  /// coordinate box is the producer's own enclosing-loop ranges (ChainOff
  /// into the chain arena), so a slab is exactly as large as the set of
  /// keys the producer can ever register — sibling loops with skewed
  /// extents don't inflate it.
  struct EventRec {
    uint64_t TimesOff = 0;
    uint64_t CoordCount = 1;
    uint32_t WgSlots = 1;
    uint32_t Depth = 0;    ///< Number of enclosing loops of the producer.
    uint32_t ChainOff = 0; ///< Producer's enclosing loop ops (dense ids).
    bool WgReplicated = false;
    bool Known = false; ///< Produced inside the grid body.
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
                      const SharedAllocation *Alloc);
  void buildUnits(const Operation &Grid, const ScalarEnv &Base);
  void expandShards(const ScalarEnv &Base, const SimHints *Hints,
                    SimWorkerPool *Pool, const Cancellation *Cancel,
                    const char *CheckpointLabel);
  void expandUnitRange(ShardBuf &B, size_t Begin, size_t End,
                       const Cancellation *Cancel,
                       const char *CheckpointLabel);
  void expandShardBlock(ShardBuf &B, const IRBlock &Block);
  void expandShardOp(ShardBuf &B, const Operation &Op);
  void pushInstance(ShardBuf &B, const OpRec &T, uint32_t OpIdx, int64_t Wg,
                    size_t Agent);
  void mergeShards(size_t NumShards);
  void buildEventTables(SimWorkerPool *Pool);

  /// Strided linear index of the coordinate prefix Coords[0..Len) within
  /// \p Rec's producer coordinate box, with the last coordinate overridden
  /// by \p Last (pipeline lag). False when any coordinate falls outside
  /// the box (no producer instance exists there).
  bool coordIndex(const EventRec &Rec, const int64_t *C, uint32_t Len,
                  int64_t Last, uint64_t &Out) const {
    uint64_t Idx = 0;
    const uint32_t *Chain = ChainArena.data() + Rec.ChainOff;
    for (uint32_t D = 0; D < Len; ++D) {
      const OpRec &Loop = Ops[Chain[D]];
      int64_t Coord = (D + 1 == Len) ? Last : C[D];
      if (Coord < Loop.MinCoord || Coord > Loop.MaxCoord)
        return false;
      Idx = Idx * static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1) +
            static_cast<uint64_t>(Coord - Loop.MinCoord);
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

  std::vector<InstRec> Insts;
  std::vector<std::vector<uint32_t>> Streams; ///< Instance indices per agent.
  std::vector<int64_t> Coords;                ///< Iteration-coordinate arena.
  std::vector<uint32_t> LoopPaths;            ///< Loop-instance-path arena.
  std::vector<PrecondDesc> Preconds;
  std::vector<SmemPre> SmemPres;
  std::vector<OpRec> Ops;
  std::vector<PrecondTmpl> PrecondTmpls; ///< Per-op template arenas.
  std::vector<SmemTmpl> SmemTmpls;
  std::vector<uint32_t> OpDense; ///< OpId -> dense op index (~0u absent).
  std::vector<EventRec> Events;  ///< Indexed by EventId.
  std::vector<std::pair<EventId, OpId>> KnownEvents;
  std::vector<double> Times; ///< Shared completion-time arena (NaN = absent).
  std::vector<LoopInst> Loops;
  std::vector<uint32_t> ChainArena; ///< Enclosing-loop dense ids per op.
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
