//===- Vectorization.cpp - Flattening implicit parallel loops --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 2 of the compiler (Section 4.2.2, Figure 9). Flattens the pfor
/// loops that are implicit in the GPU programming model — loops over
/// warpgroups, warps, and threads — starting from the deepest nesting:
///
///  * the induction variable is substituted with the processor index,
///  * events defined in the body gain a leading (extent, proc) dimension,
///  * point-wise uses inside the body prepend the processor index,
///  * uses of the loop's own completion event are redirected to the yielded
///    event, prepending the original indexing (so `e2[:]` becomes `e4[:]`
///    and `e2[i]` becomes `e4[i, ...]`).
///
/// Point-wise dependencies between the independent iterations are thereby
/// preserved, while post-loop synchronization stays encoded as broadcasted
/// indexing. Block-level pfors are left intact: they are the kernel grid.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "support/Format.h"

#include <algorithm>
#include <vector>

using namespace cypress;

namespace {

/// Replaces every occurrence of loop variable \p Var with \p Replacement in
/// an operation's expressions (slices, scalar args, loop bounds, event
/// indices).
void substituteVar(Operation &Op, LoopVarId Var,
                   const ScalarExpr &Replacement) {
  auto FixSlice = [&](TensorSlice &Slice) {
    for (ScalarExpr &Color : Slice.Color)
      Color = Color.substituteLoopVar(Var, Replacement);
    Slice.BufferIndex = Slice.BufferIndex.substituteLoopVar(Var, Replacement);
  };
  FixSlice(Op.CopySrc);
  FixSlice(Op.CopyDst);
  for (TensorSlice &Slice : Op.Args)
    FixSlice(Slice);
  for (ScalarExpr &Expr : Op.ScalarArgs)
    Expr = Expr.substituteLoopVar(Var, Replacement);
  Op.LoopLo = Op.LoopLo.substituteLoopVar(Var, Replacement);
  Op.LoopHi = Op.LoopHi.substituteLoopVar(Var, Replacement);
  for (EventRef &Ref : Op.Preconds)
    for (EventIndex &Index : Ref.Indices)
      if (!Index.isBroadcast())
        Index.Index = Index.Index.substituteLoopVar(Var, Replacement);
  if (Op.Kind == OpKind::For || Op.Kind == OpKind::PFor) {
    for (std::unique_ptr<Operation> &Inner : Op.Body.Ops)
      substituteVar(*Inner, Var, Replacement);
    if (Op.Body.Yield)
      for (EventIndex &Index : Op.Body.Yield->Indices)
        if (!Index.isBroadcast())
          Index.Index = Index.Index.substituteLoopVar(Var, Replacement);
  }
}

/// Substitutes the induction variable inside partition bases too:
/// partitions created in a flattened body may select pieces with the loop
/// variable in their base-slice colors.
void substituteInPartitions(IRModule &Module, LoopVarId Var,
                            const ScalarExpr &Replacement) {
  for (IRPartition &P : Module.partitions()) {
    for (ScalarExpr &Color : P.Base.Color)
      Color = Color.substituteLoopVar(Var, Replacement);
    P.Base.BufferIndex = P.Base.BufferIndex.substituteLoopVar(Var, Replacement);
  }
}

/// Pooled per-thread buffers: flattening is called once per implicit pfor
/// per compile, and tuner sweeps compile back to back.
struct VectScratch {
  std::vector<EventId> BodyEvents;
};

/// The flattened parallel context of an op, outermost first: at most the
/// three intra-block levels, so it lives inline like Operation::VecContext.
using DimStack = InlineVector<EventDim, 4>;

VectScratch &vectScratch() {
  thread_local VectScratch Scratch;
  return Scratch;
}

class Vectorizer {
public:
  Vectorizer(IRModule &Module, const MachineModel &Machine)
      : Module(Module), Machine(Machine), S(vectScratch()) {}

  ErrorOrVoid run() {
    DimStack Context;
    processBlock(Module.root(), Context);
    if (Failure)
      return *Failure;
    return ErrorOrVoid::success();
  }

private:
  /// True if pfors at this level flatten away (intra-block parallelism).
  bool isImplicitLevel(Processor Proc) const {
    return Proc == Processor::Warpgroup || Proc == Processor::Warp ||
           Proc == Processor::Thread;
  }

  /// Recursively vectorizes \p Block. \p Context is the flattened parallel
  /// context accumulated so far (outermost first); it is mutated push/pop
  /// style around recursion instead of copied per block.
  void processBlock(IRBlock &Block, DimStack &Context) {
    // Deepest-first: vectorize inside loop bodies before flattening here.
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Op->Kind == OpKind::For) {
        processBlock(Op->Body, Context);
      } else if (Op->Kind == OpKind::PFor) {
        bool Pushed = isImplicitLevel(Op->PForProc);
        if (Pushed)
          Context.push_back(
              {Op->LoopHi.constantValue() - Op->LoopLo.constantValue(),
               Op->PForProc});
        processBlock(Op->Body, Context);
        if (Pushed)
          Context.pop_back();
      }
    }

    // Now flatten the implicit pfors at this level, in place.
    for (size_t I = 0; I < Block.Ops.size();) {
      Operation &Op = *Block.Ops[I];
      if (Op.Kind != OpKind::PFor || !isImplicitLevel(Op.PForProc)) {
        if (!Context.empty() && Op.Kind != OpKind::PFor)
          appendContext(Op, Context);
        ++I;
        continue;
      }
      flattenPFor(Block, I, Context);
      // Re-visit index I: the first moved op now sits there.
    }
  }

  void appendContext(Operation &Op, const DimStack &Context) {
    // Record the enclosing flattened dims once (outermost first); avoid
    // double-stamping ops already annotated via nested processing.
    if (Op.VecContext.empty())
      Op.VecContext = Context;
  }

  /// Flattens the pfor at Block.Ops[Index].
  void flattenPFor(IRBlock &Block, size_t Index, const DimStack &Context) {
    std::unique_ptr<Operation> Loop = std::move(Block.Ops[Index]);
    Block.Ops.erase(Block.Ops.begin() + static_cast<long>(Index));

    if (!Loop->LoopLo.isConstant() || !Loop->LoopHi.isConstant()) {
      fail("pfor bounds over implicit processor levels must be static");
      return;
    }
    int64_t Extent = Loop->LoopHi.constantValue() -
                     Loop->LoopLo.constantValue();
    EventDim NewDim{Extent, Loop->PForProc};
    ScalarExpr ProcVar = ScalarExpr::procIndex(Loop->PForProc);

    // Events defined directly in the body (loop results of nested loops
    // included — nested implicit pfors were flattened already, so their
    // events now live directly in this body). Sorted vector: the member
    // tests below are the flattening loop's innermost operation.
    std::vector<EventId> &BodyEvents = S.BodyEvents;
    BodyEvents.clear();
    for (std::unique_ptr<Operation> &Op : Loop->Body.Ops)
      if (Op->Result != InvalidEventId)
        BodyEvents.push_back(Op->Result);
    std::sort(BodyEvents.begin(), BodyEvents.end());

    // Promote event types: prepend the new dimension.
    for (EventId E : BodyEvents) {
      EventType &Type = Module.event(E).Type;
      Type.Dims.insert(Type.Dims.begin(), NewDim);
    }

    // Capture the yield target before rewriting body refs.
    std::optional<EventRef> Yield = Loop->Body.Yield;

    // Rewrite uses inside the body: substitute the induction variable with
    // the processor index and prepend the point-wise index on refs to
    // promoted events.
    for (std::unique_ptr<Operation> &Op : Loop->Body.Ops) {
      substituteVar(*Op, Loop->LoopVar, ProcVar);
      prependIndexOnRefs(*Op, BodyEvents,
                         EventIndex::expr(ProcVar));
    }
    substituteInPartitions(Module, Loop->LoopVar, ProcVar);

    // Uses of the loop's completion event elsewhere redirect to the yielded
    // event; uses of promoted body events cannot appear outside by SSA
    // scoping, but the yield ref's event was promoted, so the original
    // outer index takes the new leading slot. SSA scoping also bounds the
    // search: references to the pfor's completion event can only exist in
    // its containing block (including nested bodies and that block's own
    // yield), so the redirect walks Block, not the whole module.
    if (Loop->Result != InvalidEventId) {
      if (!Yield) {
        // Empty loops: drop refs to the loop event entirely.
        dropRefsTo(Block, Loop->Result);
      } else {
        redirectLoopEvent(Block, Loop->Result, *Yield);
        if (Block.Yield)
          redirectRef(*Block.Yield, Loop->Result, *Yield);
      }
    }

    // Splice the body into the parent, annotating the flattened context.
    // Annotate first, then insert the whole body with one tail shift
    // (per-op inserts would shift the parent's tail once per body op).
    DimStack Inner = Context;
    Inner.push_back(NewDim);
    for (std::unique_ptr<Operation> &Op : Loop->Body.Ops) {
      // Entry ops (no intra-body precondition) inherit the loop's
      // preconditions, in one exact growth.
      if (opHasNoPrecondIn(*Op, BodyEvents)) {
        Op->Preconds.reserve(Op->Preconds.size() + Loop->Preconds.size());
        Op->Preconds.insert(Op->Preconds.end(), Loop->Preconds.begin(),
                            Loop->Preconds.end());
      }
      if (Op->Kind == OpKind::PFor) {
        // Remaining pfors are grid-level only; they cannot appear under an
        // implicit level.
        fail("block-level pfor nested inside an implicit parallel loop");
        return;
      }
      Op->VecContext = Inner;
      if (Op->Kind == OpKind::For)
        stampContext(Op->Body, Inner);
    }
    Block.Ops.insert(Block.Ops.begin() + static_cast<long>(Index),
                     std::make_move_iterator(Loop->Body.Ops.begin()),
                     std::make_move_iterator(Loop->Body.Ops.end()));
  }

  void stampContext(IRBlock &Block, const DimStack &Context) {
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      Op->VecContext = Context;
      if (Op->Kind == OpKind::For)
        stampContext(Op->Body, Context);
    }
  }

  static bool contains(const std::vector<EventId> &Events, EventId Event) {
    return std::binary_search(Events.begin(), Events.end(), Event);
  }

  static bool opHasNoPrecondIn(const Operation &Op,
                               const std::vector<EventId> &Events) {
    for (const EventRef &Ref : Op.Preconds)
      if (contains(Events, Ref.Event))
        return false;
    return true;
  }

  /// Prepends \p Index to every reference to an event in \p Events within
  /// one operation (preconditions, nested bodies, yields).
  void prependIndexOnRefs(Operation &Op, const std::vector<EventId> &Events,
                          const EventIndex &Index) {
    for (EventRef &Ref : Op.Preconds)
      if (contains(Events, Ref.Event))
        Ref.Indices.insert(Ref.Indices.begin(), Index);
    if (Op.Kind == OpKind::For || Op.Kind == OpKind::PFor) {
      for (std::unique_ptr<Operation> &Inner : Op.Body.Ops)
        prependIndexOnRefs(*Inner, Events, Index);
      if (Op.Body.Yield && contains(Events, Op.Body.Yield->Event))
        Op.Body.Yield->Indices.insert(Op.Body.Yield->Indices.begin(), Index);
    }
  }

  /// Redirects every use of \p LoopEvent to \p Yield, prepending the
  /// original outer index to the yield's indices.
  void redirectLoopEvent(IRBlock &Block, EventId LoopEvent,
                         const EventRef &Yield) {
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      for (EventRef &Ref : Op->Preconds)
        redirectRef(Ref, LoopEvent, Yield);
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor) {
        redirectLoopEvent(Op->Body, LoopEvent, Yield);
        if (Op->Body.Yield)
          redirectRef(*Op->Body.Yield, LoopEvent, Yield);
      }
    }
  }

  static void redirectRef(EventRef &Ref, EventId LoopEvent,
                          const EventRef &Yield) {
    if (Ref.Event != LoopEvent)
      return;
    assert(Ref.Indices.size() == 1 &&
           "loop completion events have exactly one dimension at flatten");
    EventIndex Outer = Ref.Indices[0];
    EventRef New = Yield;
    New.Indices.insert(New.Indices.begin(), Outer);
    New.IterLag = Ref.IterLag;
    Ref = std::move(New);
  }

  void dropRefsTo(IRBlock &Block, EventId Event) {
    for (std::unique_ptr<Operation> &Op : Block.Ops) {
      Op->Preconds.erase(std::remove_if(Op->Preconds.begin(),
                                        Op->Preconds.end(),
                                        [Event](const EventRef &Ref) {
                                          return Ref.Event == Event;
                                        }),
                         Op->Preconds.end());
      if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
        dropRefsTo(Op->Body, Event);
    }
    if (Block.Yield && Block.Yield->Event == Event)
      Block.Yield.reset();
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }

  IRModule &Module;
  [[maybe_unused]] const MachineModel &Machine;
  VectScratch &S;
  std::optional<Diagnostic> Failure;
};

} // namespace

ErrorOrVoid cypress::runVectorization(IRModule &Module,
                                      const MachineModel &Machine) {
  return Vectorizer(Module, Machine).run();
}

std::unique_ptr<Pass> cypress::createVectorizationPass() {
  return std::make_unique<FunctionPass>(
      "vectorization", [](PipelineState &State) {
        return runVectorization(State.Module, *State.Input->Machine);
      });
}
