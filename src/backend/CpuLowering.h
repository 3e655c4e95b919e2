//===- CpuLowering.h - Scalar CPU lowering of the emitted kernel ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scalar CPU lowering of the kernel body the CUDA emitter prints: a
/// structured walker over the same post-pipeline IR that executes copies
/// element-wise, calls the LeafRegistry scalar reference leaves, and
/// resolves the warp-specialized agent split and its barriers sequentially.
///
/// Where `runFunctional` (src/sim) ignores agents entirely and executes the
/// block body in program order, this lowering reproduces the emitted
/// kernel's control structure: one DMA agent plus one agent per compute
/// warpgroup, each advancing through its own instruction stream in order
/// and blocking on unresolved event preconditions. It drives the shared
/// `Schedule` (src/sim/Schedule.h), the same agent expansion the timing
/// simulator's BlockTimer drives, so ownership, precondition keying,
/// pipeline-lag vacuity and loop-completion events are one implementation.
/// Running both executors over shared inputs and comparing outputs is the
/// repo's offline differential check that the emitted schedule computes
/// the same function as the task program (tests/BackendExecTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_BACKEND_CPULOWERING_H
#define CYPRESS_BACKEND_CPULOWERING_H

#include "ir/IR.h"
#include "sim/LeafRegistry.h"
#include "support/Cancel.h"
#include "support/Error.h"
#include "tensor/TensorData.h"

#include <vector>

namespace cypress {

/// What one lowered run did: enough to assert the agent machinery actually
/// engaged (a warp-specialized kernel that never stalled an agent never
/// exercised a barrier) and to report scale in bench output.
struct LoweredStats {
  int64_t Blocks = 0;    ///< Grid iterations executed.
  int64_t Agents = 0;    ///< Widest agent count of any grid (1 + warpgroups).
  int64_t Instances = 0; ///< Op instances executed across all agents.
  int64_t Stalls = 0;    ///< Times an agent blocked on an unmet event.
};

/// Executes \p Module the way the emitted CUDA kernel would run, writing
/// results into \p EntryBuffers (one per entry argument, shapes matching
/// the compile-time types). Fails with a diagnostic on a schedule deadlock
/// (an event wait no agent can satisfy — i.e. the compiler emitted an
/// unexecutable kernel), an unregistered leaf, or a malformed copy.
/// \p Cancel (when active) is polled once per top-level unit of each
/// block's schedule expansion and at scheduler-round boundaries; an expired deadline or fired token stops the run with the
/// checkpoint's structured diagnostic instead of letting a stalled
/// schedule spin forever. A genuinely stuck schedule still surfaces as
/// the deadlock diagnostic — progress detection runs before the
/// checkpoint, so an injected stall never masquerades as a deadline.
ErrorOr<LoweredStats>
runCpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
              const std::vector<TensorData *> &EntryBuffers,
              const Cancellation *Cancel = nullptr);

} // namespace cypress

#endif // CYPRESS_BACKEND_CPULOWERING_H
