//===- Machine.cpp - Hierarchical machine model ----------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "machine/Machine.h"

#include "support/Error.h"

#include <algorithm>

using namespace cypress;

const char *cypress::processorName(Processor Proc) {
  switch (Proc) {
  case Processor::Host:
    return "HOST";
  case Processor::Block:
    return "BLOCK";
  case Processor::Warpgroup:
    return "WARPGROUP";
  case Processor::Warp:
    return "WARP";
  case Processor::Thread:
    return "THREAD";
  }
  cypressUnreachable("unknown processor kind");
}

const char *cypress::memoryName(Memory Mem) {
  switch (Mem) {
  case Memory::None:
    return "NONE";
  case Memory::Global:
    return "GLOBAL";
  case Memory::Shared:
    return "SHARED";
  case Memory::Register:
    return "REGISTER";
  }
  cypressUnreachable("unknown memory kind");
}

MachineModel::MachineModel(std::string Name, std::vector<ProcessorLevel> Levels,
                           std::vector<MemoryLevel> Memories)
    : Name(std::move(Name)), Levels(std::move(Levels)),
      Memories(std::move(Memories)) {
  assert(!this->Levels.empty() && "machine needs at least one level");
  for (const MemoryLevel &Mem : this->Memories) {
    (void)Mem; // Only inspected by the assert below.
    assert(hasLevel(Mem.Scope) && "memory scope names an unknown level");
  }

  ContentHasher H;
  H.str(this->Name).word(this->Levels.size());
  for (const ProcessorLevel &Level : this->Levels)
    H.word(static_cast<uint64_t>(Level.Kind))
        .word(static_cast<uint64_t>(Level.FanOut))
        .word(static_cast<uint64_t>(Level.ThreadsPerInstance));
  H.word(this->Memories.size());
  for (const MemoryLevel &Mem : this->Memories)
    H.word(static_cast<uint64_t>(Mem.Kind))
        .word(static_cast<uint64_t>(Mem.Scope))
        .word(static_cast<uint64_t>(Mem.CapacityBytes));
  Digest = H.finish();
}

bool MachineModel::hasLevel(Processor Proc) const {
  return std::any_of(Levels.begin(), Levels.end(),
                     [&](const ProcessorLevel &L) { return L.Kind == Proc; });
}

const ProcessorLevel &MachineModel::level(Processor Proc) const {
  for (const ProcessorLevel &L : Levels)
    if (L.Kind == Proc)
      return L;
  cypressUnreachable("processor level not present in machine");
}

unsigned MachineModel::depthOf(Processor Proc) const {
  for (unsigned I = 0, E = Levels.size(); I != E; ++I)
    if (Levels[I].Kind == Proc)
      return I;
  cypressUnreachable("processor level not present in machine");
}

bool MachineModel::isInner(Processor Inner, Processor Outer) const {
  return depthOf(Inner) > depthOf(Outer);
}

Processor MachineModel::childLevel(Processor Proc) const {
  unsigned Depth = depthOf(Proc);
  assert(Depth + 1 < Levels.size() && "innermost level has no child");
  return Levels[Depth + 1].Kind;
}

bool MachineModel::canAccess(Processor Proc, Memory Mem) const {
  if (Mem == Memory::None)
    return false;
  const MemoryLevel &M = memory(Mem);
  // A memory scoped at level S is addressable from S and every level nested
  // inside S. Register placements are legal for any thread grouping at or
  // below the warpgroup: a warpgroup-level tensor in REGISTER memory means
  // the data is distributed across the register files of the group's
  // threads (the WGMMA accumulator layout of Figure 4).
  if (Mem == Memory::Register)
    return Proc == Processor::Thread || Proc == Processor::Warp ||
           Proc == Processor::Warpgroup;
  return depthOf(Proc) >= depthOf(M.Scope) ||
         // The host can address global memory even though global's scope is
         // listed as Host already; keep the general rule simple.
         (Mem == Memory::Global && Proc == Processor::Host);
}

const MemoryLevel &MachineModel::memory(Memory Mem) const {
  for (const MemoryLevel &M : Memories)
    if (M.Kind == Mem)
      return M;
  cypressUnreachable("memory kind not present in machine");
}

int64_t MachineModel::fanOut(Processor Proc) const {
  return std::max<int64_t>(level(Proc).FanOut, 1);
}

const MachineModel &MachineModel::h100() {
  static const MachineModel Model(
      "h100",
      {
          {Processor::Host, /*FanOut=*/0, /*ThreadsPerInstance=*/0},
          // Grid size is dynamic; the per-block resources below are what the
          // compiler reasons about.
          {Processor::Block, /*FanOut=*/0, /*ThreadsPerInstance=*/0},
          {Processor::Warpgroup, /*FanOut=*/0,
           /*ThreadsPerInstance=*/H100Constants::ThreadsPerWarp *
               H100Constants::WarpsPerWarpgroup},
          {Processor::Warp, /*FanOut=*/H100Constants::WarpsPerWarpgroup,
           /*ThreadsPerInstance=*/H100Constants::ThreadsPerWarp},
          {Processor::Thread, /*FanOut=*/H100Constants::ThreadsPerWarp,
           /*ThreadsPerInstance=*/1},
      },
      {
          {Memory::Global, Processor::Host, /*CapacityBytes=*/0},
          {Memory::Shared, Processor::Block,
           H100Constants::SharedMemoryBytes},
          {Memory::Register, Processor::Thread,
           H100Constants::RegistersPerThread * 4},
      });
  return Model;
}
