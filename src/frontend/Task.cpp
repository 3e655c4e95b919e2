//===- Task.cpp - Logical description: tasks, variants, privileges ---------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "frontend/Task.h"

#include <atomic>

using namespace cypress;

const char *cypress::privilegeName(Privilege P) {
  switch (P) {
  case Privilege::Read:
    return "read";
  case Privilege::Write:
    return "write";
  case Privilege::ReadWrite:
    return "read-write";
  }
  cypressUnreachable("unknown privilege");
}

InnerContext::~InnerContext() = default;

uint64_t TaskRegistry::nextUid() {
  static std::atomic<uint64_t> Counter{1};
  return Counter.fetch_add(1, std::memory_order_relaxed);
}

void TaskRegistry::refreshDigest() {
  ContentHasher H;
  H.word(Uid).word(Variants.size());
  for (const auto &[Name, V] : Variants) {
    H.str(Name).str(V.Task).word(static_cast<uint64_t>(V.Kind));
    H.word(V.Params.size());
    for (const TaskParam &Param : V.Params)
      H.str(Param.Name)
          .word(Param.Rank)
          .word(static_cast<uint64_t>(Param.Element))
          .word(static_cast<uint64_t>(Param.Priv));
    if (V.Kind == VariantKind::Leaf)
      H.str(V.Leaf.Function).word(static_cast<uint64_t>(V.Leaf.Unit));
  }
  Digest = H.finish();
}

void TaskRegistry::reset() {
  Variants.clear();
  Uid = nextUid();
  refreshDigest();
}

void TaskRegistry::addInner(std::string Task, std::string Variant,
                            std::vector<TaskParam> Params, InnerBody Body) {
  assert(!hasVariant(Variant) && "variant name already registered");
  TaskVariant V;
  V.Task = std::move(Task);
  V.Variant = Variant;
  V.Kind = VariantKind::Inner;
  V.Params = std::move(Params);
  V.Body = std::move(Body);
  Variants.emplace(std::move(Variant), std::move(V));
  refreshDigest();
}

void TaskRegistry::addLeaf(std::string Task, std::string Variant,
                           std::vector<TaskParam> Params, LeafInfo Leaf) {
  assert(!hasVariant(Variant) && "variant name already registered");
  TaskVariant V;
  V.Task = std::move(Task);
  V.Variant = Variant;
  V.Kind = VariantKind::Leaf;
  V.Params = std::move(Params);
  V.Leaf = std::move(Leaf);
  Variants.emplace(std::move(Variant), std::move(V));
  refreshDigest();
}

const TaskVariant &TaskRegistry::variant(const std::string &Variant) const {
  auto It = Variants.find(Variant);
  assert(It != Variants.end() && "unknown task variant");
  return It->second;
}

std::vector<std::string>
TaskRegistry::variantsOf(const std::string &Task) const {
  std::vector<std::string> Result;
  for (const auto &[Name, V] : Variants)
    if (V.Task == Task)
      Result.push_back(Name);
  return Result;
}
