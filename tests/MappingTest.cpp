//===- MappingTest.cpp - Mapping specification validation ---------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the mapping half of the programming model (Section 3.3):
/// dispatch resolution through Calls lists, and the static validation the
/// compiler performs before lowering.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "mapping/Mapping.h"

#include <gtest/gtest.h>

using namespace cypress;

namespace {

/// A tiny two-level registry: a host task dispatching to a block leaf.
TaskRegistry tinyRegistry() {
  TaskRegistry Registry;
  Registry.addInner(
      "work", "work_host", {{"T", 2, ElementType::F16, Privilege::Write}},
      [](InnerContext &Ctx, TensorHandles Args) {
        Ctx.prange({ScalarExpr(2)}, [&](ScalarExprs) {
          Ctx.launch("work", {Args[0]});
        });
      });
  Registry.addLeaf("work", "work_leaf",
                   {{"T", 2, ElementType::F16, Privilege::Write}},
                   {"clear", ExecUnit::SIMT, nullptr});
  return Registry;
}

MappingSpec tinyMapping() {
  TaskMapping Host;
  Host.Instance = "host";
  Host.Variant = "work_host";
  Host.Proc = Processor::Host;
  Host.Mems = {Memory::Global};
  Host.Entrypoint = true;
  Host.Calls = {"leaf"};
  TaskMapping Leaf;
  Leaf.Instance = "leaf";
  Leaf.Variant = "work_leaf";
  Leaf.Proc = Processor::Block;
  Leaf.Mems = {Memory::Shared};
  return MappingSpec({Host, Leaf});
}

} // namespace

TEST(Mapping, LookupAndEntrypoint) {
  MappingSpec Spec = tinyMapping();
  EXPECT_TRUE(Spec.hasInstance("host"));
  EXPECT_FALSE(Spec.hasInstance("nope"));
  EXPECT_EQ(Spec.entrypoint().Instance, "host");
}

TEST(Mapping, DispatchResolvesThroughCalls) {
  TaskRegistry Registry = tinyRegistry();
  MappingSpec Spec = tinyMapping();
  ErrorOr<std::string> Target =
      Spec.dispatch(Registry, Spec.instance("host"), "work");
  ASSERT_TRUE(Target);
  EXPECT_EQ(*Target, "leaf");

  ErrorOr<std::string> Missing =
      Spec.dispatch(Registry, Spec.instance("host"), "unknown_task");
  ASSERT_FALSE(Missing);
  EXPECT_NE(Missing.diagnostic().message().find("no dispatch target"),
            std::string::npos);
}

TEST(Mapping, ValidatesCleanSpec) {
  TaskRegistry Registry = tinyRegistry();
  EXPECT_TRUE(tinyMapping().validate(Registry, MachineModel::h100()));
}

TEST(Mapping, RejectsUnknownVariant) {
  TaskRegistry Registry = tinyRegistry();
  MappingSpec Spec = tinyMapping();
  std::vector<TaskMapping> Instances = Spec.instances();
  Instances[1].Variant = "does_not_exist";
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("unknown variant"),
            std::string::npos);
}

TEST(Mapping, RejectsArityMismatch) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].Mems = {Memory::Global, Memory::Global};
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("params"), std::string::npos);
}

TEST(Mapping, RejectsInaccessibleLeafMemory) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[1].Proc = Processor::Host; // Host cannot address shared memory.
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("not addressable"),
            std::string::npos);
}

TEST(Mapping, RejectsMissingEntrypoint) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].Entrypoint = false;
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("entrypoint"),
            std::string::npos);
}

TEST(Mapping, RejectsOutwardDispatch) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  // Child at Host while parent is Host is fine; child *outward* of parent
  // is not: make the leaf run at Host and the host task at Block.
  Instances[0].Proc = Processor::Block;
  Instances[1].Proc = Processor::Host;
  Instances[1].Mems = {Memory::Global};
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("outward"), std::string::npos);
}

TEST(Mapping, RejectsZeroPipelineDepth) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].PipelineDepth = 0;
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
}

TEST(Mapping, FingerprintIsContentKeyed) {
  // Equal specs built independently fingerprint identically; any knob the
  // lowering can see (tunables, pipeline depth, placements) changes it.
  GemmConfig Config;
  MappingSpec A = gemmMapping(Config);
  MappingSpec B = gemmMapping(Config);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_TRUE(A == B);

  GemmConfig Deeper = Config;
  Deeper.Pipe += 1;
  MappingSpec C = gemmMapping(Deeper);
  EXPECT_NE(A.fingerprint(), C.fingerprint());
  EXPECT_TRUE(A != C);

  std::vector<TaskMapping> Instances = A.instances();
  Instances[0].Tunables["U"] += 64;
  EXPECT_NE(A.fingerprint(), MappingSpec(Instances).fingerprint());
}

TEST(Mapping, ShippedKernelMappingsValidate) {
  // Every shipped kernel's tuned mapping must pass validation.
  {
    TaskRegistry Registry;
    registerGemmTasks(Registry);
    EXPECT_TRUE(
        gemmMapping(GemmConfig()).validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerDualGemmTasks(Registry);
    EXPECT_TRUE(dualGemmMapping(GemmConfig())
                    .validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerGemmRedTasks(Registry);
    EXPECT_TRUE(gemmRedMapping(GemmConfig())
                    .validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerAttentionTasks(Registry);
    EXPECT_TRUE(attentionMapping(fa2Config(4096))
                    .validate(Registry, MachineModel::h100()));
    EXPECT_TRUE(attentionMapping(fa3Config(4096))
                    .validate(Registry, MachineModel::h100()));
  }
}

TEST(Task, PrivilegeLattice) {
  EXPECT_TRUE(privilegeAllows(Privilege::ReadWrite, Privilege::Read));
  EXPECT_TRUE(privilegeAllows(Privilege::ReadWrite, Privilege::Write));
  EXPECT_TRUE(privilegeAllows(Privilege::Read, Privilege::Read));
  EXPECT_FALSE(privilegeAllows(Privilege::Read, Privilege::Write));
  EXPECT_FALSE(privilegeAllows(Privilege::Read, Privilege::ReadWrite));
  EXPECT_FALSE(privilegeAllows(Privilege::Write, Privilege::ReadWrite));
  EXPECT_TRUE(privilegeAllows(Privilege::Write, Privilege::Write));
}

TEST(Task, RegistryVariantsOf) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<std::string> Variants = Registry.variantsOf("work");
  EXPECT_EQ(Variants.size(), 2u);
  EXPECT_TRUE(Registry.hasVariant("work_host"));
  EXPECT_EQ(Registry.variant("work_leaf").Kind, VariantKind::Leaf);
}
