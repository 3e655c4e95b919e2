//===- CompilerParityTest.cpp - Mid-end byte-for-byte parity tests ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the printed IR after *every* compiler pass against goldens recorded
/// from the pre-rewrite mid-end (the rescan-based copy elimination and
/// shared_ptr ScalarExpr trees, commit ec840e7), so the worklist-driven
/// flat-graph rewrite — and any future compiler hot-path work — must stay
/// output-identical while getting faster. Same spirit as
/// SimulatorParityTest, but for the compiler: the golden is the full
/// CYPRESS_PRINT_IR_AFTER_ALL dump of a pipeline run, compared byte for
/// byte.
///
/// The six kernels above run their default mappings only; a seventh golden
/// pins 24 seeded guided-space points (SIMT-pinned copies, per-tensor
/// pipeline depths, shared-memory caps) as one per-pass digest line each.
///
/// Regenerate with CYPRESS_UPDATE_GOLDENS=1 (writes into the source tree's
/// tests/goldens/) after an *intentional* output change; never to paper
/// over an unintentional one.
///
//===----------------------------------------------------------------------===//

#include "TestKernels.h"
#include "compiler/PassManager.h"
#include "kernels/Kernels.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cypress;
using namespace cypress::testkernels;

#ifndef CYPRESS_GOLDEN_DIR
#error "CYPRESS_GOLDEN_DIR must point at tests/goldens"
#endif

namespace {

/// Compiles \p Input through the default pipeline with per-pass IR dumping
/// into a string: the exact byte stream CYPRESS_PRINT_IR_AFTER_ALL would
/// print, one "// --- IR after <pass> ---" section per stage.
std::string dumpPipeline(const CompileInput &Input) {
  std::ostringstream OS;
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  Pipeline.setPrintIRAfterAll(true);
  Pipeline.setPrintStream(OS);
  ErrorOr<IRModule> Module = Pipeline.run(Input);
  EXPECT_TRUE(Module) << (Module ? "" : Module.diagnostic().str());
  return OS.str();
}

std::string goldenPath(const std::string &Name) {
  return std::string(CYPRESS_GOLDEN_DIR) + "/" + Name + ".ir";
}

bool updateGoldens() {
  const char *Update = std::getenv("CYPRESS_UPDATE_GOLDENS");
  return Update && *Update && std::string(Update) != "0";
}

void checkGolden(const std::string &Name, const CompileInput &Input) {
  std::string Dump = dumpPipeline(Input);
  ASSERT_FALSE(Dump.empty());

  if (updateGoldens()) {
    std::ofstream Out(goldenPath(Name), std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath(Name);
    Out << Dump;
    return;
  }

  std::ifstream In(goldenPath(Name), std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden " << goldenPath(Name)
                         << " (record with CYPRESS_UPDATE_GOLDENS=1)";
  std::ostringstream Golden;
  Golden << In.rdbuf();
  std::string Expected = Golden.str();

  if (Dump == Expected)
    return;
  // Byte mismatch: report the first differing pass section compactly
  // instead of two multi-thousand-line strings.
  size_t Pos = 0;
  while (Pos < Dump.size() && Pos < Expected.size() &&
         Dump[Pos] == Expected[Pos])
    ++Pos;
  size_t LineStart = Expected.rfind('\n', Pos);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  size_t Section = Expected.rfind("// --- IR after", Pos);
  std::string SectionName =
      Section == std::string::npos
          ? "<preamble>"
          : Expected.substr(Section, Expected.find('\n', Section) - Section);
  FAIL() << Name << ": printed IR diverges from golden at byte " << Pos
         << " (in section '" << SectionName << "')\n  golden: "
         << Expected.substr(LineStart, 120) << "\n  actual: "
         << Dump.substr(LineStart, 120);
}

} // namespace

//===----------------------------------------------------------------------===//
// The six pinned kernels
//===----------------------------------------------------------------------===//

TEST(CompilerParity, Gemm4096) {
  GemmConfig Config;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  std::vector<TensorType> Args = gemmArgTypes(Config);
  checkGolden("gemm_4096",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

TEST(CompilerParity, GemmSmall) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  std::vector<TensorType> Args = gemmArgTypes(Config);
  checkGolden("gemm_small",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

TEST(CompilerParity, AttentionFa2_4096) {
  AttentionConfig Config = fa2Config(4096);
  TaskRegistry Registry;
  registerAttentionTasks(Registry);
  MappingSpec Mapping = attentionMapping(Config);
  std::vector<TensorType> Args = attentionArgTypes(Config);
  checkGolden("attention_fa2_4096",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

TEST(CompilerParity, AttentionFa3_4096) {
  AttentionConfig Config = fa3Config(4096);
  TaskRegistry Registry;
  registerAttentionTasks(Registry);
  MappingSpec Mapping = attentionMapping(Config);
  std::vector<TensorType> Args = attentionArgTypes(Config);
  checkGolden("attention_fa3_4096",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

TEST(CompilerParity, DualGemm4096) {
  GemmConfig Config;
  TaskRegistry Registry;
  registerDualGemmTasks(Registry);
  MappingSpec Mapping = dualGemmMapping(Config);
  std::vector<TensorType> Args = dualGemmArgTypes(Config);
  checkGolden("dual_gemm_4096",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

TEST(CompilerParity, GemmReduction4096) {
  GemmConfig Config;
  TaskRegistry Registry;
  registerGemmRedTasks(Registry);
  MappingSpec Mapping = gemmRedMapping(Config);
  std::vector<TensorType> Args = gemmRedArgTypes(Config);
  checkGolden("gemm_red_4096",
              {&Registry, &Mapping, &MachineModel::h100(), Args});
}

//===----------------------------------------------------------------------===//
// Seeded guided-space points
//===----------------------------------------------------------------------===//

namespace {

/// One pipeline stage of one point: its golden line and the IR it digests.
struct PassRecord {
  std::string Name;
  std::string Line;
  std::string IR;
};

struct PointRecord {
  std::string Label;
  std::vector<PassRecord> Passes;
};

/// Runs \p Point through the default pipeline and digests the printed IR
/// after every pass (the CYPRESS_PRINT_IR_AFTER_ALL sections), next to the
/// pass's IR-size and rewrite statistics.
PointRecord recordPoint(const GuidedCompilePoint &Point) {
  std::ostringstream OS;
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  Pipeline.setPrintIRAfterAll(true);
  Pipeline.setPrintStream(OS);
  PipelineStats Stats;
  ErrorOr<IRModule> Module = Pipeline.run(Point.input(), nullptr, &Stats);
  EXPECT_TRUE(Module) << Point.Label << ": "
                      << (Module ? "" : Module.diagnostic().str());
  std::string Dump = OS.str();
  PointRecord Record{Point.Label, {}};
  size_t Pos = 0;
  for (const PassStat &S : Stats.Passes) {
    std::string Header = "// --- IR after " + S.Name + " ---\n";
    size_t Start = Dump.find(Header, Pos);
    if (Start == std::string::npos)
      break; // The pass failed: no dump.
    Start += Header.size();
    size_t End = Dump.find("// --- IR after ", Start);
    End = End == std::string::npos ? Dump.size() : End;
    std::string IR = Dump.substr(Start, End - Start - 1); // Drop the '\n'
                                                            // after the module.
    Digest128 D = ContentHasher().str(IR).finish();
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "  %s ir=%016llx%016llx ops=%zu events=%zu tensors=%zu "
                  "rewrites=%llu",
                  S.Name.c_str(), static_cast<unsigned long long>(D[0]),
                  static_cast<unsigned long long>(D[1]), S.OpsAfter,
                  S.EventsAfter, S.TensorsAfter,
                  static_cast<unsigned long long>(S.Rewrites));
    Record.Passes.push_back({S.Name, Line, std::move(IR)});
    Pos = End;
  }
  return Record;
}

} // namespace

TEST(CompilerParity, SeededGuidedPointsGolden) {
  std::vector<PointRecord> Records;
  std::string Actual;
  for (const GuidedCompilePoint &Point : seededGuidedCompilePoints()) {
    Records.push_back(recordPoint(Point));
    Actual += Records.back().Label + "\n";
    for (const PassRecord &P : Records.back().Passes)
      Actual += P.Line + "\n";
  }
  ASSERT_EQ(Records.size(), 24u);

  std::string Path =
      std::string(CYPRESS_GOLDEN_DIR) + "/compiler_seeded_points.txt";
  if (updateGoldens()) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (record with CYPRESS_UPDATE_GOLDENS=1)";
  std::vector<std::string> Golden;
  for (std::string Line; std::getline(In, Line);)
    Golden.push_back(Line);

  // Walk the records against the golden lines; report the first point and
  // pass that diverge with the IR that pass printed.
  size_t At = 0;
  for (const PointRecord &R : Records) {
    ASSERT_LT(At, Golden.size()) << "golden ends before point " << R.Label;
    ASSERT_EQ(Golden[At], R.Label) << "the seeded draw changed";
    ++At;
    for (const PassRecord &P : R.Passes) {
      ASSERT_LT(At, Golden.size()) << "golden ends inside point " << R.Label;
      if (Golden[At] != P.Line)
        FAIL() << R.Label << ": first divergence after pass '" << P.Name
               << "'\n  golden:" << Golden[At] << "\n  actual:" << P.Line
               << "\n// --- IR after " << P.Name << " ---\n"
               << P.IR;
      ++At;
    }
  }
  EXPECT_EQ(At, Golden.size()) << "golden has lines past the last point";
}

/// The rewrite work behind the seeded points: every pass's Rewrites counter
/// and the ops/events/tensors it leaves, one line per pass. The IR digests
/// above already pin what each pass produces; this golden pins how much
/// rewriting copy elimination does to get there, so an engine that reaches
/// the same IR through a different rewrite sequence fails here too.
TEST(CompilerParity, SeededGuidedPointsRewritesGolden) {
  std::string Actual;
  size_t Points = 0;
  for (const GuidedCompilePoint &Point : seededGuidedCompilePoints()) {
    PipelineStats Stats;
    ErrorOr<IRModule> Module =
        PassPipeline::defaultPipeline().run(Point.input(), nullptr, &Stats);
    ASSERT_TRUE(Module) << Point.Label << ": " << Module.diagnostic().str();
    Actual += Point.Label + "\n";
    for (const PassStat &S : Stats.Passes) {
      char Line[160];
      std::snprintf(Line, sizeof(Line),
                    "  %s rewrites=%llu ops=%zu events=%zu tensors=%zu\n",
                    S.Name.c_str(),
                    static_cast<unsigned long long>(S.Rewrites), S.OpsAfter,
                    S.EventsAfter, S.TensorsAfter);
      Actual += Line;
    }
    ++Points;
  }
  ASSERT_EQ(Points, 24u);

  std::string Path =
      std::string(CYPRESS_GOLDEN_DIR) + "/compiler_seeded_rewrites.txt";
  if (updateGoldens()) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (record with CYPRESS_UPDATE_GOLDENS=1)";
  std::ostringstream Golden;
  Golden << In.rdbuf();
  EXPECT_EQ(Golden.str(), Actual);
}
