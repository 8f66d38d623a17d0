// Tests for the robustness scenario grid (eval/scenario.h): option
// validation, cell ordering/coverage, the JSON artefact, and the
// thread-count determinism contract the CI quality gate depends on.

#include "eval/scenario.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scoped_num_threads.h"

namespace rhchme {
namespace eval {
namespace {

/// Smallest grid that still exercises both generators' corruption and
/// dropout paths; sized to keep the whole file under a few seconds.
ScenarioGridOptions TinyGrid() {
  ScenarioGridOptions opts;
  opts.corruption_fractions = {0.2};
  // Spike-only keeps the cell-count arithmetic below mode-free; the
  // kNonFinite axis has its own dedicated test.
  opts.corruption_modes = {data::RowCorruptionMode::kSpike};
  opts.sparsity_levels = {0.3};
  opts.imbalances = {ImbalanceKind::kSkewed};
  opts.seeds = {1};
  opts.docs_per_class = 8;
  opts.n_terms = 40;
  opts.n_concepts = 24;
  opts.objects_per_type = 12;
  opts.max_iterations = 8;
  return opts;
}

TEST(ScenarioGridOptions, ValidatesAxesAndMethods) {
  EXPECT_TRUE(ScenarioGridOptions{}.Validate().ok());
  EXPECT_TRUE(TinyGrid().Validate().ok());

  ScenarioGridOptions bad = TinyGrid();
  bad.corruption_fractions = {1.5};
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.sparsity_levels = {1.0};  // Dropout must stay below 1.
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.seeds.clear();
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.methods = {"RHCHME", "KMEANS"};
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.rhchme_variants = {{"annoy"}};
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.docs_per_class = 4;  // Too small for the 4:2:1 skew.
  EXPECT_FALSE(bad.Validate().ok());

  bad = TinyGrid();
  bad.corruption_modes.clear();
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(RunScenarioGrid, NonFiniteModeRunsGuardedVariantsOnly) {
  ScenarioGridOptions opts = TinyGrid();
  opts.corruption_fractions = {0.0, 0.2};
  opts.corruption_modes = {data::RowCorruptionMode::kSpike,
                           data::RowCorruptionMode::kNonFinite};
  opts.methods = {"RHCHME", "SNMTF"};
  opts.rhchme_variants = {{"exact"}};

  Result<ScenarioReport> report = RunScenarioGrid(opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  // Spike: 2 corruption x 2 slots. NonFinite: only corruption 0.2 (the
  // corruption-0 cell would duplicate the spike one) and only the
  // guarded RHCHME variant (baselines have no numerical guards).
  const std::vector<ScenarioCell>& cells = report.value().cells;
  ASSERT_EQ(cells.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[i].corruption_mode, data::RowCorruptionMode::kSpike);
    EXPECT_EQ(cells[i].recovery_events, 0.0) << "spike cell " << i;
  }
  const ScenarioCell& poisoned = cells[4];
  EXPECT_EQ(poisoned.corruption_mode, data::RowCorruptionMode::kNonFinite);
  EXPECT_EQ(poisoned.corruption, 0.2);
  EXPECT_EQ(poisoned.method, "RHCHME");
  // The guards must have absorbed real damage: finite metrics, counted
  // recoveries.
  EXPECT_GT(poisoned.recovery_events, 0.0);
  EXPECT_GE(poisoned.nmi, 0.0);
  EXPECT_LE(poisoned.nmi, 1.0);
}

TEST(RunScenarioGrid, CoversEveryCellMethodAndVariant) {
  ScenarioGridOptions opts = TinyGrid();
  opts.corruption_fractions = {0.0, 0.2};
  opts.seeds = {1, 2};
  opts.methods = {"RHCHME", "SNMTF"};
  opts.rhchme_variants = {{"exact"}, {"descent"}};

  Result<ScenarioReport> report = RunScenarioGrid(opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  // 1 imbalance x 2 corruption x 1 sparsity, 3 slots each.
  const std::vector<ScenarioCell>& cells = report.value().cells;
  ASSERT_EQ(cells.size(), 6u);
  for (const ScenarioCell& c : cells) {
    EXPECT_EQ(c.replicates, 2);
    EXPECT_GE(c.nmi, 0.0);
    EXPECT_LE(c.nmi, 1.0);
    EXPECT_GE(c.purity, 0.0);
    EXPECT_LE(c.purity, 1.0);
  }
  // Cells are ordered (imbalance, corruption, sparsity, method) with
  // RHCHME variants expanded in listed order.
  EXPECT_EQ(cells[0].corruption, 0.0);
  EXPECT_EQ(cells[0].variant, "exact");
  EXPECT_EQ(cells[1].variant, "descent");
  EXPECT_EQ(cells[2].method, "SNMTF");
  EXPECT_EQ(cells[2].variant, "");
  EXPECT_EQ(cells[3].corruption, 0.2);
}

TEST(DefaultRhchmeVariants, OneSlotPerGraphBackend) {
  const std::vector<RhchmeVariant> variants = DefaultRhchmeVariants();
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0].Name(), "exact");
  EXPECT_EQ(variants[1].Name(), "descent");
}

TEST(RunScenarioGrid, BlockWorldWorkloadRuns) {
  ScenarioGridOptions opts = TinyGrid();
  opts.workload = ScenarioWorkload::kBlockWorld;
  opts.methods = {"RHCHME", "DR-T"};
  opts.rhchme_variants = {{"descent"}};

  Result<ScenarioReport> report = RunScenarioGrid(opts);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().cells.size(), 2u);
  EXPECT_EQ(report.value().cells[0].variant, "descent");
  EXPECT_EQ(report.value().cells[1].method, "DR-T");
}

// The CI gate compares metric doubles exactly against a committed
// baseline, so a grid run must be bit-identical for any pool size.
TEST(RunScenarioGrid, BitIdenticalAcrossThreadCounts) {
  ScenarioGridOptions opts = TinyGrid();
  opts.methods = {"RHCHME", "DR-T", "SRC", "SNMTF", "RMC"};
  opts.rhchme_variants = {{"exact"}, {"descent"}};

  Result<ScenarioReport> one(Status::Internal("unset"));
  Result<ScenarioReport> four(Status::Internal("unset"));
  {
    ScopedNumThreads guard(1);
    one = RunScenarioGrid(opts);
  }
  {
    ScopedNumThreads guard(4);
    four = RunScenarioGrid(opts);
  }
  ASSERT_TRUE(one.ok()) << one.status().message();
  ASSERT_TRUE(four.ok()) << four.status().message();
  ASSERT_EQ(one.value().cells.size(), four.value().cells.size());
  for (std::size_t i = 0; i < one.value().cells.size(); ++i) {
    const ScenarioCell& a = one.value().cells[i];
    const ScenarioCell& b = four.value().cells[i];
    SCOPED_TRACE(a.method + "/" + a.variant);
    EXPECT_EQ(a.nmi, b.nmi);
    EXPECT_EQ(a.ari, b.ari);
    EXPECT_EQ(a.purity, b.purity);
    EXPECT_EQ(a.fscore, b.fscore);
  }
}

TEST(WriteScenarioReportJson, EmitsContextAndCells) {
  ScenarioGridOptions opts = TinyGrid();
  opts.methods = {"SNMTF"};
  Result<ScenarioReport> report = RunScenarioGrid(opts);
  ASSERT_TRUE(report.ok()) << report.status().message();

  const std::string path =
      ::testing::TempDir() + "/scenario_report_test.json";
  ASSERT_TRUE(WriteScenarioReportJson(report.value(), path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"rhchme_build_type\""), std::string::npos);
  EXPECT_NE(json.find("\"rhchme_simd\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"corpus\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"SNMTF\""), std::string::npos);
  EXPECT_NE(json.find("\"replicates\": 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteScenarioReportJson, RejectsUnwritablePath) {
  ScenarioReport empty;
  EXPECT_FALSE(
      WriteScenarioReportJson(empty, "/nonexistent-dir/out.json").ok());
}

}  // namespace
}  // namespace eval
}  // namespace rhchme
