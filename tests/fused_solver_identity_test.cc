// Bit-identity of the fused RHCHME iteration against the unfused
// reference loop (reference_loop_solver.h): G, S, the E_R scales, labels,
// the objective trace and the diagnostics must match byte for byte on
// every runnable kernel table and pool size, including the tripwire,
// rollback, ridge-retry and resume paths the fault sites drive.
//
// The dispatched table is fixed per process, so the driver test re-runs
// this binary once per runnable table with RHCHME_FORCE_ISA set; the
// cases themselves run only in those child processes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "la/simd.h"
#include "reference_loop_solver.h"
#include "scoped_num_threads.h"
#include "util/fault.h"

namespace rhchme {
namespace core {
namespace {

constexpr char kChildEnv[] = "RHCHME_FUSED_IDENTITY_CHILD";

bool InChild() {
  const char* v = std::getenv(kChildEnv);
  return v != nullptr && v[0] != '\0';
}

TEST(FusedLoopIdentity, HoldsOnEveryRunnableKernelTable) {
  if (InChild()) GTEST_SKIP() << "child run";
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) GTEST_SKIP() << "cannot locate the test binary";
  self[len] = '\0';
  int runs = 0;
  for (const char* isa : {"scalar", "avx2", "avx512"}) {
    if (la::simd::TableForName(isa) == nullptr) continue;
    const std::string cmd = std::string("RHCHME_FORCE_ISA=") + isa + " " +
                            kChildEnv + "=1 '" + self +
                            "' --gtest_filter='FusedLoopIdentityCases.*'";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "kernel table " << isa;
    ++runs;
  }
  EXPECT_GE(runs, 1);
}

// ---- The cases (child processes only) -----------------------------------

struct World {
  data::MultiTypeRelationalData data;
  HeterogeneousEnsemble ensemble;
};

/// A block world with `per_type` objects per type over `classes` latent
/// classes; `clusters`, when given, overrides each type's cluster count.
World MakeWorld(const std::vector<std::size_t>& per_type, std::size_t classes,
                const std::vector<std::size_t>& clusters, uint64_t seed) {
  data::BlockWorldOptions o;
  o.objects_per_type = per_type;
  o.n_classes = classes;
  o.corrupted_fraction = 0.1;
  o.seed = seed;
  World w;
  w.data = data::GenerateBlockWorld(o).value();
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    w.data.MutableType(k).clusters = clusters[k];
  }
  EnsembleOptions e;
  e.subspace.spg.max_iterations = 8;
  w.ensemble = BuildEnsemble(w.data, fact::BuildBlockStructure(w.data), e)
                   .value();
  return w;
}

RhchmeOptions CaseOptions() {
  RhchmeOptions o;
  o.lambda = 1.0;
  o.beta = 50.0;
  o.max_iterations = 12;
  o.tolerance = 0.0;  // Every iteration runs.
  o.seed = 5;
  return o;
}

bool SameBytes(const la::Matrix& a, const la::Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row_ptr(i), b.row_ptr(i), a.cols() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

void ExpectIdentical(const RhchmeResult& fused, const RhchmeResult& ref,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(SameBytes(fused.hocc.g, ref.hocc.g)) << "G";
  EXPECT_TRUE(SameBytes(fused.hocc.s, ref.hocc.s)) << "S";
  EXPECT_TRUE(SameBytes(fused.error_scale, ref.error_scale)) << "E_R scales";
  EXPECT_TRUE(SameBytes(fused.hocc.objective_trace, ref.hocc.objective_trace))
      << "objective trace";
  ASSERT_EQ(fused.hocc.labels.size(), ref.hocc.labels.size());
  for (std::size_t k = 0; k < ref.hocc.labels.size(); ++k) {
    EXPECT_TRUE(SameBytes(fused.hocc.labels[k], ref.hocc.labels[k]))
        << "labels of type " << k;
  }
  EXPECT_EQ(fused.hocc.iterations, ref.hocc.iterations);
  EXPECT_EQ(fused.hocc.converged, ref.hocc.converged);
  const FitDiagnostics& a = fused.diagnostics;
  const FitDiagnostics& b = ref.diagnostics;
  EXPECT_EQ(a.nonfinite_input_entries, b.nonfinite_input_entries);
  EXPECT_EQ(a.nonfinite_g_entries, b.nonfinite_g_entries);
  EXPECT_EQ(a.nan_guard_trips, b.nan_guard_trips);
  EXPECT_EQ(a.solve_ridge_retries, b.solve_ridge_retries);
  EXPECT_EQ(a.backtracks, b.backtracks);
  EXPECT_EQ(a.degraded_stops, b.degraded_stops);
  EXPECT_EQ(a.snapshots_written, b.snapshots_written);
  EXPECT_EQ(a.resumed_from_iteration, b.resumed_from_iteration);
}

/// Arms `site` (if any) to fire on its `hit`-th hit.
void Arm(const char* site, int hit) {
  util::FaultDisarm();
  if (site != nullptr) util::FaultArmCountdown(site, hit);
}

/// Fits `w` with the fused solver and the reference loop at pools 1 and 4
/// (re-arming the fault before each fit), compares the results and
/// returns the fused fit's diagnostics.
FitDiagnostics CheckCase(const World& w, const RhchmeOptions& opts,
                         const std::string& what, const char* site = nullptr,
                         int hit = 0) {
  util::ScopedFaultDisarm disarm;
  FitDiagnostics diag;
  for (int pool : {1, 4}) {
    ScopedNumThreads threads(pool);
    Arm(site, hit);
    Result<RhchmeResult> fused = Rhchme(opts).FitWithEnsemble(w.data, w.ensemble);
    Arm(site, hit);
    Result<RhchmeResult> ref =
        testing_reference::ReferenceLoopFit(opts, w.data, w.ensemble);
    util::FaultDisarm();
    const std::string label = what + ", pool " + std::to_string(pool) +
                              ", table " + la::simd::IsaName();
    EXPECT_TRUE(fused.ok()) << label << ": " << fused.status().ToString();
    EXPECT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();
    if (!fused.ok() || !ref.ok()) break;
    ExpectIdentical(fused.value(), ref.value(), label);
    diag = fused.value().diagnostics;
  }
  return diag;
}

class FusedLoopIdentityCases : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!InChild()) GTEST_SKIP() << "runs per kernel table via the driver";
  }
};

TEST_F(FusedLoopIdentityCases, ClusterCountsAcrossPanelAndBlockEdges) {
  // c = 9 and 24/30 (one panel), 40 (a second 32-row panel in the c x c
  // products) and 70 (a second 64-wide reduction block in the n x c · c x c
  // row products).
  CheckCase(MakeWorld({60, 50, 40}, 3, {}, 11), CaseOptions(), "c=9");
  CheckCase(MakeWorld({56, 48, 40}, 8, {}, 12), CaseOptions(), "c=24");
  CheckCase(MakeWorld({60, 50, 50}, 10, {}, 13), CaseOptions(), "c=30");
  CheckCase(MakeWorld({44, 40, 36, 30}, 10, {}, 14), CaseOptions(), "c=40");
  CheckCase(MakeWorld({90, 80}, 5, {40, 30}, 15), CaseOptions(), "c=70");
}

TEST_F(FusedLoopIdentityCases, UnequalClusterCountsStraddleTheZeroProbe) {
  // Type 0's rows fill 16 of 20 columns (dense panels), types 1–2 fill 2
  // (mostly-zero panels), and mixed panels sit near the 50% threshold.
  CheckCase(MakeWorld({70, 50, 45}, 3, {16, 2, 2}, 16), CaseOptions(),
            "clusters 16/2/2");
  CheckCase(MakeWorld({40, 40, 40}, 4, {5, 4, 3}, 17), CaseOptions(),
            "clusters 5/4/3");
}

TEST_F(FusedLoopIdentityCases, DisabledTerms) {
  const World w = MakeWorld({60, 50, 40}, 3, {}, 18);
  RhchmeOptions o = CaseOptions();
  o.lambda = 0.0;
  CheckCase(w, o, "lambda=0");
  o = CaseOptions();
  o.use_error_matrix = false;
  CheckCase(w, o, "robust term off");
  o = CaseOptions();
  o.normalize_rows = false;
  CheckCase(w, o, "normalize_rows off");
  o = CaseOptions();
  o.tolerance = 1e-3;  // Stops by tolerance before the cap.
  o.max_iterations = 60;
  CheckCase(w, o, "tolerance stop");
}

TEST_F(FusedLoopIdentityCases, FaultDrivenRecoveryPaths) {
  const World w = MakeWorld({60, 50, 40}, 3, {}, 19);
  const RhchmeOptions o = CaseOptions();
  // Each fault must really take its recovery path, or the comparison
  // proves nothing about it.
  EXPECT_EQ(CheckCase(w, o, "NaN tripwire", util::fault_site::kGUpdatePoison,
                      3)
                .nan_guard_trips,
            1);
  EXPECT_EQ(CheckCase(w, o, "first-update tripwire",
                      util::fault_site::kGUpdatePoison, 1)
                .nan_guard_trips,
            1);
  EXPECT_EQ(CheckCase(w, o, "objective backtrack",
                      util::fault_site::kObjectivePoison, 4)
                .backtracks,
            1);
  EXPECT_EQ(CheckCase(w, o, "residual backtrack",
                      util::fault_site::kResidualPoison, 5)
                .backtracks,
            1);
  EXPECT_GE(CheckCase(w, o, "central-solve ridge retry",
                      util::fault_site::kCentralSolveFail, 2)
                .solve_ridge_retries,
            1);
  EXPECT_GE(CheckCase(w, o, "central-solve poison",
                      util::fault_site::kCentralSolvePoison, 3)
                .solve_ridge_retries,
            1);
  RhchmeOptions plain = o;
  plain.normalize_rows = false;
  EXPECT_EQ(CheckCase(w, plain, "tripwire without Eq. 22",
                      util::fault_site::kGUpdatePoison, 2)
                .nan_guard_trips,
            1);
}

TEST_F(FusedLoopIdentityCases, ResumeFromCheckpoint) {
  const World w = MakeWorld({60, 50, 40}, 3, {}, 20);
  const std::string dir = ::testing::TempDir();
  for (int pool : {1, 4}) {
    ScopedNumThreads threads(pool);
    RhchmeOptions first = CaseOptions();
    first.max_iterations = 7;
    first.checkpoint_every = 3;
    RhchmeOptions fused_first = first;
    fused_first.checkpoint_path = dir + "/fused_identity_fused.snap";
    RhchmeOptions ref_first = first;
    ref_first.checkpoint_path = dir + "/fused_identity_ref.snap";
    std::remove(fused_first.checkpoint_path.c_str());
    std::remove(ref_first.checkpoint_path.c_str());
    ASSERT_TRUE(Rhchme(fused_first).FitWithEnsemble(w.data, w.ensemble).ok());
    ASSERT_TRUE(testing_reference::ReferenceLoopFit(ref_first, w.data,
                                                    w.ensemble)
                    .ok());
    // Resume past the interrupted fit's end, from iteration 6.
    RhchmeOptions fused_resume = fused_first;
    fused_resume.max_iterations = 14;
    fused_resume.checkpoint_every = 0;
    fused_resume.resume = true;
    RhchmeOptions ref_resume = ref_first;
    ref_resume.max_iterations = 14;
    ref_resume.checkpoint_every = 0;
    ref_resume.resume = true;
    Result<RhchmeResult> fused =
        Rhchme(fused_resume).FitWithEnsemble(w.data, w.ensemble);
    Result<RhchmeResult> ref =
        testing_reference::ReferenceLoopFit(ref_resume, w.data, w.ensemble);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(fused.value().diagnostics.resumed_from_iteration, 6);
    ExpectIdentical(fused.value(), ref.value(),
                    "resume, pool " + std::to_string(pool));
  }
}

}  // namespace
}  // namespace core
}  // namespace rhchme
