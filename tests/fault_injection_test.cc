// Deterministic fault-injection sweep (util/fault.h).
//
// The contract under test: every registered injection site, when fired,
// yields either a *recovered* fit (OK result, finite nonnegative G,
// diagnostics counting at least one recovery event) or a clean non-OK
// Status — never a crash, a hang, or a silently poisoned result.

#include "util/fault.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "factorization/hocc_common.h"
#include "io/dataset_io.h"

namespace rhchme {
namespace {

namespace fs = std::filesystem;

data::MultiTypeRelationalData SmallData(uint64_t seed = 21) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

core::RhchmeOptions FastOptions() {
  core::RhchmeOptions opts;
  opts.max_iterations = 12;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.ensemble.subspace.spg.max_iterations = 20;
  return opts;
}

/// A fit outcome that honours the recovery contract: OK with a sane,
/// fully finite result, or a clean non-OK Status carrying a message.
void ExpectRecoveredOrCleanFailure(const Result<core::RhchmeResult>& fit,
                                   const char* site, bool fired) {
  if (!fit.ok()) {
    EXPECT_FALSE(fit.status().message().empty()) << site;
    return;
  }
  const core::RhchmeResult& r = fit.value();
  EXPECT_TRUE(r.hocc.g.AllFinite()) << site;
  EXPECT_TRUE(r.hocc.g.IsNonNegative()) << site;
  EXPECT_GT(r.hocc.iterations, 0) << site;
  if (fired) {
    EXPECT_GT(r.diagnostics.RecoveryEvents(), 0u)
        << site << ": fault fired but no recovery event was counted";
  }
}

/// Solver-seam sites are probed inside FitWithEnsemble; a shared
/// ensemble keeps the sweep fast and keeps ensemble construction out of
/// the armed window.
class SolverFaultSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = SmallData();
    blocks_ = fact::BuildBlockStructure(data_);
    core::RhchmeOptions opts = FastOptions();
    Result<core::HeterogeneousEnsemble> e =
        core::BuildEnsemble(data_, blocks_, opts.ensemble);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ensemble_ = std::move(e).value();
  }

  data::MultiTypeRelationalData data_;
  fact::BlockStructure blocks_;
  core::HeterogeneousEnsemble ensemble_;
};

TEST_F(SolverFaultSweep, EverySiteRecoversOrFailsCleanly) {
  // Fire each site on its first hit and again deeper into the fit, so
  // both the "no accepted iterate yet" and the "mid-trajectory" recovery
  // paths are exercised for every seam.
  for (const char* site : util::AllFaultSites()) {
    for (int fire_on_hit : {1, 3}) {
      util::ScopedFaultDisarm scoped;
      util::FaultArmCountdown(site, fire_on_hit);
      core::Rhchme solver(FastOptions());
      Result<core::RhchmeResult> fit =
          solver.FitWithEnsemble(data_, ensemble_);
      const bool fired = util::FaultHitCount(site) >= fire_on_hit;
      ExpectRecoveredOrCleanFailure(fit, site, fired);
    }
  }
}

TEST_F(SolverFaultSweep, PoisonSitesRecoverWithGuardsCounted) {
  // The NaN-payload seams must come back as *recovered* OK fits: the
  // guards absorb the poison, they do not give up.
  const std::vector<const char*> kPoisonSites = {
      util::fault_site::kGUpdatePoison, util::fault_site::kResidualPoison,
      util::fault_site::kObjectivePoison, util::fault_site::kInitPoison};
  for (const char* site : kPoisonSites) {
    util::ScopedFaultDisarm scoped;
    util::FaultArmCountdown(site, 1);
    core::Rhchme solver(FastOptions());
    Result<core::RhchmeResult> fit = solver.FitWithEnsemble(data_, ensemble_);
    ASSERT_TRUE(fit.ok()) << site << ": " << fit.status().ToString();
    ASSERT_GE(util::FaultHitCount(site), 1) << site << " was never probed";
    EXPECT_GT(fit.value().diagnostics.RecoveryEvents(), 0u) << site;
    EXPECT_TRUE(fit.value().hocc.g.AllFinite()) << site;
  }
}

TEST_F(SolverFaultSweep, CentralSolveFailureIsAbsorbedByRidgeLadder) {
  // Failing the first attempt of the c x c solve must be healed one
  // level down: the ridge ladder retries with boosted regularisation and
  // the fit proceeds, counting the retry — no degraded stop, no error.
  for (int fire_on_hit : {1, 2}) {
    util::ScopedFaultDisarm scoped;
    util::FaultArmCountdown(util::fault_site::kCentralSolveFail, fire_on_hit);
    core::Rhchme solver(FastOptions());
    Result<core::RhchmeResult> fit = solver.FitWithEnsemble(data_, ensemble_);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ASSERT_GE(util::FaultHitCount(util::fault_site::kCentralSolveFail),
              fire_on_hit);
    EXPECT_GE(fit.value().diagnostics.solve_ridge_retries, 1);
    EXPECT_EQ(fit.value().diagnostics.degraded_stops, 0);
    EXPECT_TRUE(fit.value().hocc.g.AllFinite());
  }
}

TEST_F(SolverFaultSweep, AllocationFailureIsCleanStatus) {
  for (const char* site : {util::fault_site::kAllocJointR,
                           util::fault_site::kAllocWorkspace}) {
    util::ScopedFaultDisarm scoped;
    util::FaultArmCountdown(site, 1);
    core::Rhchme solver(FastOptions());
    Result<core::RhchmeResult> fit = solver.FitWithEnsemble(data_, ensemble_);
    ASSERT_FALSE(fit.ok()) << site;
    EXPECT_EQ(fit.status().code(), StatusCode::kInternal) << site;
  }
}

TEST_F(SolverFaultSweep, SeededSoakNeverCrashes) {
  // Probabilistic schedule over every site at once; any failure replays
  // from the logged seed via FaultArmSeeded.
  for (uint64_t seed : {7u, 99u}) {
    util::ScopedFaultDisarm scoped;
    util::FaultArmSeeded(seed, 0.05);
    core::Rhchme solver(FastOptions());
    Result<core::RhchmeResult> fit = solver.FitWithEnsemble(data_, ensemble_);
    SCOPED_TRACE("soak seed " + std::to_string(seed));
    ExpectRecoveredOrCleanFailure(fit, "seeded-soak", /*fired=*/false);
  }
}

TEST_F(SolverFaultSweep, DisarmedRegistryIsInert) {
  util::FaultDisarm();
  core::Rhchme solver(FastOptions());
  Result<core::RhchmeResult> fit = solver.FitWithEnsemble(data_, ensemble_);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit.value().diagnostics.RecoveryEvents(), 0u);
}

TEST(IoFaults, MatrixWriteFailureIsCleanStatus) {
  util::ScopedFaultDisarm scoped;
  const fs::path dir = fs::temp_directory_path() / "rhchme_fault_io_w";
  fs::remove_all(dir);
  data::MultiTypeRelationalData d = SmallData();
  util::FaultArmCountdown(util::fault_site::kMatrixWriteFail, 1);
  Status s = io::SaveDataset(d, dir.string());
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  fs::remove_all(dir);
}

TEST(IoFaults, MatrixReadFailureIsCleanStatus) {
  util::ScopedFaultDisarm scoped;
  const fs::path dir = fs::temp_directory_path() / "rhchme_fault_io_r";
  fs::remove_all(dir);
  data::MultiTypeRelationalData d = SmallData();
  ASSERT_TRUE(io::SaveDataset(d, dir.string()).ok());
  util::FaultArmCountdown(util::fault_site::kMatrixReadFail, 1);
  Result<data::MultiTypeRelationalData> loaded =
      io::LoadDataset(dir.string());
  EXPECT_FALSE(loaded.ok());
  util::FaultDisarm();
  Result<data::MultiTypeRelationalData> clean = io::LoadDataset(dir.string());
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  fs::remove_all(dir);
}

TEST(IoFaults, SnapshotWriteFaultsLeaveFitHealthy) {
  // A checkpoint write that truncates or cannot rename must be counted
  // and survived — and must never leave a half-written snapshot at the
  // final path (write-temp-then-rename).
  for (const char* site : {util::fault_site::kSnapshotWriteTruncate,
                           util::fault_site::kSnapshotRenameFail}) {
    util::ScopedFaultDisarm scoped;
    const fs::path snap =
        fs::temp_directory_path() / "rhchme_fault_snapshot.bin";
    fs::remove(snap);
    core::RhchmeOptions opts = FastOptions();
    opts.checkpoint_path = snap.string();
    opts.checkpoint_every = 1;
    util::FaultArmCountdown(site, 1);
    core::Rhchme solver(opts);
    Result<core::RhchmeResult> fit = solver.Fit(SmallData());
    ASSERT_TRUE(fit.ok()) << site << ": " << fit.status().ToString();
    EXPECT_GE(fit.value().diagnostics.snapshot_failures, 1) << site;
    EXPECT_GE(fit.value().diagnostics.snapshots_written, 1) << site;
    // Whatever is at the path is a complete snapshot from a later
    // iteration, never the truncated temp.
    Result<core::SolverSnapshot> loaded =
        core::LoadSolverSnapshot(snap.string());
    EXPECT_TRUE(loaded.ok()) << site << ": " << loaded.status().ToString();
    fs::remove(snap);
  }
}

}  // namespace
}  // namespace rhchme
