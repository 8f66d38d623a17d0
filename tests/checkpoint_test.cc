// Solver checkpoint/resume (core/checkpoint.h).
//
// Three properties pinned here:
//   1. snapshot round-trip is bit-exact;
//   2. a snapshot file truncated at *every* possible byte (or bit-flipped)
//      loads as a clean non-OK Status — never UB, never a garbage state;
//   3. a fit killed after iteration k and resumed reproduces the
//      uninterrupted trajectory bit-identically, at pool sizes 1 and 4.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "factorization/hocc_common.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectBitIdentical(const la::Matrix& a, const la::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(std::memcmp(a.row_ptr(i), b.row_ptr(i),
                          a.cols() * sizeof(double)),
              0)
        << what << " row " << i;
  }
}

SolverSnapshot MakeSnapshot() {
  SolverSnapshot snap;
  snap.options_fingerprint = 0x1234abcdu;
  snap.iteration = 3;
  snap.prev_objective = 41.5;
  snap.have_error = true;
  Rng rng(7);
  rng.Normal(0.0, 1.0);  // Populate the cached-normal state too.
  snap.rng_state = rng.SaveState();
  snap.diagnostics.nan_guard_trips = 2;
  snap.diagnostics.nonfinite_input_entries = 5;
  snap.g = la::Matrix(4, 2);
  snap.s = la::Matrix(2, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    snap.g(i, 0) = 0.25 * static_cast<double>(i) + 0.1;
    snap.g(i, 1) = 1.0 - snap.g(i, 0);
  }
  snap.s(0, 1) = 0.75;
  snap.s(1, 0) = 0.25;
  snap.er_scale = {1.0, 0.5, 0.25, 0.125};
  snap.objective_trace = {100.0, 60.0, 41.5};
  return snap;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const std::string path = TempPath("rhchme_ckpt_roundtrip.bin");
  const SolverSnapshot snap = MakeSnapshot();
  ASSERT_TRUE(SaveSolverSnapshot(path, snap).ok());
  Result<SolverSnapshot> loaded = LoadSolverSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SolverSnapshot& l = loaded.value();
  EXPECT_EQ(l.options_fingerprint, snap.options_fingerprint);
  EXPECT_EQ(l.iteration, snap.iteration);
  EXPECT_EQ(l.prev_objective, snap.prev_objective);
  EXPECT_EQ(l.have_error, snap.have_error);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(l.rng_state.s[i], snap.rng_state.s[i]);
  }
  EXPECT_EQ(l.rng_state.have_cached_normal, snap.rng_state.have_cached_normal);
  EXPECT_EQ(l.rng_state.cached_normal, snap.rng_state.cached_normal);
  EXPECT_EQ(l.diagnostics.nan_guard_trips, 2);
  EXPECT_EQ(l.diagnostics.nonfinite_input_entries, 5u);
  ExpectBitIdentical(l.g, snap.g, "g");
  ExpectBitIdentical(l.s, snap.s, "s");
  EXPECT_EQ(l.er_scale, snap.er_scale);
  EXPECT_EQ(l.objective_trace, snap.objective_trace);
  fs::remove(path);
}

TEST(Checkpoint, MissingFileIsNotFound) {
  Result<SolverSnapshot> r =
      LoadSolverSnapshot(TempPath("rhchme_ckpt_never_written.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, TruncationAtEveryByteFailsCleanly) {
  // Simulates a kill (or disk-full) mid-write at every possible offset.
  // Every prefix must load as a clean error; none may crash or succeed.
  const std::string path = TempPath("rhchme_ckpt_trunc.bin");
  ASSERT_TRUE(SaveSolverSnapshot(path, MakeSnapshot()).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string trunc_path = TempPath("rhchme_ckpt_trunc_cut.bin");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteAll(trunc_path, bytes.substr(0, cut));
    Result<SolverSnapshot> r = LoadSolverSnapshot(trunc_path);
    ASSERT_FALSE(r.ok()) << "truncation at byte " << cut << " loaded";
    ASSERT_FALSE(r.status().message().empty()) << "byte " << cut;
  }
  fs::remove(path);
  fs::remove(trunc_path);
}

TEST(Checkpoint, BitFlipFailsChecksum) {
  const std::string path = TempPath("rhchme_ckpt_flip.bin");
  ASSERT_TRUE(SaveSolverSnapshot(path, MakeSnapshot()).ok());
  std::string bytes = ReadAll(path);
  // Flip one bit at a spread of offsets, including inside the payload
  // (silent value corruption a shape check alone cannot catch).
  for (std::size_t pos : {std::size_t{0}, bytes.size() / 3,
                          bytes.size() / 2, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    WriteAll(path, corrupt);
    Result<SolverSnapshot> r = LoadSolverSnapshot(path);
    EXPECT_FALSE(r.ok()) << "bit flip at " << pos << " loaded";
  }
  fs::remove(path);
}

// ---- Kill-and-resume bit-identity -----------------------------------------

data::MultiTypeRelationalData SmallData(uint64_t seed = 21) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

RhchmeOptions ResumeOptions() {
  RhchmeOptions opts;
  opts.max_iterations = 9;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.tolerance = 0.0;  // Never converge early: full, comparable traces.
  opts.ensemble.subspace.spg.max_iterations = 20;
  return opts;
}

TEST(Checkpoint, VersionOneSnapshotIsFailedPrecondition) {
  // Version 1 carried a solver-core id. Rewriting a current snapshot's
  // version field to 1, with the checksum recomputed so integrity passes,
  // must surface as FailedPrecondition from the version check.
  const std::string path = TempPath("rhchme_ckpt_v1.bin");
  ASSERT_TRUE(SaveSolverSnapshot(path, MakeSnapshot()).ok());
  std::string bytes = ReadAll(path);
  const uint32_t v1 = 1;
  std::memcpy(&bytes[4], &v1, sizeof(v1));  // Right after the magic.
  const std::size_t body = bytes.size() - sizeof(uint64_t);
  uint64_t sum = 1469598103934665603ull;  // FNV-1a, as in the format.
  for (std::size_t i = 0; i < body; ++i) {
    sum ^= static_cast<unsigned char>(bytes[i]);
    sum *= 1099511628211ull;
  }
  std::memcpy(&bytes[body], &sum, sizeof(sum));
  WriteAll(path, bytes);
  Result<SolverSnapshot> r = LoadSolverSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();

  // A fit asked to resume from it fails the same way.
  RhchmeOptions opts = ResumeOptions();
  opts.checkpoint_path = path;
  opts.resume = true;
  Result<RhchmeResult> fit = Rhchme(opts).Fit(SmallData());
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kFailedPrecondition);
  fs::remove(path);
}

TEST(CheckpointResume, KilledFitResumesBitIdentically) {
  const data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  for (int threads : {1, 4}) {
    ScopedNumThreads pool(threads);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    RhchmeOptions opts = ResumeOptions();
    Result<HeterogeneousEnsemble> ensemble =
        BuildEnsemble(d, blocks, opts.ensemble);
    ASSERT_TRUE(ensemble.ok()) << ensemble.status().ToString();

    // Reference: one uninterrupted fit.
    Result<RhchmeResult> full =
        Rhchme(opts).FitWithEnsemble(d, *ensemble);
    ASSERT_TRUE(full.ok()) << full.status().ToString();

    // "Killed" fit: stop after 4 iterations with a checkpoint at 4,
    // then resume with the full budget (the options fingerprint
    // deliberately excludes max_iterations, so extending it is legal).
    const std::string snap = TempPath("rhchme_ckpt_resume.bin");
    fs::remove(snap);
    RhchmeOptions killed = opts;
    killed.max_iterations = 4;
    killed.checkpoint_path = snap;
    killed.checkpoint_every = 2;
    Result<RhchmeResult> part =
        Rhchme(killed).FitWithEnsemble(d, *ensemble);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    ASSERT_GE(part.value().diagnostics.snapshots_written, 1);

    RhchmeOptions resumed = opts;
    resumed.checkpoint_path = snap;
    resumed.resume = true;
    Result<RhchmeResult> cont =
        Rhchme(resumed).FitWithEnsemble(d, *ensemble);
    ASSERT_TRUE(cont.ok()) << cont.status().ToString();
    EXPECT_EQ(cont.value().diagnostics.resumed_from_iteration, 4);

    ASSERT_EQ(cont.value().hocc.objective_trace.size(),
              full.value().hocc.objective_trace.size());
    for (std::size_t t = 0; t < full.value().hocc.objective_trace.size();
         ++t) {
      EXPECT_EQ(cont.value().hocc.objective_trace[t],
                full.value().hocc.objective_trace[t])
          << "objective diverged at iteration " << t + 1;
    }
    ExpectBitIdentical(cont.value().hocc.g, full.value().hocc.g, "g");
    ExpectBitIdentical(cont.value().hocc.s, full.value().hocc.s, "s");
    EXPECT_EQ(cont.value().hocc.labels, full.value().hocc.labels);
    fs::remove(snap);
  }
}

TEST(CheckpointResume, MismatchedSnapshotIsRejectedNotSilentlyRestarted) {
  const data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  RhchmeOptions opts = ResumeOptions();
  Result<HeterogeneousEnsemble> ensemble =
      BuildEnsemble(d, blocks, opts.ensemble);
  ASSERT_TRUE(ensemble.ok());

  const std::string snap = TempPath("rhchme_ckpt_mismatch.bin");
  fs::remove(snap);
  RhchmeOptions writer = opts;
  writer.max_iterations = 4;
  writer.checkpoint_path = snap;
  writer.checkpoint_every = 2;
  ASSERT_TRUE(Rhchme(writer).FitWithEnsemble(d, *ensemble).ok());

  // Different lambda -> different fingerprint.
  RhchmeOptions other = opts;
  other.lambda = 2.0;
  other.checkpoint_path = snap;
  other.resume = true;
  Result<RhchmeResult> r = Rhchme(other).FitWithEnsemble(d, *ensemble);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  // resume with a missing file is a fresh fit, not an error.
  fs::remove(snap);
  RhchmeOptions fresh = opts;
  fresh.checkpoint_path = snap;
  fresh.resume = true;
  Result<RhchmeResult> r3 = Rhchme(fresh).FitWithEnsemble(d, *ensemble);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3.value().diagnostics.resumed_from_iteration, 0);
}

TEST(CheckpointResume, ValidationRejectsInconsistentOptions) {
  RhchmeOptions o = ResumeOptions();
  o.checkpoint_every = 2;  // every without a path
  EXPECT_FALSE(o.Validate().ok());
  o = ResumeOptions();
  o.resume = true;  // resume without a path
  EXPECT_FALSE(o.Validate().ok());
  o = ResumeOptions();
  o.checkpoint_every = -1;
  EXPECT_FALSE(o.Validate().ok());
}

}  // namespace
}  // namespace core
}  // namespace rhchme
