// Bit-identity of the sparse-support SPG learner against the dense
// direction loop (reference_spg.h): the learned affinity, the objective
// trace, the step count and the stop flag must match byte for byte on
// every runnable kernel table and pool size. The feature sets cover
// mostly-zero direction panels (tf-idf), mixed sparse and dense panels
// (block world) and dense steps throughout (dense random features), and
// the affine penalty off and on.
//
// The dispatched table is fixed per process, so the launcher test re-runs
// this binary once per runnable table with RHCHME_FORCE_ISA set; the
// cases themselves run only in those child processes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/subspace.h"
#include "data/synthetic.h"
#include "la/simd.h"
#include "reference_spg.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

constexpr char kChildEnv[] = "RHCHME_SPG_IDENTITY_CHILD";

bool InChild() {
  const char* v = std::getenv(kChildEnv);
  return v != nullptr && v[0] != '\0';
}

TEST(SpgIdentity, HoldsOnEveryRunnableKernelTable) {
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
                            "' --gtest_filter='SpgIdentityCases.*'";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "kernel table " << isa;
    ++runs;
  }
  EXPECT_GE(runs, 1);
}

// ---- The cases (child processes only) -----------------------------------

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

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Learns `x` with the library and the reference at pools 1 and 4, for
/// the affine penalty off and on, and compares the results byte for byte.
/// Also compares the raw W (no pruning, no symmetrisation) once.
void CheckCase(const la::Matrix& x, SubspaceOptions opts,
               const std::string& what) {
  for (double eta : {0.0, 10.0}) {
    opts.affine_penalty = eta;
    for (int pool : {1, 4}) {
      ScopedNumThreads threads(pool);
      const std::string label = what + ", eta " + std::to_string(eta) +
                                ", pool " + std::to_string(pool) +
                                ", table " + la::simd::IsaName();
      SCOPED_TRACE(label);
      Result<SubspaceResult> got = LearnSubspaceAffinity(x, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const SubspaceResult ref =
          testing_reference::ReferenceLearnSubspaceAffinity(x, opts);
      EXPECT_TRUE(SameBytes(got.value().affinity, ref.affinity)) << "W";
      EXPECT_TRUE(SameBytes(got.value().objective_trace, ref.objective_trace))
          << "objective trace";
      EXPECT_EQ(got.value().iterations, ref.iterations);
      EXPECT_EQ(got.value().converged, ref.converged);
    }
  }
  SubspaceOptions raw = opts;
  raw.affine_penalty = 0.0;
  raw.prune_rel_tol = 0.0;
  raw.symmetrize = false;
  Result<SubspaceResult> got = LearnSubspaceAffinity(x, raw);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(SameBytes(
      got.value().affinity,
      testing_reference::ReferenceLearnSubspaceAffinity(x, raw).affinity))
      << what << ": raw W";
}

class SpgIdentityCases : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!InChild()) GTEST_SKIP() << "runs per kernel table via the launcher";
  }
};

TEST_F(SpgIdentityCases, TfidfFeatures) {
  // The e2ebench tf-idf corpus at a third of its size: every type's
  // direction turns ≥ 97% zeros within a few steps, and 400 documents
  // split the row passes into several chunks.
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(8, 50);
  o.n_terms = 330;
  o.n_concepts = 200;
  o.doc_length_mean = 40.0;
  o.relation_dropout = 0.7;
  o.seed = 3;
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(o).value();
  SubspaceOptions opts;
  opts.spg.max_iterations = 40;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    CheckCase(d.Type(k).features, opts, "tf-idf type " + d.Type(k).name);
  }
}

TEST_F(SpgIdentityCases, BlockWorldFeatures) {
  // Dense relation rows: the direction's panels are sparse and dense side
  // by side, and some flip between steps.
  data::BlockWorldOptions o;
  o.objects_per_type = {150, 70};
  o.n_classes = 3;
  o.corrupted_fraction = 0.2;
  o.seed = 7;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  SubspaceOptions opts;
  opts.spg.max_iterations = 30;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    CheckCase(d.Type(k).features, opts, "block-world type " + d.Type(k).name);
  }
}

TEST_F(SpgIdentityCases, DenseRandomFeatures) {
  Rng rng(31);
  SubspaceOptions opts;
  opts.spg.max_iterations = 12;
  CheckCase(la::Matrix::RandomUniform(300, 24, &rng), opts, "dense random");
  // Row counts off the 32-row panel grid and the 64-column tile grid.
  CheckCase(la::Matrix::RandomUniform(77, 9, &rng), opts, "dense random 77");
}

TEST_F(SpgIdentityCases, ToleranceStop) {
  Rng rng(32);
  SubspaceOptions opts;
  opts.spg.max_iterations = 400;
  opts.spg.tolerance = 0.1;  // Met after about 200 steps at eta = 0.
  const la::Matrix x = la::Matrix::RandomUniform(40, 3, &rng);
  CheckCase(x, opts, "tolerance stop");
  EXPECT_TRUE(LearnSubspaceAffinity(x, opts).value().converged);
}

}  // namespace
}  // namespace core
}  // namespace rhchme
