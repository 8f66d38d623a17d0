// Bit-identity of the sparse-support SPG learner against the dense
// direction loop (reference_spg.h): the learned affinity, the objective
// trace, the step count and the stop flag must match byte for byte on
// every runnable kernel table and pool size. The feature sets cover
// mostly-zero direction panels (tf-idf), mixed sparse and dense panels
// (block world) and dense steps throughout (dense random features), and
// every stop rule: the cap, the stationarity tolerance and the objective
// plateau. The tf-idf documents and terms and the low-dimensional dense
// features take the factored path (core::SpgFactoredProducts), the rest
// the GEMM and zero-skipping products.
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

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// The library's CSR W against FromDense of the reference's dense W.
bool SameBytes(const la::SparseMatrix& a, const la::Matrix& dense) {
  const la::SparseMatrix b = la::SparseMatrix::FromDense(dense);
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBytes(a.row_offsets(), b.row_offsets()) &&
         SameBytes(a.col_indices(), b.col_indices()) &&
         SameBytes(a.values(), b.values());
}

/// Learns `x` with the library and the reference at pools 1 and 4 and
/// compares the results byte for byte. First asserts that `x` takes the
/// factored path exactly when `factored`.
void CheckCase(const la::Matrix& x, const SubspaceOptions& opts,
               const std::string& what, bool factored) {
  EXPECT_EQ(SpgFactoredProducts(x.rows(), x.NonZeros()), factored) << what;
  EXPECT_EQ(testing_reference::ReferenceFactoredPath(x), factored) << what;
  for (int pool : {1, 4}) {
    ScopedNumThreads threads(pool);
    SCOPED_TRACE(what + ", pool " + std::to_string(pool) + ", table " +
                 la::simd::IsaName());
    Result<SubspaceResult> got = LearnSubspaceAffinity(x, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const testing_reference::ReferenceSubspaceResult ref =
        testing_reference::ReferenceLearnSubspaceAffinity(x, opts);
    EXPECT_TRUE(SameBytes(got.value().affinity, ref.affinity)) << "W";
    EXPECT_TRUE(SameBytes(got.value().objective_trace, ref.objective_trace))
        << "objective trace";
    EXPECT_EQ(got.value().iterations, ref.iterations);
    EXPECT_EQ(got.value().stop, ref.stop);
  }
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
    CheckCase(d.Type(k).features, opts, "tf-idf type " + d.Type(k).name,
              d.Type(k).name != "concepts");
  }
}

TEST_F(SpgIdentityCases, TfidfZeroRowOffTheGrid) {
  // Factored documents with a zero row, which stays zero in X̂, and 390
  // objects, so the last 32-row panel is short.
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(8, 50);
  o.n_terms = 330;
  o.n_concepts = 200;
  o.doc_length_mean = 40.0;
  o.relation_dropout = 0.7;
  o.seed = 3;
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(o).value();
  const la::Matrix& docs = d.Type(0).features;
  la::Matrix x(390, docs.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; i != 17 && j < x.cols(); ++j) x(i, j) = docs(i, j);
  }
  SubspaceOptions opts;
  opts.spg.max_iterations = 20;
  CheckCase(x, opts, "tf-idf documents, zero row, 390 objects", true);
}

TEST_F(SpgIdentityCases, TfidfPlateauStop) {
  // The corpus of TfidfFeatures at another seed and the default 80 steps:
  // every type's objective plateaus after 18–26 steps.
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(8, 50);
  o.n_terms = 330;
  o.n_concepts = 200;
  o.doc_length_mean = 40.0;
  o.relation_dropout = 0.7;
  o.seed = 4;
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(o).value();
  const SubspaceOptions opts;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    CheckCase(d.Type(k).features, opts, "tf-idf type " + d.Type(k).name,
              d.Type(k).name != "concepts");
    EXPECT_EQ(LearnSubspaceAffinity(d.Type(k).features, opts).value().stop,
              StopReason::kPlateau)
        << d.Type(k).name;
  }
}

TEST_F(SpgIdentityCases, BlockWorldFeatures) {
  // Dense relation rows: the direction's panels are sparse and dense side
  // by side, and some flip between steps. Every type stops at the cap.
  data::BlockWorldOptions o;
  o.objects_per_type = {150, 70};
  o.n_classes = 3;
  o.corrupted_fraction = 0.2;
  o.seed = 7;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  SubspaceOptions opts;
  opts.spg.max_iterations = 30;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    CheckCase(d.Type(k).features, opts, "block-world type " + d.Type(k).name,
              false);
    EXPECT_EQ(LearnSubspaceAffinity(d.Type(k).features, opts).value().stop,
              StopReason::kMaxIterations)
        << d.Type(k).name;
  }
}

TEST_F(SpgIdentityCases, DenseRandomFeatures) {
  Rng rng(31);
  SubspaceOptions opts;
  opts.spg.max_iterations = 12;
  // 300 objects in 24 dimensions: (A·X̂)·X̂ᵀ costs 2·24 multiply-adds
  // per entry of A·Q, which the factored path takes; 77 in 9 does not.
  CheckCase(la::Matrix::RandomUniform(300, 24, &rng), opts, "dense random",
            true);
  // Row counts off the 32-row panel grid and the 64-column tile grid.
  CheckCase(la::Matrix::RandomUniform(77, 9, &rng), opts, "dense random 77",
            false);
}

TEST_F(SpgIdentityCases, ToleranceStop) {
  Rng rng(32);
  SubspaceOptions opts;
  opts.spg.max_iterations = 400;
  opts.spg.tolerance = 0.1;  // Met after about 200 steps.
  const la::Matrix x = la::Matrix::RandomUniform(40, 3, &rng);
  CheckCase(x, opts, "tolerance stop", true);
  EXPECT_EQ(LearnSubspaceAffinity(x, opts).value().stop,
            StopReason::kTolerance);
}

}  // namespace
}  // namespace core
}  // namespace rhchme
