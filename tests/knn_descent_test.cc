// Tests for the neighbour-list construction engines (blocked exact scan
// and NN-descent) and the recall gate behind the approximate backend.

#include "graph/knn_descent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/synthetic.h"
#include "eval/knn_recall.h"
#include "graph/knn_graph.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace graph {
namespace {

/// Gaussian blobs: well-separated centres with unit-variance points, the
/// clustered regime NN-descent is built for (and the regime every pNN
/// ensemble member actually sees).
la::Matrix Blobs(std::size_t clusters, std::size_t per_cluster,
                 std::size_t d, uint64_t seed) {
  Rng rng(seed);
  la::Matrix centers(clusters, d);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t j = 0; j < d; ++j) centers(c, j) = 10.0 * rng.Normal();
  }
  la::Matrix pts(clusters * per_cluster, d);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        pts(c * per_cluster + i, j) = centers(c, j) + rng.Normal();
      }
    }
  }
  return pts;
}

/// Straight-from-the-definition reference with the engines' exact
/// arithmetic (squared norms + simd::Dot), so distances compare bitwise.
KnnNeighborLists BruteForce(const la::Matrix& pts, std::size_t p) {
  const std::size_t n = pts.rows(), d = pts.cols();
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) {
    sq[i] = la::simd::Dot(pts.row_ptr(i), pts.row_ptr(i), d);
  }
  KnnNeighborLists out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double dot = la::simd::Dot(pts.row_ptr(i), pts.row_ptr(j), d);
      out[i].push_back({j, std::max(0.0, sq[i] + sq[j] - 2.0 * dot)});
    }
    std::sort(out[i].begin(), out[i].end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.index < b.index);
              });
    out[i].resize(std::min(p, out[i].size()));
  }
  return out;
}

void ExpectListsIdentical(const KnnNeighborLists& a,
                          const KnnNeighborLists& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "row " << i;
    for (std::size_t t = 0; t < a[i].size(); ++t) {
      EXPECT_EQ(a[i][t].index, b[i][t].index) << "row " << i << " slot " << t;
      EXPECT_EQ(a[i][t].distance, b[i][t].distance)
          << "row " << i << " slot " << t;
    }
  }
}

TEST(ExactKnn, MatchesBruteForce) {
  Rng rng(5);
  la::Matrix pts = la::Matrix::RandomNormal(70, 5, &rng);
  ExpectListsIdentical(ExactKnnNeighbors(pts, 7), BruteForce(pts, 7));
}

TEST(ExactKnn, HandlesDegenerateShapes) {
  // n < 2: empty lists, no crash.
  EXPECT_TRUE(ExactKnnNeighbors(la::Matrix(1, 3), 5)[0].empty());
  // p >= n clamps to the complete graph.
  la::Matrix pts = la::Matrix::FromRows({{0.0}, {1.0}, {2.0}});
  KnnNeighborLists lists = ExactKnnNeighbors(pts, 100);
  for (const auto& l : lists) EXPECT_EQ(l.size(), 2u);
}

TEST(ExactKnn, BitStableAcrossThreadCounts) {
  la::Matrix pts = Blobs(6, 50, 8, 17);
  KnnNeighborLists ref;
  {
    ScopedNumThreads scoped(1);
    ref = ExactKnnNeighbors(pts, 6);
  }
  {
    ScopedNumThreads scoped(4);
    ExpectListsIdentical(ExactKnnNeighbors(pts, 6), ref);
  }
}

TEST(ExactKnn, SparseRowsMatchTheDenseLoop) {
  // tf-idf documents and terms under 5% fill: the exact engine walks
  // the source rows' nonzeros (dot_sparse), and must give the lists and
  // distances of the dense dot loop byte for byte, at every pool size.
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(6, 40);
  o.n_terms = 800;
  o.n_concepts = 100;
  o.doc_length_mean = 25.0;
  o.seed = 9;
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(o).value();
  for (std::size_t k = 0; k < 2; ++k) {
    const la::Matrix& x = d.Type(k).features;
    SCOPED_TRACE(d.Type(k).name);
    ASSERT_LT(static_cast<double>(x.NonZeros()),
              0.05 * static_cast<double>(x.rows() * x.cols()));
    const KnnNeighborLists dense = BruteForce(x, 10);
    for (int threads : {1, 4}) {
      ScopedNumThreads scoped(threads);
      ExpectListsIdentical(ExactKnnNeighbors(x, 10), dense);
    }
  }
}

TEST(NnDescent, HighRecallOnBlobs) {
  la::Matrix pts = Blobs(8, 40, 16, 23);  // n = 320.
  KnnDescentOptions opts;
  for (std::size_t p : {std::size_t{5}, std::size_t{10}}) {
    KnnNeighborLists approx = NnDescent(pts, p, opts);
    KnnNeighborLists exact = ExactKnnNeighbors(pts, p);
    Result<double> recall = eval::KnnRecall(approx, exact);
    ASSERT_TRUE(recall.ok());
    EXPECT_GE(recall.value(), 0.95) << "p=" << p;
  }
}

TEST(NnDescent, HighRecallOnTfIdfDocuments) {
  data::SyntheticCorpusOptions gen;
  gen.docs_per_class = {45, 45, 45, 45};  // n = 180 documents.
  gen.n_terms = 150;
  gen.n_concepts = 90;
  gen.seed = 31;
  la::Matrix docs =
      data::GenerateSyntheticCorpus(gen).value().Type(0).features;
  KnnGraphOptions opts;
  opts.backend = KnnBackend::kNNDescent;
  for (std::size_t p : {std::size_t{5}, std::size_t{10}}) {
    opts.p = p;
    Result<double> recall = eval::RecallAgainstExact(docs, opts);
    ASSERT_TRUE(recall.ok());
    EXPECT_GE(recall.value(), 0.95) << "p=" << p;
  }
}

TEST(NnDescent, BitStableAcrossThreadCounts) {
  la::Matrix pts = Blobs(5, 60, 8, 29);
  KnnDescentOptions opts;
  KnnNeighborLists ref;
  {
    ScopedNumThreads scoped(1);
    ref = NnDescent(pts, 5, opts);
  }
  {
    ScopedNumThreads scoped(4);
    ExpectListsIdentical(NnDescent(pts, 5, opts), ref);
  }
}

TEST(NnDescent, DeterministicUnderFixedStream) {
  la::Matrix pts = Blobs(4, 30, 6, 37);
  KnnDescentOptions opts;
  opts.seed = DeriveStreamSeed(123, 7);  // An ensemble-style derived stream.
  KnnNeighborLists a = NnDescent(pts, 5, opts);
  KnnNeighborLists b = NnDescent(pts, 5, opts);
  ExpectListsIdentical(a, b);
}

TEST(KnnBackend, AutoSelectsByThreshold) {
  Rng rng(41);
  const std::size_t n = kKnnAutoBackendThreshold;
  const la::Matrix above = la::Matrix::RandomNormal(n + 1, 4, &rng);
  const la::Matrix at = above.Block(0, 0, n, 4);
  KnnGraphOptions opts;
  opts.p = 4;
  const KnnNeighborLists descent = NnDescent(above, 4, opts.descent);
  const KnnNeighborLists exact = ExactKnnNeighbors(above, 4);
  // The engines must differ here, or the checks below could not tell them
  // apart.
  EXPECT_LT(eval::KnnRecall(descent, exact).value(), 1.0);

  // Up to the threshold kAuto is the exact reference...
  opts.backend = KnnBackend::kAuto;
  ExpectListsIdentical(BuildKnnNeighbors(at, opts).value(),
                       ExactKnnNeighbors(at, 4));
  // ...one point above it, exactly the NN-descent result for the seed.
  ExpectListsIdentical(BuildKnnNeighbors(above, opts).value(), descent);

  // Explicit backends ignore the threshold.
  opts.backend = KnnBackend::kExact;
  ExpectListsIdentical(BuildKnnNeighbors(above, opts).value(), exact);
  opts.backend = KnnBackend::kNNDescent;
  ExpectListsIdentical(BuildKnnNeighbors(at, opts).value(),
                       NnDescent(at, 4, opts.descent));
}

TEST(KnnBackend, Names) {
  EXPECT_STREQ(KnnBackendName(KnnBackend::kExact), "exact");
  EXPECT_STREQ(KnnBackendName(KnnBackend::kNNDescent), "nn-descent");
  EXPECT_STREQ(KnnBackendName(KnnBackend::kAuto), "auto");
}

TEST(KnnRecall, ScoresOverlapByIndex) {
  KnnNeighborLists exact = {{{1, 0.1}, {2, 0.2}}, {{0, 0.1}, {3, 0.3}}};
  KnnNeighborLists perfect = exact;
  EXPECT_DOUBLE_EQ(eval::KnnRecall(perfect, exact).value(), 1.0);
  KnnNeighborLists half = {{{1, 0.1}, {5, 0.5}}, {{0, 0.1}, {6, 0.6}}};
  EXPECT_DOUBLE_EQ(eval::KnnRecall(half, exact).value(), 0.5);
  KnnNeighborLists wrong_shape(3);
  EXPECT_FALSE(eval::KnnRecall(wrong_shape, exact).ok());
}

}  // namespace
}  // namespace graph
}  // namespace rhchme
