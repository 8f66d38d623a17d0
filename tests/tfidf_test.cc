// Unit tests for the tf-idf transform.

#include "data/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "matrix_oracles.h"

namespace rhchme {
namespace data {
namespace {

using testing_reference::IsNonNegative;

TEST(TfIdf, HandComputedNoSmoothingNoSublinear) {
  // 2 docs, 2 terms; term 0 in both docs (idf = log(2/2) = 0), term 1 in
  // doc 0 only (idf = log(2/1)).
  la::Matrix counts = la::Matrix::FromRows({{1, 2}, {3, 0}});
  TfIdfOptions opts;
  opts.sublinear_tf = false;
  opts.smooth_idf = false;
  opts.l2_normalize = false;
  la::Matrix w = TfIdf(counts, opts);
  EXPECT_DOUBLE_EQ(w(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(w(1, 0), 0.0);
  EXPECT_NEAR(w(0, 1), 2.0 * std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(w(1, 1), 0.0);
}

TEST(TfIdf, SublinearDampensHighCounts) {
  la::Matrix counts = la::Matrix::FromRows({{100, 0}, {0, 1}});
  TfIdfOptions opts;
  opts.sublinear_tf = true;
  opts.smooth_idf = true;
  opts.l2_normalize = false;
  la::Matrix w = TfIdf(counts, opts);
  // tf = 1 + log(100) ≈ 5.6 instead of 100.
  const double idf = std::log(3.0 / 2.0) + 1.0;
  EXPECT_NEAR(w(0, 0), (1.0 + std::log(100.0)) * idf, 1e-12);
}

TEST(TfIdf, SmoothIdfNeverZeroOrInfinite) {
  // Term 1 appears nowhere; smooth idf must stay finite and positive.
  la::Matrix counts = la::Matrix::FromRows({{1, 0}, {1, 0}});
  TfIdfOptions opts;
  opts.smooth_idf = true;
  opts.l2_normalize = false;
  la::Matrix w = TfIdf(counts, opts);
  EXPECT_TRUE(w.AllFinite());
  EXPECT_GT(w(0, 0), 0.0);
}

TEST(TfIdf, L2NormalisedRowsHaveUnitNorm) {
  la::Matrix counts = la::Matrix::FromRows({{3, 4, 0}, {1, 1, 1}});
  la::Matrix w = TfIdf(counts);  // Defaults include L2 normalisation.
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += w(i, j) * w(i, j);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(TfIdf, EmptyDocumentStaysZero) {
  la::Matrix counts = la::Matrix::FromRows({{0, 0}, {1, 2}});
  la::Matrix w = TfIdf(counts);
  EXPECT_DOUBLE_EQ(w(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(w(0, 1), 0.0);
  EXPECT_TRUE(w.AllFinite());
}

TEST(TfIdf, NegativeCountsClampedFirst) {
  la::Matrix counts = la::Matrix::FromRows({{-5, 2}});
  TfIdfOptions opts;
  opts.l2_normalize = false;
  la::Matrix w = TfIdf(counts, opts);
  EXPECT_DOUBLE_EQ(w(0, 0), 0.0);
  EXPECT_GT(w(0, 1), 0.0);
}

TEST(TfIdf, OutputIsNonNegative) {
  la::Matrix counts = la::Matrix::FromRows({{1, 0, 3}, {0, 2, 0}, {1, 1, 1}});
  la::Matrix w = TfIdf(counts);
  EXPECT_TRUE(IsNonNegative(w));
}

TEST(TfIdf, RareTermsWeighMoreThanCommonOnes) {
  // Same tf; the rare term (df=1) must outweigh the common one (df=3).
  la::Matrix counts = la::Matrix::FromRows({{2, 2}, {2, 0}, {2, 0}});
  TfIdfOptions opts;
  opts.l2_normalize = false;
  la::Matrix w = TfIdf(counts, opts);
  EXPECT_GT(w(0, 1), w(0, 0));
}

}  // namespace
}  // namespace data
}  // namespace rhchme
