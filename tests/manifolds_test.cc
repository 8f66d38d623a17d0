// Unit tests for the manifold/subspace samplers (paper Fig. 1 scene).

#include "data/manifolds.h"

#include <gtest/gtest.h>

#include <cmath>

#include "eigen_sym.h"
#include "la/gemm.h"

namespace rhchme {
namespace data {
namespace {

TEST(TwoCircles, SizesAndLabels) {
  TwoCirclesOptions opts;
  opts.points_per_circle = 50;
  opts.ambient_noise = 10;
  ManifoldSample s = SampleTwoCircles(opts);
  ASSERT_EQ(s.points.rows(), 110u);
  ASSERT_EQ(s.labels.size(), 110u);
  EXPECT_EQ(std::count(s.labels.begin(), s.labels.end(), 0u), 50);
  EXPECT_EQ(std::count(s.labels.begin(), s.labels.end(), 1u), 50);
  EXPECT_EQ(std::count(s.labels.begin(), s.labels.end(), 2u), 10);
}

TEST(TwoCircles, PointsLieNearTheirCircle) {
  TwoCirclesOptions opts;
  opts.points_per_circle = 100;
  opts.radius = 2.0;
  opts.center_distance = 1.0;
  opts.noise_sigma = 0.01;
  ManifoldSample s = SampleTwoCircles(opts);
  const double cx[2] = {-0.5, 0.5};
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t c = s.labels[i];
    const double dx = s.points(i, 0) - cx[c];
    const double dy = s.points(i, 1);
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy), 2.0, 0.1);
  }
}

TEST(TwoCircles, IntersectingCirclesShareSpace) {
  // With centre distance < 2r the circles intersect (the Fig. 1 setting):
  // some points of different circles are closer to each other than to
  // most same-circle points.
  TwoCirclesOptions opts;
  opts.points_per_circle = 150;
  opts.center_distance = 1.2;
  opts.seed = 3;
  ManifoldSample s = SampleTwoCircles(opts);
  double min_cross = 1e300;
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t j = 150; j < 300; ++j) {
      const double dx = s.points(i, 0) - s.points(j, 0);
      const double dy = s.points(i, 1) - s.points(j, 1);
      min_cross = std::min(min_cross, dx * dx + dy * dy);
    }
  }
  EXPECT_LT(min_cross, 0.05);  // Near-collisions across manifolds exist.
}

TEST(TwoCircles, DeterministicGivenSeed) {
  TwoCirclesOptions opts;
  ManifoldSample a = SampleTwoCircles(opts);
  ManifoldSample b = SampleTwoCircles(opts);
  EXPECT_EQ(la::MaxAbsDiff(a.points, b.points), 0.0);
}

TEST(UnionOfSubspaces, SizesAndLabels) {
  UnionOfSubspacesOptions opts;
  opts.subspace_dims = {2, 3};
  opts.points_per_subspace = 40;
  opts.ambient_dim = 12;
  Result<ManifoldSample> s = SampleUnionOfSubspaces(opts);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().points.rows(), 80u);
  EXPECT_EQ(s.value().points.cols(), 12u);
  EXPECT_EQ(std::count(s.value().labels.begin(), s.value().labels.end(), 0u),
            40);
}

TEST(UnionOfSubspaces, GroupsHaveLowRank) {
  UnionOfSubspacesOptions opts;
  opts.subspace_dims = {2, 2};
  opts.points_per_subspace = 50;
  opts.ambient_dim = 10;
  opts.noise_sigma = 0.0;
  Result<ManifoldSample> s = SampleUnionOfSubspaces(opts);
  ASSERT_TRUE(s.ok());
  // Gram of the first group's points has rank <= 2: eigenvalue 3 ≈ 0.
  la::Matrix group = s.value().points.Block(0, 0, 50, 10);
  la::Matrix gram = la::MultiplyNT(group, group);
  Result<la::EigenSymResult> eig = la::EigenSym(gram);
  ASSERT_TRUE(eig.ok());
  const auto& w = eig.value().eigenvalues;
  EXPECT_GT(w[49], 1e-3);            // Two substantial directions...
  EXPECT_GT(w[48], 1e-3);
  EXPECT_NEAR(w[47], 0.0, 1e-8);     // ...and nothing else.
}

TEST(UnionOfSubspaces, NonnegativeModeProducesNonnegativePoints) {
  UnionOfSubspacesOptions opts;
  opts.nonnegative = true;
  opts.noise_sigma = 0.0;
  Result<ManifoldSample> s = SampleUnionOfSubspaces(opts);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.value().points.IsNonNegative());
}

TEST(UnionOfSubspaces, ValidationErrors) {
  UnionOfSubspacesOptions opts;
  opts.subspace_dims = {};
  EXPECT_FALSE(SampleUnionOfSubspaces(opts).ok());
  opts.subspace_dims = {0};
  EXPECT_FALSE(SampleUnionOfSubspaces(opts).ok());
  opts.subspace_dims = {10};
  opts.ambient_dim = 10;  // Not a proper subspace.
  EXPECT_FALSE(SampleUnionOfSubspaces(opts).ok());
}

}  // namespace
}  // namespace data
}  // namespace rhchme
