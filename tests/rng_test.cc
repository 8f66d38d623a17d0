// Unit and statistical tests for the deterministic Rng.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace rhchme {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  uint64_t first = a.Next();
  a.Next();
  a.Seed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIntCoversSupportWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(37);
  for (double mean : {0.5, 4.0, 30.0, 120.0}) {
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / n, mean, std::max(0.05 * mean, 0.05))
        << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(43);
  for (int rep = 0; rep < 50; ++rep) {
    auto sample = rng.SampleWithoutReplacement(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (std::size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(47);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(59);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(DeriveStreamSeed, IsDeterministic) {
  EXPECT_EQ(DeriveStreamSeed(42, 0), DeriveStreamSeed(42, 0));
  EXPECT_EQ(DeriveStreamSeed(42, 7), DeriveStreamSeed(42, 7));
}

TEST(DeriveStreamSeed, AdjacentStreamsAndSeedsAreDistinct) {
  // Nearby (seed, stream) pairs must not collide — the failure mode of
  // additive offsets like seed + c*stream.
  std::set<uint64_t> seen;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (uint64_t stream = 0; stream < 8; ++stream) {
      seen.insert(DeriveStreamSeed(seed, stream));
    }
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(StreamRng, MatchesDerivedSeedAndSeparatesStreams) {
  Rng direct(DeriveStreamSeed(123, 4));
  Rng stream = StreamRng(123, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(stream.Next(), direct.Next());

  Rng a = StreamRng(123, 0);
  Rng b = StreamRng(123, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace rhchme
