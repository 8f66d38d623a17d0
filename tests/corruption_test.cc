// Unit tests for noise/corruption injection.

#include "data/corruption.h"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>

#include "matrix_oracles.h"

namespace rhchme {
namespace data {
namespace {

using testing_reference::Max;
using testing_reference::MaxAbsDiff;
using testing_reference::Min;

TEST(CorruptRows, OnlySelectedRowsChange) {
  la::Matrix m(20, 10, 1.0);
  la::Matrix original = m;
  Rng rng(1);
  RowCorruptionOptions opts;
  opts.row_fraction = 0.25;
  opts.entry_fraction = 1.0;
  std::vector<std::size_t> rows = CorruptRows(&m, opts, &rng);
  EXPECT_EQ(rows.size(), 5u);
  for (std::size_t i = 0; i < 20; ++i) {
    const bool corrupted =
        std::find(rows.begin(), rows.end(), i) != rows.end();
    double diff = 0.0;
    for (std::size_t j = 0; j < 10; ++j) {
      diff += std::fabs(m(i, j) - original(i, j));
    }
    if (corrupted) {
      EXPECT_GT(diff, 0.0) << "row " << i;
    } else {
      EXPECT_EQ(diff, 0.0) << "row " << i;
    }
  }
}

TEST(CorruptRows, SpikesAreAdditiveAndPositive) {
  la::Matrix m(10, 5, 2.0);
  Rng rng(2);
  RowCorruptionOptions opts;
  opts.row_fraction = 1.0;
  opts.entry_fraction = 1.0;
  opts.magnitude = 3.0;
  CorruptRows(&m, opts, &rng);
  EXPECT_GE(Min(m), 2.0);  // Additive spikes never decrease values.
  EXPECT_GT(Max(m), 2.0);
}

TEST(CorruptRows, ZeroFractionIsNoOp) {
  la::Matrix m(5, 5, 1.0);
  la::Matrix original = m;
  Rng rng(3);
  RowCorruptionOptions opts;
  opts.row_fraction = 0.0;
  EXPECT_TRUE(CorruptRows(&m, opts, &rng).empty());
  EXPECT_EQ(MaxAbsDiff(m, original), 0.0);
}

TEST(CorruptRows, MagnitudeScalesWithDataMean) {
  la::Matrix small(10, 10, 0.1);
  la::Matrix large(10, 10, 100.0);
  Rng rng_a(4), rng_b(4);
  RowCorruptionOptions opts;
  opts.row_fraction = 1.0;
  opts.entry_fraction = 1.0;
  CorruptRows(&small, opts, &rng_a);
  CorruptRows(&large, opts, &rng_b);
  // Spikes are relative: the large matrix receives much larger spikes.
  EXPECT_GT(Max(large) - 100.0, 10.0 * (Max(small) - 0.1));
}

TEST(CorruptRows, RowIndicesAreSortedAndUnique) {
  la::Matrix m(50, 4, 1.0);
  Rng rng(5);
  RowCorruptionOptions opts;
  opts.row_fraction = 0.4;
  std::vector<std::size_t> rows = CorruptRows(&m, opts, &rng);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
}

TEST(CorruptRows, NonFiniteModePlantsNanAndInfInSelectedRowsOnly) {
  la::Matrix m(20, 10, 1.0);
  Rng rng(12);
  RowCorruptionOptions opts;
  opts.row_fraction = 0.25;
  opts.entry_fraction = 1.0;
  opts.mode = RowCorruptionMode::kNonFinite;
  std::vector<std::size_t> rows = CorruptRows(&m, opts, &rng);
  EXPECT_EQ(rows.size(), 5u);
  std::size_t nonfinite = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const bool corrupted =
        std::find(rows.begin(), rows.end(), i) != rows.end();
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) {
        ++nonfinite;
        EXPECT_TRUE(corrupted) << "NaN/Inf leaked into clean row " << i;
      } else if (!corrupted) {
        EXPECT_EQ(m(i, j), 1.0);
      }
    }
  }
  // entry_fraction = 1 poisons every entry of every selected row.
  EXPECT_EQ(nonfinite, 50u);
}

TEST(CorruptRows, NonFiniteModeUsesBothNanAndInf) {
  la::Matrix m(40, 10, 1.0);
  Rng rng(13);
  RowCorruptionOptions opts;
  opts.row_fraction = 1.0;
  opts.entry_fraction = 1.0;
  opts.mode = RowCorruptionMode::kNonFinite;
  CorruptRows(&m, opts, &rng);
  std::size_t nans = 0, infs = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (std::isnan(m(i, j))) ++nans;
      if (std::isinf(m(i, j))) ++infs;
    }
  }
  EXPECT_GT(nans, 100u);
  EXPECT_GT(infs, 100u);
}

TEST(CorruptRows, NonFiniteModeSelectsSameEntriesAsSpike) {
  // The two payloads must consume the Rng identically, so the *set* of
  // hit entries is mode-independent and seeded experiments stay
  // comparable across modes.
  la::Matrix spiked(20, 10, 1.0);
  la::Matrix poisoned(20, 10, 1.0);
  Rng rng_a(14), rng_b(14);
  RowCorruptionOptions opts;
  opts.row_fraction = 0.5;
  opts.entry_fraction = 0.4;
  std::vector<std::size_t> rows_a = CorruptRows(&spiked, opts, &rng_a);
  opts.mode = RowCorruptionMode::kNonFinite;
  std::vector<std::size_t> rows_b = CorruptRows(&poisoned, opts, &rng_b);
  EXPECT_EQ(rows_a, rows_b);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(spiked(i, j) != 1.0, !std::isfinite(poisoned(i, j)))
          << "entry (" << i << ", " << j << ") hit in one mode only";
    }
  }
}

TEST(RowCorruptionOptions, ValidatesRanges) {
  RowCorruptionOptions opts;
  EXPECT_TRUE(opts.Validate().ok());

  opts.row_fraction = -0.1;
  EXPECT_FALSE(opts.Validate().ok());
  opts.row_fraction = 1.1;
  EXPECT_FALSE(opts.Validate().ok());
  opts.row_fraction = 1.0;
  EXPECT_TRUE(opts.Validate().ok());

  opts.entry_fraction = -1e-9;
  EXPECT_FALSE(opts.Validate().ok());
  opts.entry_fraction = 2.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts.entry_fraction = 0.0;
  EXPECT_TRUE(opts.Validate().ok());

  opts.magnitude = -3.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts.magnitude = std::nan("");
  EXPECT_FALSE(opts.Validate().ok());
  opts.magnitude = 0.0;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(RowCorruptionOptions, NanFractionsAreRejected) {
  // NaN compares false against every bound — the range checks must be
  // written so NaN cannot slip through as "in range".
  RowCorruptionOptions opts;
  opts.row_fraction = std::nan("");
  EXPECT_FALSE(opts.Validate().ok());
  opts.row_fraction = 0.5;
  opts.entry_fraction = std::nan("");
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(DropEntries, HonoursProbabilityAndOnlyZeroes) {
  la::Matrix m(100, 100, 1.0);
  Rng rng(10);
  DropEntries(&m, 0.3, &rng);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (m(i, j) == 0.0) {
        ++dropped;
      } else {
        EXPECT_EQ(m(i, j), 1.0);
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / 10000.0, 0.3, 0.03);
}

TEST(DropEntries, ZeroProbabilityIsNoOp) {
  la::Matrix m(8, 8, 2.0);
  la::Matrix original = m;
  Rng rng(11);
  DropEntries(&m, 0.0, &rng);
  EXPECT_EQ(MaxAbsDiff(m, original), 0.0);
}

}  // namespace
}  // namespace data
}  // namespace rhchme
