// Tests for the util/parallel thread-pool layer: ParallelFor coverage and
// chunking semantics, deterministic ParallelSum reductions, nested-region
// serialisation, and end-to-end bit-stability of Rhchme::Fit across thread
// counts (the guarantee that lets RHCHME_NUM_THREADS vary freely between
// machines without changing paper-reproduction numbers).

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <utility>
#include <vector>

#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace util {
namespace {

using testing_reference::MaxAbsDiff;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedNumThreads threads(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ChunksRespectGrainAlignment) {
  ScopedNumThreads threads(3);
  // Chunk starts must sit at begin + k*grain regardless of thread count —
  // the property deterministic reductions rely on.
  constexpr std::size_t kBegin = 5, kEnd = 103, kGrain = 10;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  ParallelFor(kBegin, kEnd, kGrain, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({b, e});
  });
  std::size_t covered = 0;
  for (const auto& [b, e] : seen) {
    EXPECT_EQ((b - kBegin) % kGrain, 0u);
    EXPECT_LE(e, kEnd);
    covered += e - b;
  }
  EXPECT_EQ(covered, kEnd - kBegin);
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  ScopedNumThreads threads(4);
  int calls = 0;
  ParallelFor(3, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(0, 5, 100, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
  });
  EXPECT_EQ(calls, 1);
  // Grain 0 is clamped to 1 rather than dividing by zero.
  std::atomic<int> indices{0};
  ParallelFor(0, 4, 0, [&](std::size_t b, std::size_t e) {
    indices.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(indices.load(), 4);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  ScopedNumThreads threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t outer = ob; outer < oe; ++outer) {
      ParallelFor(0, 8, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t inner = b; inner < e; ++inner) {
          hits[outer * 8 + inner].fetch_add(1);
        }
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelSum, MatchesSerialSumBitForBitAcrossThreadCounts) {
  Rng rng(99);
  std::vector<double> v(5001);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  const auto chunk_sum = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += v[i];
    return acc;
  };
  constexpr std::size_t kGrain = 64;
  double reference;
  {
    ScopedNumThreads threads(1);
    reference = ParallelSum(0, v.size(), kGrain, chunk_sum);
  }
  for (int n : {2, 4, 8}) {
    ScopedNumThreads threads(n);
    const double got = ParallelSum(0, v.size(), kGrain, chunk_sum);
    EXPECT_EQ(got, reference) << "threads=" << n;
  }
}

TEST(ParallelSum, EmptyRangeIsZero) {
  EXPECT_EQ(ParallelSum(4, 4, 8, [](std::size_t, std::size_t) {
              return 1.0;
            }),
            0.0);
}

TEST(NumThreadsApi, SetNumThreadsClampsToOne) {
  ScopedNumThreads threads(4);
  EXPECT_EQ(NumThreads(), 4);
  SetNumThreads(0);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(-3);
  EXPECT_EQ(NumThreads(), 1);
}

TEST(GrainForWorkApi, ScalesInverselyWithPerIndexCost) {
  EXPECT_EQ(GrainForWork(kMinWorkPerChunk), 1u);
  EXPECT_EQ(GrainForWork(kMinWorkPerChunk / 2), 2u);
  EXPECT_GE(GrainForWork(0), 1u);
  EXPECT_GE(GrainForWork(kMinWorkPerChunk * 10), 1u);
}

TEST(GemmDeterminism, IdenticalProductsAcrossThreadCounts) {
  Rng rng(7);
  la::Matrix a = la::Matrix::RandomNormal(93, 41, &rng);
  la::Matrix b = la::Matrix::RandomNormal(41, 57, &rng);
  la::Matrix c1, c8;
  {
    ScopedNumThreads threads(1);
    la::MultiplyInto(a, b, &c1);
  }
  {
    ScopedNumThreads threads(8);
    la::MultiplyInto(a, b, &c8);
  }
  EXPECT_EQ(MaxAbsDiff(c1, c8), 0.0);
}

// The tentpole guarantee: a full Rhchme::Fit — GEMM, pNN graphs, k-means
// seeding, the multiplicative updates, and the E_R reweighting — produces
// identical labels and objective traces whether the pool has 1 thread or 8
// (equivalently RHCHME_NUM_THREADS=1 vs 8, which feed the same pool size).
TEST(RhchmeDeterminism, FitIsBitStableAcrossThreadCounts) {
  data::BlockWorldOptions data_opts;
  data_opts.objects_per_type = {24, 18, 12};
  data_opts.n_classes = 3;
  data_opts.seed = 21;

  core::RhchmeOptions opts;
  opts.max_iterations = 15;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.ensemble.subspace.spg.max_iterations = 10;

  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    data::MultiTypeRelationalData d =
        data::GenerateBlockWorld(data_opts).value();
    core::Rhchme solver(opts);
    Result<core::RhchmeResult> r = solver.Fit(d);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };

  const core::RhchmeResult serial = run(1);
  const core::RhchmeResult threaded = run(8);

  ASSERT_EQ(serial.hocc.labels.size(), threaded.hocc.labels.size());
  for (std::size_t k = 0; k < serial.hocc.labels.size(); ++k) {
    EXPECT_EQ(serial.hocc.labels[k], threaded.hocc.labels[k]) << "type " << k;
  }
  ASSERT_EQ(serial.hocc.objective_trace.size(),
            threaded.hocc.objective_trace.size());
  for (std::size_t t = 0; t < serial.hocc.objective_trace.size(); ++t) {
    EXPECT_EQ(serial.hocc.objective_trace[t],
              threaded.hocc.objective_trace[t])
        << "iteration " << t;
  }
  EXPECT_EQ(MaxAbsDiff(serial.hocc.g, threaded.hocc.g), 0.0);
}

}  // namespace
}  // namespace util
}  // namespace rhchme
