// google-benchmark microbenchmarks for the numerical kernels behind the
// solvers (Table V's costs decompose into exactly these pieces):
// GEMM variants, pNN graph construction, Laplacian assembly, one SPG step
// worth of work, one multiplicative-update iteration, and k-means.
//
// Flop-counted benchmarks report a GFLOP/s rate counter, and every
// benchmark reports the pool size as a `threads` counter so perf runs are
// comparable across machines and RHCHME_NUM_THREADS settings. In addition
// to the console table, results are written to BENCH_kernels.json
// (google-benchmark's JSON schema) so successive PRs can diff the perf
// trajectory; pass --benchmark_out=<path> to redirect.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "rhchme/rhchme.h"
#include "util/parallel.h"

namespace {

using namespace rhchme;  // NOLINT — bench binary.

constexpr char kJsonOutPath[] = "BENCH_kernels.json";

la::Matrix RandomMatrix(std::size_t r, std::size_t c, uint64_t seed) {
  Rng rng(seed);
  return la::Matrix::RandomUniform(r, c, &rng);
}

/// Attaches the shared counters: flops/iteration as a GFLOP/s rate and the
/// thread-pool size the run used.
void SetKernelCounters(benchmark::State& state, double flops_per_iteration) {
  if (flops_per_iteration > 0.0) {
    state.counters["GFLOP/s"] = benchmark::Counter(
        flops_per_iteration, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::kIs1000);
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(util::NumThreads()));
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix a = RandomMatrix(n, n, 1);
  la::Matrix b = RandomMatrix(n, n, 2);
  la::Matrix c;
  for (auto _ : state) {
    la::MultiplyInto(a, b, &c);
    // lint:stride-ok(DoNotOptimize sink: pointer identity only, no element access)
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  SetKernelCounters(state, flops);
}
BENCHMARK(BM_GemmNN)->UseRealTime()->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_GemmTallSkinny(benchmark::State& state) {
  // The solver's dominant product shape: (n x n) · (n x c).
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t c = 30;
  la::Matrix m = RandomMatrix(n, n, 3);
  la::Matrix g = RandomMatrix(n, c, 4);
  la::Matrix out;
  for (auto _ : state) {
    la::MultiplyInto(m, g, &out);
    // lint:stride-ok(DoNotOptimize sink: pointer identity only, no element access)
    benchmark::DoNotOptimize(out.data());
  }
  const double flops = 2.0 * static_cast<double>(n) * n * c;
  state.SetItemsProcessed(state.iterations() * 2 * n * n * c);
  SetKernelCounters(state, flops);
}
BENCHMARK(BM_GemmTallSkinny)->UseRealTime()->Arg(256)->Arg(512)->Arg(1024);

void BM_Gram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t c = 30;
  la::Matrix g = RandomMatrix(n, c, 5);
  for (auto _ : state) {
    la::Matrix gtg = la::Gram(g);
    // lint:stride-ok(DoNotOptimize sink: pointer identity only, no element access)
    benchmark::DoNotOptimize(gtg.data());
  }
  // Upper triangle of a c x c result, each entry an n-length dot.
  SetKernelCounters(state, static_cast<double>(n) * c * (c + 1));
}
BENCHMARK(BM_Gram)->UseRealTime()->Arg(256)->Arg(1024);

// ---- SIMD primitive microbenchmarks --------------------------------------
// Scalar-vs-SIMD pairs for the la/simd.h kernels the GEMM / distance /
// sparse hot loops are built from. Within one binary the "Simd" variants
// run whatever path the build selected (see the `isa` label), so the pair
// quantifies the vector-width win without needing a second build.

std::vector<double> RandomVector(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

void SetSimdCounters(benchmark::State& state, double flops_per_iteration) {
  SetKernelCounters(state, flops_per_iteration);
  state.SetLabel(la::simd::IsaName());
}

void BM_DotSimd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a = RandomVector(n, 21), b = RandomVector(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::simd::Dot(a.data(), b.data(), n));
  }
  SetSimdCounters(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_DotSimd)->UseRealTime()->Arg(64)->Arg(4096);

void BM_DotScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a = RandomVector(n, 21), b = RandomVector(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::simd::scalar::Dot(a.data(), b.data(), n));
  }
  SetSimdCounters(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_DotScalar)->UseRealTime()->Arg(64)->Arg(4096);

void BM_AxpySimd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x = RandomVector(n, 23), y = RandomVector(n, 24);
  for (auto _ : state) {
    la::simd::Axpy(1.0000001, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  SetSimdCounters(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_AxpySimd)->UseRealTime()->Arg(64)->Arg(4096);

void BM_AxpyScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x = RandomVector(n, 23), y = RandomVector(n, 24);
  for (auto _ : state) {
    la::simd::scalar::Axpy(1.0000001, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  SetSimdCounters(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_AxpyScalar)->UseRealTime()->Arg(64)->Arg(4096);

void BM_SquaredDistanceSimd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a = RandomVector(n, 25), b = RandomVector(n, 26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::simd::SquaredDistance(a.data(), b.data(), n));
  }
  SetSimdCounters(state, 3.0 * static_cast<double>(n));
}
BENCHMARK(BM_SquaredDistanceSimd)->UseRealTime()->Arg(64)->Arg(4096);

void BM_SquaredDistanceScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a = RandomVector(n, 25), b = RandomVector(n, 26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::simd::scalar::SquaredDistance(a.data(), b.data(), n));
  }
  SetSimdCounters(state, 3.0 * static_cast<double>(n));
}
BENCHMARK(BM_SquaredDistanceScalar)->UseRealTime()->Arg(64)->Arg(4096);

la::SparseMatrix RandomSparse(std::size_t rows, std::size_t cols,
                              std::size_t nnz_per_row, uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> trips;
  trips.reserve(rows * nnz_per_row);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      trips.push_back({i, rng.UniformInt(cols), rng.Uniform(0.1, 1.0)});
    }
  }
  return la::SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

void BM_SparseSandwich(benchmark::State& state) {
  // tr(Gᵀ L G) against a pNN-sparse L (16 nnz/row) — the objective's
  // regulariser term on the memory-lean solver core; O(nnz·c) instead of
  // the dense kernel's O(n²·c).
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t c = 30;
  la::Matrix g = RandomMatrix(n, c, 13);
  la::SparseMatrix l = RandomSparse(n, n, 16, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Sandwich(g, l));
  }
  SetKernelCounters(state, 2.0 * static_cast<double>(l.nnz()) * c);
}
BENCHMARK(BM_SparseSandwich)->UseRealTime()->Arg(256)->Arg(1024)->Arg(4096);

void BM_SparseDenseNarrow(benchmark::State& state) {
  // The solver's SpMM: forward CSR·G with a narrow G (c columns) — the
  // shape of K = R·G, R·(diag(s)·G) and L±·G in every iteration. Each c
  // runs at the workload it comes from: c=9 at block-world fill (n=1800,
  // ~43%), c=24 at tf-idf fill (n=2800, ~4.5%), c=30 at D4 fill
  // (n=1600, ~23%). Columns are drawn with replacement and duplicates
  // merged, so −n·ln(1−fill) draws per row give the target fill.
  const auto c = static_cast<std::size_t>(state.range(0));
  const std::size_t n = c == 9 ? 1800 : c == 24 ? 2800 : 1600;
  const double fill = c == 9 ? 0.43 : c == 24 ? 0.045 : 0.23;
  const auto draws =
      static_cast<std::size_t>(-static_cast<double>(n) * std::log1p(-fill));
  la::SparseMatrix r = RandomSparse(n, n, draws, 18);
  la::Matrix g = RandomMatrix(n, c, 19);
  la::Matrix out;
  for (auto _ : state) {
    r.MultiplyDenseInto(g, &out);
    // lint:stride-ok(DoNotOptimize sink: pointer identity only, no element access)
    benchmark::DoNotOptimize(out.data());
  }
  SetKernelCounters(state, 2.0 * static_cast<double>(r.nnz()) * c);
  state.counters["nnz"] = benchmark::Counter(static_cast<double>(r.nnz()));
}
BENCHMARK(BM_SparseDenseNarrow)->UseRealTime()->Arg(9)->Arg(24)->Arg(30);

/// A Laplacian-shaped CSR operand: per row, `draws` weights −w at random
/// columns (duplicates merged, the diagonal skipped) and their degree on
/// the diagonal.
la::SparseMatrix RandomLaplacian(std::size_t n, std::size_t draws,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> trips;
  trips.reserve(n * (draws + 1));
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t k = 0; k < draws; ++k) {
      const std::size_t j = rng.UniformInt(n);
      if (j == i) continue;
      const double w = rng.Uniform(0.1, 1.0);
      trips.push_back({i, j, -w});
      degree += w;
    }
    trips.push_back({i, i, degree});
  }
  return la::SparseMatrix::FromTriplets(n, n, std::move(trips));
}

void BM_LaplacianWalk(benchmark::State& state) {
  // The solver's Laplacian walk, serially over every row: lambda·L⁻·G,
  // lambda·L⁺·G and the tr(GᵀLG) partial in one pass (la/kernels.h
  // sandwich_sign_rows). c=9 runs at block-world fill (n=1800, about 94
  // nonzeros per row), c=30 at D4 fill (n=1600, about 27).
  const auto c = static_cast<std::size_t>(state.range(0));
  const std::size_t n = c == 9 ? 1800 : 1600;
  const std::size_t draws = c == 9 ? 95 : 27;
  const la::SparseMatrix l = RandomLaplacian(n, draws, 20);
  const la::Matrix g = RandomMatrix(n, c, 21);
  la::Matrix neg(n, c), pos(n, c);
  const la::simd::KernelTable& kt = la::simd::Table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.sandwich_sign_rows(
        l.row_offsets().data(), l.col_indices().data(), l.values().data(), 0,
        n, g.row_ptr(0), g.stride(), c, 100.0, neg.row_ptr(0), pos.row_ptr(0),
        neg.stride()));
  }
  // Per nonzero: the sign product's multiply-add and the dot's.
  SetKernelCounters(state, 4.0 * static_cast<double>(l.nnz()) * c);
  state.counters["nnz"] = benchmark::Counter(static_cast<double>(l.nnz()));
}
BENCHMARK(BM_LaplacianWalk)->UseRealTime()->Arg(9)->Arg(30);

/// The blockworld-sweep input of e2ebench: 3 x 600 objects, 3 classes,
/// about 43% joint-R fill.
data::MultiTypeRelationalData SweepBlockWorld() {
  data::BlockWorldOptions o;
  o.objects_per_type = {600, 600, 600};
  o.n_classes = 3;
  o.between_strength = 0.6;
  o.noise = 0.8;
  o.corrupted_fraction = 0.2;
  o.seed = 1;
  return data::GenerateBlockWorld(o).value();
}

void BM_JointRBuild(benchmark::State& state) {
  // A fit's first step: the joint R as CSR from the stored type blocks.
  const data::MultiTypeRelationalData d = SweepBlockWorld();
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.BuildJointRSparse().nnz());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_JointRBuild)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_InitMembership(benchmark::State& state) {
  // A fit's k-means initialisation of G on the block world's features.
  const data::MultiTypeRelationalData d = SweepBlockWorld();
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  for (auto _ : state) {
    Rng rng(1);
    auto g = fact::InitMembership(d, blocks, fact::MembershipInit::kKMeans,
                                  &rng);
    benchmark::DoNotOptimize(g.value().rows());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_InitMembership)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_EnsembleBuild(benchmark::State& state) {
  // Full heterogeneous-ensemble construction (paper Eq. 12): per (type,
  // member) tasks — subspace learning + pNN graph + Laplacians — on the
  // pool. The `threads` counter shows the scaling knob.
  const auto per_type = static_cast<std::size_t>(state.range(0));
  data::BlockWorldOptions data_opts;
  data_opts.objects_per_type = {per_type, per_type, per_type};
  data_opts.n_classes = 3;
  data_opts.seed = 18;
  data::MultiTypeRelationalData d =
      data::GenerateBlockWorld(data_opts).value();
  fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  core::EnsembleOptions opts;
  opts.subspace.spg.max_iterations = 15;
  for (auto _ : state) {
    auto e = core::BuildEnsemble(d, blocks, opts);
    benchmark::DoNotOptimize(e.value().laplacian.nnz());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_EnsembleBuild)->UseRealTime()->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_KnnGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix pts = RandomMatrix(n, 64, 6);
  graph::KnnGraphOptions opts;  // p=5 cosine, the paper's setting.
  for (auto _ : state) {
    auto g = graph::BuildKnnGraph(pts, opts);
    benchmark::DoNotOptimize(g.value().nnz());
  }
  // Pairwise distances dominate: n(n-1)/2 dots of length 64.
  SetKernelCounters(state, static_cast<double>(n) * (n - 1) * 64);
}
BENCHMARK(BM_KnnGraph)->UseRealTime()->Arg(128)->Arg(256)->Arg(512);

/// Clustered points for the construction-engine benches. NN-descent's
/// ~O(n^1.14) claim holds on data with local structure — which is also
/// what the pNN ensemble members actually see; uniform random points in
/// 32-d are the ANN worst case and would benchmark a regime the solver
/// never runs in.
la::Matrix ClusteredPoints(std::size_t n, std::size_t d, uint64_t seed) {
  constexpr std::size_t kClusters = 16;
  Rng rng(seed);
  la::Matrix centers(kClusters, d);
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t j = 0; j < d; ++j) centers(c, j) = 8.0 * rng.Normal();
  }
  la::Matrix pts(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % kClusters;
    for (std::size_t j = 0; j < d; ++j) {
      pts(i, j) = centers(c, j) + rng.Normal();
    }
  }
  return pts;
}

void BM_KnnBuildExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix pts = ClusteredPoints(n, 32, 8);
  graph::KnnGraphOptions opts;
  opts.p = 10;
  opts.backend = graph::KnnBackend::kExact;
  for (auto _ : state) {
    auto lists = graph::BuildKnnNeighbors(pts, opts);
    benchmark::DoNotOptimize(lists.value().size());
  }
  // The exact engine is its own recall reference.
  state.counters["recall"] = benchmark::Counter(1.0);
  SetKernelCounters(state, static_cast<double>(n) * (n - 1) * 32);
}
BENCHMARK(BM_KnnBuildExact)->UseRealTime()->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_KnnBuildDescent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix pts = ClusteredPoints(n, 32, 8);
  graph::KnnGraphOptions opts;
  opts.p = 10;
  opts.backend = graph::KnnBackend::kNNDescent;
  for (auto _ : state) {
    auto lists = graph::BuildKnnNeighbors(pts, opts);
    benchmark::DoNotOptimize(lists.value().size());
  }
  // Recall vs the exact engine, measured outside the timed loop and
  // regression-gated by tools/bench_compare.py alongside real_time.
  state.counters["recall"] =
      benchmark::Counter(eval::RecallAgainstExact(pts, opts).value());
  SetKernelCounters(state, 0.0);  // Adaptive work; no meaningful flop count.
}
BENCHMARK(BM_KnnBuildDescent)->UseRealTime()->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_Laplacian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix pts = RandomMatrix(n, 32, 7);
  graph::KnnGraphOptions opts;
  auto w = graph::BuildKnnGraph(pts, opts).value();
  for (auto _ : state) {
    auto l = graph::BuildSparseLaplacian(w, graph::LaplacianKind::kSymmetric);
    benchmark::DoNotOptimize(l.value().values().data());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_Laplacian)->UseRealTime()->Arg(128)->Arg(512);

void BM_SubspaceLearning(benchmark::State& state) {
  // Full Algorithm 1 on an n-object type (30 SPG iterations).
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix x = RandomMatrix(n, 80, 8);
  core::SubspaceOptions opts;
  opts.spg.max_iterations = 30;
  for (auto _ : state) {
    auto r = core::LearnSubspaceAffinity(x, opts);
    benchmark::DoNotOptimize(r.value().affinity.values().data());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_SubspaceLearning)->UseRealTime()->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Document features (tf-idf rows, about 2% filled) of the e2ebench
/// tfidf-sparse corpus shape with `n` documents: 8 classes, 1000 terms,
/// 600 concepts, 120 tokens per document, relation dropout 0.7.
la::Matrix TfidfDocuments(std::size_t n) {
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(8, n / 8);
  o.n_terms = 1000;
  o.n_concepts = 600;
  o.doc_length_mean = 120.0;
  o.relation_dropout = 0.7;
  o.seed = 1;
  return data::GenerateSyntheticCorpus(o).value().Type(0).features;
}

void BM_SubspaceLearningTfidf(benchmark::State& state) {
  // Full Algorithm 1 at defaults (80 SPG steps) on tf-idf documents: the
  // step direction turns ≥ 97% zeros within about ten steps.
  const la::Matrix x = TfidfDocuments(static_cast<std::size_t>(state.range(0)));
  const core::SubspaceOptions opts;
  for (auto _ : state) {
    auto r = core::LearnSubspaceAffinity(x, opts);
    benchmark::DoNotOptimize(r.value().affinity.values().data());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_SubspaceLearningTfidf)->UseRealTime()->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

/// The D4 preset (its own seed): three types, 660 documents × 520 terms,
/// 520 terms × 660 documents and 420 concepts × 660 documents.
data::MultiTypeRelationalData D4Corpus() {
  return data::GenerateSyntheticCorpus(data::ReutersTop10Preset()).value();
}

void BM_SubspaceLearningD4(benchmark::State& state) {
  // Full Algorithm 1 at defaults (80 SPG steps) on D4's document features,
  // the largest subspace member of the d4-fit workload. Most of a step
  // past the first few is the direction pass and the d·Q panels.
  const data::MultiTypeRelationalData d = D4Corpus();
  const la::Matrix& x = d.Type(0).features;
  if (x.rows() != static_cast<std::size_t>(state.range(0))) {
    state.SkipWithError("D4 preset changed its document count");
    return;
  }
  const core::SubspaceOptions opts;
  for (auto _ : state) {
    auto r = core::LearnSubspaceAffinity(x, opts);
    benchmark::DoNotOptimize(r.value().affinity.values().data());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_SubspaceLearningD4)->UseRealTime()->Arg(660)
    ->Unit(benchmark::kMillisecond);

void BM_EnsembleBuildD4(benchmark::State& state) {
  // The whole D4 ensemble at default EnsembleOptions: three subspace
  // members (660, 520 and 420 objects) and three pNN members, placed by
  // BuildEnsemble's cost-based schedule.
  const data::MultiTypeRelationalData d = D4Corpus();
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  const core::EnsembleOptions opts;
  for (auto _ : state) {
    auto e = core::BuildEnsemble(d, blocks, opts);
    benchmark::DoNotOptimize(e.value().laplacian.nnz());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_EnsembleBuildD4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_GramTfidf(benchmark::State& state) {
  // The subspace member's Gram Q = X̂·X̂ᵀ on tf-idf documents, as the
  // member forms it: the factored product with A = I over the
  // row-normalised features.
  const la::Matrix x = TfidfDocuments(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const la::Matrix q = core::FactoredGramProduct(x, nullptr);
    // lint:stride-ok(DoNotOptimize sink: pointer identity only, no element access)
    benchmark::DoNotOptimize(q.data());
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_GramTfidf)->UseRealTime()->Arg(1200)
    ->Unit(benchmark::kMillisecond);

/// Shared harness for the solver benchmarks: a 3-type block world with a
/// prebuilt ensemble, timed over a fixed 6-iteration FitWithEnsemble.
/// `dropout` controls the joint R's fill.
void RunSolverIterationBench(benchmark::State& state, double dropout) {
  const auto per_type = static_cast<std::size_t>(state.range(0));
  data::BlockWorldOptions data_opts;
  data_opts.objects_per_type = {per_type, per_type, per_type};
  data_opts.n_classes = 3;
  data_opts.dropout = dropout;
  data_opts.seed = 19;
  data::MultiTypeRelationalData d =
      data::GenerateBlockWorld(data_opts).value();
  fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  core::RhchmeOptions opts;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.max_iterations = 6;
  opts.tolerance = 0.0;  // Run all iterations.
  opts.ensemble.subspace.spg.max_iterations = 10;
  auto ensemble = core::BuildEnsemble(d, blocks, opts.ensemble);
  core::Rhchme solver(opts);
  for (auto _ : state) {
    auto fit = solver.FitWithEnsemble(d, ensemble.value());
    benchmark::DoNotOptimize(fit.value().hocc.objective_trace.back());
  }
  SetKernelCounters(state, 0.0);
  state.counters["solver_iters"] =
      benchmark::Counter(static_cast<double>(opts.max_iterations));
  state.counters["r_density"] = benchmark::Counter(d.JointRDensity());
}

void BM_SolverIteration(benchmark::State& state) {
  // Block-world fill (~47% of the joint R stored). 600 per type is the
  // blockworld-sweep shape of e2ebench: n = 1800, c = 9.
  RunSolverIterationBench(state, /*dropout=*/0.3);
}
BENCHMARK(BM_SolverIteration)->UseRealTime()->Arg(64)->Arg(128)->Arg(256)
    ->Arg(600)->Unit(benchmark::kMillisecond);

void BM_SolverIterationTfidf(benchmark::State& state) {
  // tf-idf-like fill (~2%): the iteration cost scales with the nonzero
  // count rather than n².
  RunSolverIterationBench(state, /*dropout=*/0.97);
}
BENCHMARK(BM_SolverIterationTfidf)->UseRealTime()->Arg(64)->Arg(128)
    ->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SolverIterationFullFill(benchmark::State& state) {
  // Maximum fill: no dropout, so every off-diagonal type block is stored
  // (1 − 1/3 ≈ 67% for three equal types) — the CSR core's worst case.
  RunSolverIterationBench(state, /*dropout=*/0.0);
}
BENCHMARK(BM_SolverIterationFullFill)->UseRealTime()->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix pts = RandomMatrix(n, 32, 10);
  cluster::KMeansOptions opts;
  opts.k = 10;
  opts.restarts = 2;
  for (auto _ : state) {
    Rng rng(11);
    auto r = cluster::KMeans(pts, opts, &rng);
    benchmark::DoNotOptimize(r.value().inertia);
  }
  SetKernelCounters(state, 0.0);
}
BENCHMARK(BM_KMeans)->UseRealTime()->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: mirror the console report into BENCH_kernels.json (in the
// working directory) so perf runs leave a machine-readable artefact. A
// caller-supplied --benchmark_out takes precedence.
//
// The JSON context gains three custom keys: `rhchme_build_type` records
// whether *this binary* was optimised (NDEBUG) — the stock
// `library_build_type` only reflects how the system's libbenchmark was
// compiled (Debian ships it assertion-enabled, i.e. "debug", even for
// Release user builds) — `rhchme_simd` records the runtime-dispatched
// kernel table this run actually executed (after any --force_isa /
// RHCHME_FORCE_ISA override), and `rhchme_simd_detected` what
// auto-detection would have picked. tools/bench_compare.py keys the
// comparison off rhchme_simd and rejects debug artefacts.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--force_isa=", 0) == 0) {
      const rhchme::Status st =
          la::simd::ForceIsa(arg.substr(std::string("--force_isa=").size())
                                 .c_str());
      if (!st.ok()) {
        std::fprintf(stderr, "bench_kernels: %s\n", st.ToString().c_str());
        return 1;
      }
      continue;  // Consumed; benchmark::Initialize must not see it.
    }
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  std::string out_flag = std::string("--benchmark_out=") + kJsonOutPath;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
#ifdef NDEBUG
  benchmark::AddCustomContext("rhchme_build_type", "release");
#else
  benchmark::AddCustomContext("rhchme_build_type", "debug");
#endif
  benchmark::AddCustomContext("rhchme_simd", la::simd::IsaName());
  benchmark::AddCustomContext("rhchme_simd_detected",
                              la::simd::DetectedIsaName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
