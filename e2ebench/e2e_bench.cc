// End-to-end RHCHME fit benchmark: runs one named workload in this
// process through the library's public API.
//
//   e2e_bench --workload {d4-fit,tfidf-sparse,blockworld-sweep}
//             --seed N --seconds S --trace {0,1}
//             [--smoke] [--work-dir DIR] [--commit TEXT]
//
// --trace 0 times untraced fits and reports the end-to-end metrics.
// --trace 1 splits each fit into BuildEnsemble + FitWithEnsemble, records
// spans around every public call (solver iterations via the iteration
// callback), re-runs the ensemble members and the solver's kernels
// outside-in on the same inputs, reports the per-layer metrics and writes
// the spans as a Chrome trace. The last stdout line is one JSON object;
// run.py checks it against the recorded reference scores.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rhchme/rhchme.h"
#include "trace.h"
#include "util/parallel.h"

namespace e2ebench {
namespace {

namespace rh = rhchme;
namespace fs = std::filesystem;

constexpr const char* kWorkloads[] = {"d4-fit", "tfidf-sparse",
                                      "blockworld-sweep"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/e2ebench-run";
  std::string commit = "unknown";
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (key == "--trace") {
      a.trace = value() == "1";
    } else if (key == "--smoke") {
      a.smoke = true;
    } else if (key == "--work-dir") {
      a.work_dir = value();
    } else if (key == "--commit") {
      a.commit = value();
    } else {
      Die("unknown argument " + key);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    Die("unknown workload '" + a.workload + "'");
  }
  return a;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median wall time of `reps` calls of `fn` (each call timed alone).
template <typename Fn>
double MedianSeconds(int reps, const Fn& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(Since(t0));
  }
  return Median(t);
}

template <typename T>
T Unwrap(rh::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---- Workload inputs ----------------------------------------------------

/// Generates one input instance of the workload from `seed`.
rh::Result<rh::data::MultiTypeRelationalData> Generate(const Args& a,
                                                       uint64_t seed) {
  if (a.workload == "d4-fit") {
    rh::data::SyntheticCorpusOptions o = rh::data::ReutersTop10Preset();
    if (a.smoke) {
      o.docs_per_class = {32, 24, 18, 14, 11, 9, 8, 7, 5, 4};
      o.n_terms = 104;
      o.n_concepts = 84;
    }
    o.seed = seed;
    return rh::data::GenerateSyntheticCorpus(o);
  }
  if (a.workload == "tfidf-sparse") {
    rh::data::SyntheticCorpusOptions o;
    o.docs_per_class.assign(8, a.smoke ? 25 : 150);
    o.n_terms = a.smoke ? 200 : 1000;
    o.n_concepts = a.smoke ? 120 : 600;
    o.doc_length_mean = a.smoke ? 40.0 : 120.0;
    o.relation_dropout = 0.7;
    o.seed = seed;
    return rh::data::GenerateSyntheticCorpus(o);
  }
  rh::data::BlockWorldOptions o;
  o.objects_per_type.assign(3, a.smoke ? 90 : 600);
  o.n_classes = 3;
  o.between_strength = 0.6;
  o.noise = 0.8;
  o.corrupted_fraction = 0.2;
  o.seed = seed;
  return rh::data::GenerateBlockWorld(o);
}

/// One point of a workload's fit schedule: the input instance and the
/// options one fit runs with.
struct Point {
  std::string name;
  std::size_t set = 0;  ///< Index of the input instance.
  double lambda = 250.0;
  double beta = 300.0;
  /// > 0: the fit first re-weights the shared ensemble to this alpha.
  double alpha = 0.0;
};

/// d4-fit fits three D4 instances at library defaults, so its scores and
/// times are not those of one draw; tfidf-sparse fits one corpus. The sweep
/// visits six (lambda, beta) points on its shared ensemble — the two
/// beta = 1 points at small lambda stop by tolerance, the rest at the
/// iteration cap, and NMI falls as beta grows at lambda = 100 — plus one
/// point that first re-weights the ensemble to another alpha.
std::vector<Point> Schedule(const Args& a) {
  std::vector<Point> pts;
  if (a.workload == "d4-fit") {
    for (std::size_t j = 0; j < 3; ++j) {
      pts.push_back(Point{"instance-" + std::to_string(j), j});
    }
    return pts;
  }
  if (a.workload == "tfidf-sparse") return {Point{"defaults"}};
  const double grid[][2] = {{0.1, 1.0},   {1.0, 1.0},    {1.0, 100.0},
                            {100.0, 1.0}, {100.0, 10.0}, {100.0, 100.0}};
  for (const auto& lb : grid) {
    char name[64];
    std::snprintf(name, sizeof(name), "lambda=%g,beta=%g", lb[0], lb[1]);
    pts.push_back(Point{name, 0, lb[0], lb[1]});
  }
  pts.push_back(Point{"lambda=100,beta=10,alpha=0.5", 0, 100.0, 10.0, 0.5});
  return pts;
}

/// One loaded input instance.
struct Dataset {
  rh::data::MultiTypeRelationalData data;
  rh::fact::BlockStructure blocks;
  /// Built in set-up for the sweep (shared by every fit); empty otherwise.
  rh::core::HeterogeneousEnsemble ensemble;
  bool has_ensemble = false;
};

struct SetupTimes {
  std::vector<double> total, load, ensemble;
};

/// One set-up: generate, save and load every input instance as the CLI
/// does; the sweep also builds its shared ensemble here. Instance j is
/// generated from DeriveStreamSeed(seed, j).
std::vector<Dataset> SetUp(const Args& a, std::size_t instances,
                           Tracer* tracer, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  ScopedSpan root(tracer, "setup", 0);
  std::vector<Dataset> sets(instances);
  double load_s = 0.0;
  for (std::size_t j = 0; j < instances; ++j) {
    rh::data::MultiTypeRelationalData generated;
    {
      ScopedSpan s(tracer, "generate", 0);
      generated =
          Unwrap(Generate(a, rh::DeriveStreamSeed(a.seed, j)), "generate");
    }
    const std::string dir = a.work_dir + "/data-" + std::to_string(j);
    {
      ScopedSpan s(tracer, "save", 0);
      const rh::Status st = rh::io::SaveDataset(generated, dir);
      if (!st.ok()) Die("save: " + st.ToString());
    }
    Dataset& ds = sets[j];
    {
      ScopedSpan s(tracer, "load", 0);
      const Clock::time_point l0 = Clock::now();
      ds.data = Unwrap(rh::io::LoadDataset(dir), "load");
      load_s += Since(l0);
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    ds.blocks = rh::fact::BuildBlockStructure(ds.data);
    if (a.workload == "blockworld-sweep") {
      ScopedSpan s(tracer, "ensemble.build", 0);
      const Clock::time_point e0 = Clock::now();
      ds.ensemble = Unwrap(rh::core::BuildEnsemble(
                               ds.data, ds.blocks, rh::core::EnsembleOptions{}),
                           "ensemble");
      times->ensemble.push_back(Since(e0));
      ds.has_ensemble = true;
    }
  }
  times->load.push_back(load_s);
  times->total.push_back(Since(t0));
  return sets;
}

// ---- Fits ---------------------------------------------------------------

struct FitRecord {
  std::string point;
  bool traced = false;
  bool ok = false;
  bool degraded = false;
  bool repeat_ok = true;
  bool timed = true;  ///< False for the untimed repeat-check fit.
  double seconds = 0.0;  ///< Wall time of the whole fit call(s).
  double nmi = 0.0, fscore = 0.0;
  int iterations = 0;
  bool converged = false;
  std::string error;
  // Traced fits only.
  int fit_span = -1;
  std::size_t dense_nn_allocs = 0;
};

uint64_t Fnv1a(uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of everything two repeated fits must agree on byte for byte:
/// every type's labels and the objective trace.
uint64_t FitDigest(const rh::fact::HoccResult& r) {
  uint64_t h = 14695981039346656037ULL;
  for (const auto& labels : r.labels) {
    h = Fnv1a(h, labels.data(), labels.size() * sizeof(labels[0]));
  }
  return Fnv1a(h, r.objective_trace.data(),
               r.objective_trace.size() * sizeof(double));
}

rh::core::RhchmeOptions SolverOptions(const Point& p) {
  rh::core::RhchmeOptions o;
  o.lambda = p.lambda;
  o.beta = p.beta;
  return o;
}

class Runner {
 public:
  Runner(const std::vector<Dataset>* sets, Tracer* tracer)
      : sets_(sets), tracer_(tracer) {}

  /// Runs one fit of `p`. Untraced: one Fit (or FitWithEnsemble on the
  /// sweep's shared ensemble). Traced: the same work split into its
  /// public calls, each under a span.
  FitRecord RunFit(const Point& p, bool traced,
                   rh::core::RhchmeResult* keep = nullptr) {
    FitRecord rec;
    rec.point = p.name;
    rec.traced = traced;
    const Dataset& ds = (*sets_)[p.set];
    rh::core::Rhchme solver(SolverOptions(p));
    rh::Result<rh::core::RhchmeResult> result =
        rh::Status::Internal("fit not run");
    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      if (!ds.has_ensemble) {
        result = solver.Fit(ds.data);
      } else if (p.alpha > 0.0) {
        rh::Result<rh::core::HeterogeneousEnsemble> ens =
            rh::core::ReweightEnsemble(ds.ensemble, ds.blocks, p.alpha);
        result = ens.ok() ? solver.FitWithEnsemble(ds.data, ens.value())
                          : rh::Result<rh::core::RhchmeResult>(ens.status());
      } else {
        result = solver.FitWithEnsemble(ds.data, ds.ensemble);
      }
      rec.seconds = Since(t0);
    } else {
      result = TracedFit(p, ds, solver, &rec);
    }
    rec.ok = result.ok();
    if (!rec.ok) {
      rec.error = result.status().ToString();
      return rec;
    }
    const rh::core::RhchmeResult& r = result.value();
    rec.degraded = r.diagnostics.degraded_stops > 0;
    rec.iterations = r.hocc.iterations;
    rec.converged = r.hocc.converged;
    const auto& truth = ds.data.Type(0).labels;
    rec.nmi = Unwrap(rh::eval::Nmi(truth, r.hocc.labels[0]), "nmi");
    rec.fscore = Unwrap(rh::eval::FScore(truth, r.hocc.labels[0]), "fscore");
    const uint64_t digest = FitDigest(r.hocc);
    const auto [it, inserted] = digests_.emplace(p.name, digest);
    rec.repeat_ok = inserted || it->second == digest;
    if (keep) *keep = std::move(result).value();
    return rec;
  }

  /// Per-fit solver timestamps of the traced fits.
  struct SolverTimes {
    std::string point;
    double fit_s = 0.0;  ///< FitWithEnsemble wall.
    double first_iter = 0.0, tail = 0.0;
    std::vector<double> gaps;
  };
  const std::vector<SolverTimes>& solver_times() const { return solver_times_; }

  int NextFitId() { return ++fit_id_; }

 private:
  rh::Result<rh::core::RhchmeResult> TracedFit(const Point& p,
                                               const Dataset& ds,
                                               rh::core::Rhchme& solver,
                                               FitRecord* rec) {
    const int fit_id = NextFitId();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan fit(tracer_, "fit", fit_id);
    rec->fit_span = fit.id();
    rh::core::HeterogeneousEnsemble built;
    const rh::core::HeterogeneousEnsemble* ens = &ds.ensemble;
    if (!ds.has_ensemble) {
      ScopedSpan s(tracer_, "ensemble.build", fit_id);
      rh::Result<rh::core::HeterogeneousEnsemble> b = rh::core::BuildEnsemble(
          ds.data, ds.blocks, solver.options().ensemble);
      if (!b.ok()) return b.status();
      built = std::move(b).value();
      ens = &built;
    } else if (p.alpha > 0.0) {
      ScopedSpan s(tracer_, "ensemble.reweight", fit_id);
      rh::Result<rh::core::HeterogeneousEnsemble> b =
          rh::core::ReweightEnsemble(ds.ensemble, ds.blocks, p.alpha);
      if (!b.ok()) return b.status();
      built = std::move(b).value();
      ens = &built;
    }
    std::vector<Clock::time_point> stamps;
    stamps.reserve(static_cast<std::size_t>(solver.options().max_iterations) +
                   8);
    solver.SetIterationCallback(
        [&stamps](int, const rh::la::Matrix&) {
          stamps.push_back(Clock::now());
        });
    const std::size_t n = ds.blocks.total_objects();
    rh::la::memstats::StartTracking(n * n);
    const Clock::time_point s0 = Clock::now();
    rh::Result<rh::core::RhchmeResult> result =
        solver.FitWithEnsemble(ds.data, *ens);
    const Clock::time_point s1 = Clock::now();
    rh::la::memstats::StopTracking();
    rec->dense_nn_allocs = rh::la::memstats::LargeAllocations();

    const int sf = tracer_->Add("solver.fit", fit.id(), fit_id, s0, s1);
    SolverTimes st;
    st.point = p.name;
    st.fit_s = std::chrono::duration<double>(s1 - s0).count();
    auto secs = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    if (!stamps.empty()) {
      tracer_->Add("solver.init", sf, fit_id, s0, stamps.front());
      st.first_iter = secs(s0, stamps.front());
      for (std::size_t i = 1; i < stamps.size(); ++i) {
        tracer_->Add("solver.iter", sf, fit_id, stamps[i - 1], stamps[i]);
        st.gaps.push_back(secs(stamps[i - 1], stamps[i]));
      }
      tracer_->Add("solver.tail", sf, fit_id, stamps.back(), s1);
      st.tail = secs(stamps.back(), s1);
    }
    solver_times_.push_back(std::move(st));
    rec->seconds = Since(t0);
    return result;
  }

  const std::vector<Dataset>* sets_;
  Tracer* tracer_;
  int fit_id_ = 0;
  std::map<std::string, uint64_t> digests_;
  std::vector<SolverTimes> solver_times_;
};

// ---- Output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---- Traced-run layer measurements -------------------------------------

struct LayerTimes {
  double subspace_s = 0.0, knn_s = 0.0, laplacian_s = 0.0;
  int spg_iters = 0;
};

/// Re-runs every ensemble member alone, outside-in, on the same inputs and
/// with the same per-type seeds BuildEnsemble derives. Inside the build
/// each member is one pool task whose inner loops run inline, so the
/// members run here on one thread too.
LayerTimes RerunMembers(const Dataset& in, Tracer* tracer, int fit_id) {
  const rh::core::EnsembleOptions opts;
  LayerTimes lt;
  const int pool = rh::util::NumThreads();
  rh::util::SetNumThreads(1);
  ScopedSpan root(tracer, "ensemble.members", fit_id);
  for (std::size_t k = 0; k < in.data.NumTypes(); ++k) {
    const rh::la::Matrix& x = in.data.Type(k).features;
    rh::core::SubspaceOptions sub = opts.subspace;
    sub.seed = rh::DeriveStreamSeed(opts.subspace.seed, k);
    rh::core::SubspaceResult learned;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(tracer, "ensemble.subspace", fit_id);
      learned = Unwrap(rh::core::LearnSubspaceAffinity(x, sub), "subspace");
    }
    lt.subspace_s += Since(t0);
    lt.spg_iters += learned.iterations;

    rh::graph::KnnGraphOptions knn = opts.knn;
    knn.descent.seed = rh::DeriveStreamSeed(opts.knn.descent.seed, k);
    rh::la::SparseMatrix graph;
    t0 = Clock::now();
    {
      ScopedSpan s(tracer, "ensemble.knn", fit_id);
      graph = Unwrap(rh::graph::BuildKnnGraph(x, knn), "knn");
    }
    lt.knn_s += Since(t0);

    t0 = Clock::now();
    {
      ScopedSpan s(tracer, "ensemble.laplacian", fit_id);
      Unwrap(rh::graph::BuildLaplacian(learned.affinity, opts.laplacian),
             "laplacian");
      Unwrap(rh::graph::BuildSparseLaplacian(graph, opts.laplacian),
             "sparse laplacian");
    }
    lt.laplacian_s += Since(t0);
  }
  rh::util::SetNumThreads(pool);
  return lt;
}

/// Kernel and solver-step probes at the workload's real shapes, from the
/// state of a finished fit (its G and S) and the ensemble it used.
std::vector<Metric> ProbeKernels(const Args& a, const Dataset& in,
                                 const Point& p,
                                 const rh::core::RhchmeResult& fitted,
                                 double solver_fit_s, Tracer* tracer,
                                 int fit_id) {
  namespace la = rh::la;
  std::vector<Metric> m;
  ScopedSpan root(tracer, "solver.probes", fit_id);
  const rh::core::RhchmeOptions opts = SolverOptions(p);
  const la::Matrix& g = fitted.hocc.g;
  const la::Matrix& s = fitted.hocc.s;
  const rh::core::HeterogeneousEnsemble& ens = fitted.ensemble;
  const std::size_t n = g.rows(), c = g.cols();
  const bool sparse_core =
      in.data.JointRDensity() <= opts.sparse_r_density_threshold;

  {
    ScopedSpan sp(tracer, "cluster.init", fit_id);
    const double t = MedianSeconds(3, [&] {
      rh::Rng rng(opts.seed);
      Unwrap(rh::fact::InitMembership(in.data, in.blocks, opts.init, &rng),
             "init");
    });
    m.push_back({"cluster.init_ms", t * 1e3, "ms"});
  }

  la::Matrix r_dense;
  la::SparseMatrix r_sparse;
  {
    ScopedSpan sp(tracer, "data.joint_r", fit_id);
    const double t = MedianSeconds(3, [&] {
      if (sparse_core) {
        r_sparse = in.data.BuildJointRSparse();
      } else {
        r_dense = in.data.BuildJointR();
      }
    });
    m.push_back({"data.joint_r_ms", t * 1e3, "ms"});
  }

  // Square-GEMM ceiling of this host and pool, measured in this run.
  double peak = 0.0;
  {
    ScopedSpan sp(tracer, "la.gemm_peak", fit_id);
    const std::size_t q = a.smoke ? 256 : 1024;
    rh::Rng rng(a.seed);
    const la::Matrix x = la::Matrix::RandomUniform(q, q, &rng);
    const la::Matrix y = la::Matrix::RandomUniform(q, q, &rng);
    la::Matrix z;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      la::MultiplyInto(x, y, &z);
      peak = std::max(peak, 2.0 * q * q * q / Since(t0) * 1e-9);
    }
    m.push_back({"la.gemm_peak_gflops", peak, "GFLOP/s"});
  }

  la::Matrix mg;
  {
    ScopedSpan sp(tracer, "la.rg", fit_id);
    const double flops = sparse_core ? 2.0 * r_sparse.nnz() * c
                                     : 2.0 * static_cast<double>(n) * n * c;
    const double t = MedianSeconds(5, [&] {
      if (sparse_core) {
        r_sparse.MultiplyDenseInto(g, &mg);
      } else {
        la::MultiplyInto(r_dense, g, &mg);
      }
    });
    const double rate = flops / t * 1e-9;
    m.push_back({"la.rg_gflops", rate, "GFLOP/s"});
    m.push_back({"la.rg_frac_of_peak", peak > 0 ? rate / peak : 0.0, "ratio"});
  }

  la::Matrix gtg;
  {
    ScopedSpan sp(tracer, "la.gram", fit_id);
    const double t = MedianSeconds(20, [&] { gtg = la::Gram(g); });
    m.push_back({"la.gram_ms", t * 1e3, "ms"});
  }
  {
    ScopedSpan sp(tracer, "la.sandwich", fit_id);
    double sink = 0.0;
    const double t =
        MedianSeconds(10, [&] { sink += la::Sandwich(g, ens.laplacian); });
    if (!std::isfinite(sink)) Die("sandwich is not finite");
    m.push_back({"la.sandwich_ms", t * 1e3, "ms"});
  }

  // The product-form G update and S solve, fed the fit's own products
  // (R is symmetric, so Rᵀ·G = R·G).
  {
    ScopedSpan sp(tracer, "solver.g_update", fit_id);
    const la::SparseMatrix lap_pos = la::PositivePart(ens.laplacian);
    const la::SparseMatrix lap_neg = la::NegativePart(ens.laplacian);
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      la::Matrix g_work = g;
      const Clock::time_point t0 = Clock::now();
      const rh::Status st = rh::fact::MultiplicativeGUpdateFromProducts(
          mg, mg, s, gtg, opts.lambda, &lap_pos, &lap_neg, opts.mu_eps,
          &g_work);
      t.push_back(Since(t0));
      if (!st.ok()) Die("g update: " + st.ToString());
    }
    m.push_back({"factorization.g_update_ms", Median(t) * 1e3, "ms"});
  }
  {
    ScopedSpan sp(tracer, "solver.s_solve", fit_id);
    const la::Matrix gtmg = la::MultiplyTN(g, mg);
    const double t = MedianSeconds(50, [&] {
      Unwrap(rh::fact::SolveCentralSFromProducts(gtg, gtmg, opts.ridge),
             "s solve");
    });
    m.push_back({"factorization.s_solve_us", t * 1e6, "us"});
  }
  {
    ScopedSpan sp(tracer, "ensemble.reweight", fit_id);
    const double t = MedianSeconds(3, [&] {
      Unwrap(rh::core::ReweightEnsemble(ens, in.blocks, 0.5), "reweight");
    });
    m.push_back({"ensemble.reweight_ms", t * 1e3, "ms"});
  }
  m.push_back({"ensemble.laplacian_nnz", static_cast<double>(ens.laplacian.nnz()),
               "count"});

  // The same solve on one thread against the pool's solve.
  {
    ScopedSpan sp(tracer, "solver.fit_1t", fit_id);
    const int pool = rh::util::NumThreads();
    rh::util::SetNumThreads(1);
    rh::core::Rhchme solver(opts);
    const Clock::time_point t0 = Clock::now();
    Unwrap(solver.FitWithEnsemble(in.data, ens), "1-thread fit");
    const double t1 = Since(t0);
    rh::util::SetNumThreads(pool);
    m.push_back({"solver.speedup_1t", t1 / solver_fit_s, "x"});
  }
  return m;
}

/// Total duration of the `name` spans inside the fit trees under `roots`.
double SpanSeconds(const Tracer& tracer, const std::string& name,
                   const std::vector<int>& roots) {
  double total = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.name != name) continue;
    for (const int root : roots) {
      if (s.fit_id == tracer.Get(root).fit_id) total += s.Seconds();
    }
  }
  return total;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "e2e_bench: refusing to run a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  const Args args = ParseArgs(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int pool = static_cast<int>(std::min(4u, hw));
  rh::util::SetNumThreads(pool);
  fs::create_directories(args.work_dir);

  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  const Clock::time_point start = Clock::now();

  // ---- Set-up, several times; the last inputs are kept ----------------
  // At least three set-ups; cheap ones repeat for about two seconds.
  const std::vector<Point> points = Schedule(args);
  std::size_t instances = 0;
  for (const Point& p : points) instances = std::max(instances, p.set + 1);
  SetupTimes setup;
  std::vector<Dataset> sets;
  double setup_total = 0.0;
  for (int rep = 0; rep < 3 || (rep < 15 && setup_total < 2.0); ++rep) {
    sets = SetUp(args, instances, tr, &setup);
    setup_total += setup.total.back();
  }
  // Member re-runs, probes and the context use the first point's inputs.
  const Dataset& in = sets[points[0].set];

  // ---- Timed part ------------------------------------------------------
  Runner runner(&sets, tr);
  std::vector<FitRecord> fits;
  std::vector<double> plain_cycles, traced_cycles;
  rh::core::RhchmeResult kept;  // First traced fit of point 0, for probes.
  bool have_kept = false;
  const Clock::time_point timed0 = Clock::now();
  // Whole cycles over the schedule while the next one still fits in
  // --seconds, and at least two fits. The traced run alternates an
  // untraced and a traced cycle, at least one of each.
  const int min_cycles = args.trace ? 2 : 1;
  // Peak RSS after the first cycle: freed blocks stay cached in the
  // allocator's arenas, so the peak keeps creeping up with every further
  // fit and would otherwise depend on how many fits fit in --seconds.
  double peak_rss_mb = 0.0;
  for (int cycle = 0;; ++cycle) {
    const bool traced = args.trace && cycle % 2 == 1;
    const Clock::time_point c0 = Clock::now();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const bool keep = traced && !have_kept && i == 0;
      fits.push_back(
          runner.RunFit(points[i], traced, keep ? &kept : nullptr));
      have_kept = have_kept || (keep && fits.back().ok);
    }
    (traced ? traced_cycles : plain_cycles).push_back(Since(c0));
    if (cycle == 0) peak_rss_mb = PeakRssMb();
    const int done = cycle + 1;
    const double cycle_s = Since(timed0) / done;
    if (done >= min_cycles && fits.size() >= 2 &&
        Since(timed0) + cycle_s * min_cycles > args.seconds) {
      break;
    }
  }
  // A single untraced cycle fitted every point once: repeat the first
  // point so the repeat check still compares two fits. It is not timed.
  if (fits.size() == points.size()) {
    fits.push_back(runner.RunFit(points[0], false));
    fits.back().timed = false;
  }

  // ---- Correctness and scores -------------------------------------------
  std::size_t failed = 0;
  std::map<std::string, std::pair<double, double>> scores;  // First per point.
  for (const FitRecord& f : fits) {
    const bool bad = !f.ok || f.degraded || !f.repeat_ok;
    failed += bad ? 1 : 0;
    if (bad) {
      std::fprintf(stderr, "e2e_bench: fit '%s' failed: %s%s%s\n",
                   f.point.c_str(), f.error.c_str(),
                   f.degraded ? " degraded stop" : "",
                   f.repeat_ok ? "" : " labels/objective differ from the "
                                      "first fit of this point");
    }
    if (f.ok) scores.emplace(f.point, std::make_pair(f.nmi, f.fscore));
  }
  double nmi = 0.0, fscore = 0.0;
  for (const auto& [name, sc] : scores) {
    nmi += sc.first / static_cast<double>(scores.size());
    fscore += sc.second / static_cast<double>(scores.size());
  }

  std::vector<Metric> metrics;
  std::vector<double> fit_s;
  for (const FitRecord& f : fits) {
    if (!f.traced && f.timed) fit_s.push_back(f.seconds);
  }
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup.total), "s"},
        {"fit_s", Median(fit_s), "s"},
        {"nmi", nmi, "ratio"},
        {"fscore", fscore, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_fraction",
         fits.empty() ? 0.0
                      : 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(fits.size()),
         "ratio"},
    };
  } else {
    if (!have_kept) Die("no traced fit succeeded");
    const int members_id = runner.NextFitId();
    const LayerTimes lt = RerunMembers(in, tr, members_id);

    const std::vector<Runner::SolverTimes>& st = runner.solver_times();
    std::vector<double> first, gaps, tails, iters, point0_fit;
    double solver_total = 0.0;
    int caps = 0, traced_fits = 0, iter_total = 0;
    std::vector<int> roots;
    std::size_t nn_allocs = 0;
    const int max_iter = rh::core::RhchmeOptions{}.max_iterations;
    for (const FitRecord& f : fits) {
      if (!f.traced || !f.ok) continue;
      ++traced_fits;
      roots.push_back(f.fit_span);
      iters.push_back(f.iterations);
      iter_total += f.iterations;
      caps += (f.iterations >= max_iter && !f.converged) ? 1 : 0;
      nn_allocs = std::max(nn_allocs, f.dense_nn_allocs);
    }
    for (const auto& t : st) {
      first.push_back(t.first_iter);
      tails.push_back(t.tail);
      gaps.insert(gaps.end(), t.gaps.begin(), t.gaps.end());
      solver_total += t.fit_s;
      if (t.point == points[0].name) point0_fit.push_back(t.fit_s);
    }
    double fit_wall = 0.0;
    for (const int root : roots) fit_wall += tracer.Get(root).Seconds();
    double covered = 0.0;
    for (const char* leaf : {"ensemble.build", "ensemble.reweight",
                             "solver.init", "solver.iter", "solver.tail"}) {
      covered += SpanSeconds(tracer, leaf, roots);
    }
    const double build_in_fits = SpanSeconds(tracer, "ensemble.build", roots);
    // The build the member re-runs compare against: the sweep's set-up
    // builds, else the first point's builds inside its traced fits.
    std::vector<double> builds;
    if (in.has_ensemble) {
      builds = setup.ensemble;
    } else {
      for (const FitRecord& f : fits) {
        if (f.traced && f.ok && f.point == points[0].name) {
          builds.push_back(SpanSeconds(tracer, "ensemble.build", {f.fit_span}));
        }
      }
    }
    const double build_s = Median(builds);

    metrics = {
        {"subspace.learn_s", lt.subspace_s, "s"},
        {"subspace.spg_iters", static_cast<double>(lt.spg_iters), "count"},
        {"ensemble.build_s", build_s, "s"},
        {"ensemble.member_overlap", (lt.subspace_s + lt.knn_s) / build_s,
         "ratio"},
        {"ensemble.fit_share", build_in_fits / fit_wall, "ratio"},
        {"graph.knn_s", lt.knn_s, "s"},
        {"graph.laplacian_ms", lt.laplacian_s * 1e3, "ms"},
        {"solver.first_iter_ms", Median(first) * 1e3, "ms"},
        {"solver.iter_ms", Median(gaps) * 1e3, "ms"},
        {"solver.iters_per_s", iter_total / solver_total, "1/s"},
        {"solver.iterations", Median(iters), "count"},
        {"solver.cap_hit_fraction",
         static_cast<double>(caps) / std::max(1, traced_fits), "ratio"},
        {"solver.tail_ms", Median(tails) * 1e3, "ms"},
        {"la.dense_nn_allocs", static_cast<double>(nn_allocs), "count"},
        {"io.load_s", Median(setup.load), "s"},
        {"trace.coverage", covered / fit_wall, "ratio"},
        {"trace.overhead", Median(traced_cycles) / Median(plain_cycles) - 1.0,
         "ratio"},
    };
    const std::vector<Metric> probes =
        ProbeKernels(args, in, points[0], kept, Median(point0_fit), tr,
                     runner.NextFitId());
    metrics.insert(metrics.end(), probes.begin(), probes.end());
  }

  // ---- Context and result --------------------------------------------
  const bool sparse_core =
      in.data.JointRDensity() <= rh::core::RhchmeOptions{}.sparse_r_density_threshold;
  std::string trace_path;
  std::vector<std::pair<std::string, std::string>> ctx = {
      {"workload", JsonString(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"smoke", args.smoke ? "true" : "false"},
      {"isa", JsonString(rh::la::simd::IsaName())},
      {"isa_detected", JsonString(rh::la::simd::DetectedIsaName())},
      {"pool_threads", std::to_string(rh::util::NumThreads())},
      {"nproc", std::to_string(hw)},
      {"cpu_model", JsonString(CpuModel())},
      {"commit", JsonString(args.commit)},
      {"build", JsonString("release (NDEBUG)")},
      {"n", std::to_string(in.blocks.total_objects())},
      {"c", std::to_string(in.blocks.total_clusters())},
      {"joint_r_density", Num(in.data.JointRDensity())},
      {"solver_core", JsonString(sparse_core ? "sparse-R" : "dense implicit")},
      {"fits", std::to_string(fits.size())},
      {"wall_s", Num(Since(start))},
  };
  if (args.trace) {
    trace_path = args.work_dir + "/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".trace.json";
    if (!tracer.WriteChromeTrace(trace_path, ctx)) {
      Die("cannot write trace " + trace_path);
    }
    ctx.push_back({"trace_file", JsonString(trace_path)});
  }

  std::string out = "{\"context\":{";
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    out += (i ? "," : "") + JsonString(ctx[i].first) + ":" + ctx[i].second;
  }
  out += "},\"scores\":{\"nmi\":" + Num(nmi) + ",\"fscore\":" + Num(fscore) +
         "},\"attempted\":" + std::to_string(fits.size()) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + JsonString(metrics[i].name) +
           ":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
