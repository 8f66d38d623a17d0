#include "core/ensemble.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

/// One ensemble-member construction unit: learn the affinity of member
/// (`type`, subspace-or-pNN). Members are mutually
/// independent, so they run in any order: one per pool task, or on the
/// caller (see the schedule in BuildEnsemble).
struct MemberTask {
  std::size_t type;
  bool subspace;  // false = pNN member.
};

/// Runs `fn(t)` for every task index. Dispatches through ParallelFor only
/// when there is real fan-out: a single task runs directly on the caller
/// so its own inner parallel regions (SPG GEMMs, pairwise distances)
/// still reach the pool instead of being serialised as nested regions.
template <typename Fn>
void RunTasks(std::size_t count, const Fn& fn) {
  if (count <= 1) {
    for (std::size_t t = 0; t < count; ++t) fn(t);
    return;
  }
  util::ParallelFor(0, count, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t) fn(t);
  });
}

/// Single-thread seconds per unit of each cost term, calibrated against
/// member times of the D1–D4 presets, the tf-idf corpus and the block
/// world on a 4-core AVX-512 host (the estimate lands within 2× of them).
/// A subspace member pays the Gram (n²·D), the dense n×n products of its
/// first steps (n³ GEMM multiply-adds, or n·2·nnz(X) CSR ones worth
/// kSpgGemmAdvantage GEMM ones each on the factored path) and the
/// per-step row passes (n² per step); a pNN member pays its pairwise
/// distances (n²·D).
constexpr double kGramSeconds = 1e-10;
constexpr double kCubeSeconds = 1e-9;
constexpr double kStepSeconds = 5e-9;
constexpr double kPairSeconds = 1e-10;

double EstimatedCost(const MemberShape& m, int spg_iterations) {
  const auto n = static_cast<double>(m.objects);
  const auto d = static_cast<double>(m.features);
  if (!m.subspace) return kPairSeconds * n * n * d;
  // GEMM multiply-adds of one dense-phase product, per n² entries.
  const double product =
      SpgFactoredProducts(m.objects, m.feature_nnz)
          ? 2.0 * static_cast<double>(kSpgGemmAdvantage * m.feature_nnz) / n
          : n;
  return n * n *
         (kGramSeconds * d + kCubeSeconds * product +
          kStepSeconds * static_cast<double>(spg_iterations));
}

/// Threads a member on the caller keeps busy: a subspace member's row
/// passes split into SpgRowChunks(n) chunks; a pNN member's pairwise scan
/// splits into more chunks than the pool has threads.
double CallerThreads(const MemberShape& m, std::size_t pool) {
  return static_cast<double>(
      m.subspace ? std::min(pool, SpgRowChunks(m.objects)) : pool);
}

/// The tail BuildEnsemble and ReweightEnsemble share: builds the Laplacian
/// of every member affinity in `out` (a 0 x 0 affinity is a disabled
/// member and stays out), one task per type, then assembles the joint
/// Laplacian at out->alpha.
Status AssembleEnsemble(const fact::BlockStructure& blocks,
                        HeterogeneousEnsemble* out) {
  const std::size_t num_types = blocks.num_types();
  std::vector<la::SparseMatrix> subspace_lap(num_types);
  std::vector<la::SparseMatrix> knn_lap(num_types);
  std::vector<Status> task_status(num_types);
  RunTasks(num_types, [&](std::size_t k) {
    auto build = [&](const la::SparseMatrix& w, la::SparseMatrix* lap) {
      if (w.rows() == 0 || !task_status[k].ok()) return;
      Result<la::SparseMatrix> l =
          graph::BuildSparseLaplacian(w, EnsembleOptions::laplacian);
      if (!l.ok()) {
        task_status[k] = l.status();
        return;
      }
      *lap = std::move(l).value();
    };
    build(out->subspace_affinity[k], &subspace_lap[k]);
    build(out->knn_affinity[k], &knn_lap[k]);
  });
  for (const Status& status : task_status) {
    if (!status.ok()) return status;
  }
  out->laplacian =
      AssembleJointLaplacian(blocks, subspace_lap, knn_lap, out->alpha);
  return Status::OK();
}

}  // namespace

std::vector<bool> PlanMemberSchedule(const std::vector<MemberShape>& members,
                                     int spg_iterations, std::size_t pool) {
  std::vector<bool> on_caller(members.size(), pool <= 1);
  if (pool <= 1) return on_caller;
  std::vector<double> cost(members.size());
  std::vector<std::size_t> order(members.size());
  for (std::size_t t = 0; t < members.size(); ++t) {
    cost[t] = EstimatedCost(members[t], spg_iterations);
    order[t] = t;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  auto fan_out = [&] {
    double largest = 0.0, total = 0.0;
    for (std::size_t t = 0; t < members.size(); ++t) {
      if (on_caller[t]) continue;
      largest = std::max(largest, cost[t]);
      total += cost[t];
    }
    return std::max(largest, total / static_cast<double>(pool));
  };
  // Plan k moves order[k - 1] to the caller on top of plan k − 1.
  double caller = 0.0;
  double best = fan_out();
  std::size_t best_k = 0;
  for (std::size_t k = 1; k <= order.size(); ++k) {
    const std::size_t t = order[k - 1];
    on_caller[t] = true;
    caller += cost[t] / CallerThreads(members[t], pool);
    const double estimate = caller + fan_out();
    if (estimate < best) {
      best = estimate;
      best_k = k;
    }
  }
  for (std::size_t k = best_k; k < order.size(); ++k) {
    on_caller[order[k]] = false;
  }
  return on_caller;
}

la::SparseMatrix AssembleJointLaplacian(
    const fact::BlockStructure& blocks,
    const std::vector<la::SparseMatrix>& subspace_lap,
    const std::vector<la::SparseMatrix>& knn_lap, double alpha) {
  const std::size_t n = blocks.total_objects();
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    nnz += subspace_lap[k].nnz() + knn_lap[k].nnz();
  }
  return la::SparseMatrix::FromRows(
      n, n, n > 0 ? nnz / n + 1 : 1,
      [&](std::size_t r, const auto& put) {
        const std::size_t k = static_cast<std::size_t>(
            std::upper_bound(blocks.type_offset.begin(),
                             blocks.type_offset.end(), r) -
            blocks.type_offset.begin() - 1);
        const std::size_t off = blocks.type_offset[k];
        const std::size_t i = r - off;
        // Member row i as [b, e) of its CSR arrays; a 0 x 0 block
        // (disabled member) contributes an empty row.
        auto row = [i](const la::SparseMatrix& m) {
          return m.rows() > 0 ? std::make_pair(m.row_offsets()[i],
                                               m.row_offsets()[i + 1])
                              : std::make_pair(std::size_t{0}, std::size_t{0});
        };
        const la::SparseMatrix& ls = subspace_lap[k];
        const la::SparseMatrix& le = knn_lap[k];
        auto [s, s_end] = row(ls);
        auto [p, p_end] = row(le);
        // Each sum starts from +0.0, so a zero alpha·L_S term adds
        // nothing: alpha·L_S counts only where it is nonzero.
        constexpr std::size_t kDone = std::numeric_limits<std::size_t>::max();
        while (s < s_end || p < p_end) {
          const std::size_t js = s < s_end ? ls.col_indices()[s] : kDone;
          const std::size_t je = p < p_end ? le.col_indices()[p] : kDone;
          const std::size_t j = std::min(js, je);
          double sum = 0.0;
          if (js == j) sum += alpha * ls.values()[s++];
          if (je == j) sum += le.values()[p++];
          if (sum != 0.0) put(off + j, sum);
        }
      });
}

Status EnsembleOptions::Validate() const {
  if (!include_subspace && !include_knn) {
    return Status::InvalidArgument(
        "ensemble needs at least one member (subspace or pNN)");
  }
  if (!(alpha >= 0.0)) {  // Negated so that NaN fails too.
    return Status::InvalidArgument("ensemble alpha must be nonnegative");
  }
  RHCHME_RETURN_IF_ERROR(knn.Validate());
  return subspace.Validate();
}

Result<HeterogeneousEnsemble> BuildEnsemble(
    const data::MultiTypeRelationalData& data,
    const fact::BlockStructure& blocks, const EnsembleOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());

  const std::size_t num_types = data.NumTypes();
  for (std::size_t k = 0; k < num_types; ++k) {
    if (data.Type(k).features.empty()) {
      return Status::FailedPrecondition(
          "type '" + data.Type(k).name +
          "' has no features; intra-type relationships cannot be learned");
    }
  }

  HeterogeneousEnsemble out;
  out.alpha = opts.alpha;
  out.subspace_affinity.resize(num_types);
  out.knn_affinity.resize(num_types);
  if (opts.include_subspace) {
    out.subspace_iterations.assign(num_types, 0);
    out.subspace_stop.assign(num_types, StopReason::kMaxIterations);
  }

  // One candidate manifold per member: every (type, member) pair learns
  // its affinity independently.
  // Stochastic members (subspace init, NN-descent backend) draw seeds
  // from DeriveStreamSeed(seed, type), fixed before dispatch, so the
  // ensemble is reproducible for any schedule or pool size. Tasks write
  // only their own slots; the assembly after them reads those slots.
  std::vector<MemberTask> tasks;
  tasks.reserve(2 * num_types);
  for (std::size_t k = 0; k < num_types; ++k) {
    if (opts.include_subspace) tasks.push_back({k, true});
    if (opts.include_knn) tasks.push_back({k, false});
  }
  std::vector<Status> task_status(tasks.size());

  // Non-finite feature entries (kNonFinite row corruption, bad upstream
  // data) would propagate through every distance and subspace iterate
  // into the whole joint Laplacian. Affected types work on a zero-filled
  // local copy; the clean common case pays only the finiteness scan and
  // shares the caller's matrices untouched.
  std::vector<la::Matrix> sanitized(num_types);
  std::vector<std::size_t> feature_nnz(num_types, 0);
  for (std::size_t k = 0; k < num_types; ++k) {
    const la::Matrix& features = data.Type(k).features;
    if (!features.AllFinite()) {
      sanitized[k] = features;
      sanitized[k].ReplaceNonFinite(0.0);
    }
    if (opts.include_subspace) {
      feature_nnz[k] =
          (sanitized[k].empty() ? features : sanitized[k]).NonZeros();
    }
  }

  auto build_member = [&](std::size_t t) {
    const MemberTask& task = tasks[t];
    const la::Matrix& features = sanitized[task.type].empty()
                                     ? data.Type(task.type).features
                                     : sanitized[task.type];
    if (task.subspace) {
      SubspaceOptions sub = opts.subspace;
      // Per-type stream keeps the W initialisations independent.
      sub.seed = DeriveStreamSeed(opts.subspace.seed, task.type);
      Result<SubspaceResult> learned =
          LearnSubspaceAffinity(features, sub);
      if (!learned.ok()) {
        task_status[t] = learned.status();
        return;
      }
      out.subspace_iterations[task.type] = learned.value().iterations;
      out.subspace_stop[task.type] = learned.value().stop;
      out.subspace_affinity[task.type] = std::move(learned).value().affinity;
    } else {
      graph::KnnGraphOptions knn_opts = opts.knn;
      // Per-type stream for the NN-descent backend's random init, fixed
      // before dispatch like the subspace seed above (no-op for exact).
      knn_opts.descent.seed =
          DeriveStreamSeed(opts.knn.descent.seed, task.type);
      Result<la::SparseMatrix> knn =
          graph::BuildKnnGraph(features, knn_opts);
      if (!knn.ok()) {
        task_status[t] = knn.status();
        return;
      }
      out.knn_affinity[task.type] = std::move(knn).value();
    }
  };

  // Schedule: nested regions run inline, so a member in the task fan-out
  // runs its kernels on one thread, while a member on the caller has the
  // whole pool. PlanMemberSchedule picks the split from the member shapes
  // and the pool size. Each member is bit-identical for any pool size, so
  // the schedule never changes the ensemble.
  std::vector<MemberShape> shapes;
  shapes.reserve(tasks.size());
  for (const MemberTask& task : tasks) {
    const la::Matrix& features = data.Type(task.type).features;
    shapes.push_back({features.rows(), features.cols(), task.subspace,
                      feature_nnz[task.type]});
  }
  const std::vector<bool> plan = PlanMemberSchedule(
      shapes, opts.subspace.spg.max_iterations,
      static_cast<std::size_t>(util::NumThreads()));
  std::vector<std::size_t> fan_out, on_caller;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    (plan[t] ? on_caller : fan_out).push_back(t);
  }
  RunTasks(fan_out.size(), [&](std::size_t i) { build_member(fan_out[i]); });
  for (std::size_t t : on_caller) build_member(t);

  for (const Status& status : task_status) {
    if (!status.ok()) return status;
  }

  RHCHME_RETURN_IF_ERROR(AssembleEnsemble(blocks, &out));
  return out;
}

Result<HeterogeneousEnsemble> ReweightEnsemble(
    const HeterogeneousEnsemble& base, const fact::BlockStructure& blocks,
    double alpha) {
  if (!(alpha >= 0.0)) {  // Negated so that NaN fails too.
    return Status::InvalidArgument("ensemble alpha must be nonnegative");
  }
  if (base.subspace_affinity.size() != blocks.num_types() ||
      base.knn_affinity.size() != blocks.num_types()) {
    return Status::InvalidArgument(
        "ensemble members do not match the block structure");
  }
  // Every field but the joint Laplacian, which the tail rebuilds.
  HeterogeneousEnsemble out;
  out.subspace_affinity = base.subspace_affinity;
  out.knn_affinity = base.knn_affinity;
  out.subspace_iterations = base.subspace_iterations;
  out.subspace_stop = base.subspace_stop;
  out.alpha = alpha;
  RHCHME_RETURN_IF_ERROR(AssembleEnsemble(blocks, &out));
  return out;
}

}  // namespace core
}  // namespace rhchme
