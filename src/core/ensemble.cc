#include "core/ensemble.h"

#include <utility>

#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

/// One ensemble-member construction unit: learn the affinity of member
/// (`type`, subspace-or-pNN) and its Laplacian. Members are mutually
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

/// Assembles the joint sparse Laplacian alpha·L_S + L_E from per-type
/// member Laplacians (dense L_S blocks, sparse L_E blocks; either may be
/// empty). Blocks land at their type offsets; overlapping (i, j) entries
/// of the two members are summed by FromTriplets (two addends —
/// order-insensitive), so the assembly is deterministic.
la::SparseMatrix AssembleJointLaplacian(
    const fact::BlockStructure& blocks,
    const std::vector<la::Matrix>& subspace_lap,
    const std::vector<la::SparseMatrix>& knn_lap, double alpha) {
  std::vector<la::Triplet> trips;
  std::size_t nnz_bound = 0;
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    nnz_bound += subspace_lap[k].size() + knn_lap[k].nnz();
  }
  trips.reserve(nnz_bound);
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    const std::size_t off = blocks.type_offset[k];
    const la::Matrix& ls = subspace_lap[k];
    for (std::size_t i = 0; i < ls.rows(); ++i) {
      const double* row = ls.row_ptr(i);
      for (std::size_t j = 0; j < ls.cols(); ++j) {
        const double v = alpha * row[j];
        if (v != 0.0) trips.push_back({off + i, off + j, v});
      }
    }
    const la::SparseMatrix& le = knn_lap[k];
    const auto& offsets = le.row_offsets();
    const auto& cols = le.col_indices();
    const auto& vals = le.values();
    for (std::size_t i = 0; i < le.rows(); ++i) {
      for (std::size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
        trips.push_back({off + i, off + cols[p], vals[p]});
      }
    }
  }
  return la::SparseMatrix::FromTriplets(
      blocks.total_objects(), blocks.total_objects(), std::move(trips));
}

}  // namespace

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

  // One candidate manifold per member: every (type, member) pair learns
  // its affinity and Laplacian independently.
  // Stochastic members (subspace init, NN-descent backend) draw seeds
  // from DeriveStreamSeed(seed, type), fixed before dispatch, so the
  // ensemble is reproducible for any schedule or pool size. Tasks write
  // only their own slots; assembly stays serial.
  std::vector<MemberTask> tasks;
  tasks.reserve(2 * num_types);
  for (std::size_t k = 0; k < num_types; ++k) {
    if (opts.include_subspace) tasks.push_back({k, true});
    if (opts.include_knn) tasks.push_back({k, false});
  }
  std::vector<la::Matrix> subspace_lap(num_types);
  std::vector<la::SparseMatrix> knn_lap(num_types);
  std::vector<Status> task_status(tasks.size());

  // Non-finite feature entries (kNonFinite row corruption, bad upstream
  // data) would propagate through every distance and subspace iterate
  // into the whole joint Laplacian. Affected types work on a zero-filled
  // local copy; the clean common case pays only the finiteness scan and
  // shares the caller's matrices untouched.
  std::vector<la::Matrix> sanitized(num_types);
  for (std::size_t k = 0; k < num_types; ++k) {
    const la::Matrix& features = data.Type(k).features;
    if (!features.AllFinite()) {
      sanitized[k] = features;
      sanitized[k].ReplaceNonFinite(0.0);
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
      out.subspace_affinity[task.type] = std::move(learned).value().affinity;
      Result<la::Matrix> lap =
          graph::BuildLaplacian(out.subspace_affinity[task.type],
                                opts.laplacian);
      if (!lap.ok()) {
        task_status[t] = lap.status();
        return;
      }
      subspace_lap[task.type] = std::move(lap).value();
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
      Result<la::SparseMatrix> lap = graph::BuildSparseLaplacian(
          out.knn_affinity[task.type], opts.laplacian);
      if (!lap.ok()) {
        task_status[t] = lap.status();
        return;
      }
      knn_lap[task.type] = std::move(lap).value();
    }
  };

  // Schedule: nested regions run inline, so a member in the task fan-out
  // runs its kernels on one thread. A subspace member whose SPG passes
  // split into at least NumThreads() row chunks is big enough to use the
  // whole pool by itself, so those run on the caller one after another;
  // smaller subspace members and every pNN member fan out one per task.
  // Each member is bit-identical for any pool size, so the schedule never
  // changes the ensemble.
  const auto pool = static_cast<std::size_t>(util::NumThreads());
  std::vector<std::size_t> fan_out, on_caller;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const bool large =
        tasks[t].subspace &&
        SpgRowChunks(data.Type(tasks[t].type).features.rows()) >= pool;
    (large ? on_caller : fan_out).push_back(t);
  }
  RunTasks(fan_out.size(), [&](std::size_t i) { build_member(fan_out[i]); });
  for (std::size_t t : on_caller) build_member(t);

  for (const Status& status : task_status) {
    if (!status.ok()) return status;
  }

  out.laplacian =
      AssembleJointLaplacian(blocks, subspace_lap, knn_lap, opts.alpha);
  return out;
}

Result<HeterogeneousEnsemble> ReweightEnsemble(
    const HeterogeneousEnsemble& base, const fact::BlockStructure& blocks,
    double alpha, graph::LaplacianKind kind) {
  if (!(alpha >= 0.0)) {  // Negated so that NaN fails too.
    return Status::InvalidArgument("ensemble alpha must be nonnegative");
  }
  if (base.subspace_affinity.size() != blocks.num_types() ||
      base.knn_affinity.size() != blocks.num_types()) {
    return Status::InvalidArgument(
        "ensemble members do not match the block structure");
  }
  HeterogeneousEnsemble out = base;
  out.alpha = alpha;
  // Laplacian rebuilds are per-type independent; tasks fill their own
  // member slots, then the joint sparse Laplacian is assembled serially
  // in type order.
  std::vector<la::Matrix> subspace_lap(blocks.num_types());
  std::vector<la::SparseMatrix> knn_lap(blocks.num_types());
  std::vector<Status> task_status(blocks.num_types());
  RunTasks(blocks.num_types(), [&](std::size_t k) {
    if (!base.subspace_affinity[k].empty()) {
      Result<la::Matrix> lap =
          graph::BuildLaplacian(base.subspace_affinity[k], kind);
      if (!lap.ok()) {
        task_status[k] = lap.status();
        return;
      }
      subspace_lap[k] = std::move(lap).value();
    }
    if (base.knn_affinity[k].nnz() > 0) {
      Result<la::SparseMatrix> lap =
          graph::BuildSparseLaplacian(base.knn_affinity[k], kind);
      if (!lap.ok()) {
        task_status[k] = lap.status();
        return;
      }
      knn_lap[k] = std::move(lap).value();
    }
  });
  for (const Status& status : task_status) {
    if (!status.ok()) return status;
  }
  out.laplacian = AssembleJointLaplacian(blocks, subspace_lap, knn_lap, alpha);
  return out;
}

}  // namespace core
}  // namespace rhchme
