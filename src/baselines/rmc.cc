#include "baselines/rmc.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "baselines/core_options.h"
#include "core/ensemble.h"

namespace rhchme {
namespace baselines {

namespace {

/// The union of the candidates' CSR patterns, with zero values, and for
/// each candidate the position of each of its entries in it.
la::SparseMatrix UnionPattern(const std::vector<la::SparseMatrix>& lap,
                              std::vector<std::vector<std::size_t>>* slot) {
  const std::size_t n = lap.front().rows();
  std::vector<la::Triplet> trips;
  for (const la::SparseMatrix& l : lap) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = l.row_offsets()[i]; k < l.row_offsets()[i + 1];
           ++k) {
        trips.push_back({i, l.col_indices()[k], 1.0});
      }
    }
  }
  // Duplicates sum to a positive count, so no entry is pruned.
  la::SparseMatrix pattern =
      la::SparseMatrix::FromTriplets(n, n, std::move(trips));
  pattern.Scale(0.0);
  const std::vector<std::size_t>& offsets = pattern.row_offsets();
  const std::vector<std::size_t>& cols = pattern.col_indices();
  slot->assign(lap.size(), {});
  for (std::size_t q = 0; q < lap.size(); ++q) {
    const std::vector<std::size_t>& lo = lap[q].row_offsets();
    const std::vector<std::size_t>& lc = lap[q].col_indices();
    std::vector<std::size_t>& out = (*slot)[q];
    out.resize(lap[q].nnz());
    for (std::size_t i = 0; i < n; ++i) {
      const auto first = cols.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
      const auto last =
          cols.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]);
      for (std::size_t k = lo[i]; k < lo[i + 1]; ++k) {
        out[k] = static_cast<std::size_t>(
            std::lower_bound(first, last, lc[k]) - cols.begin());
      }
    }
  }
  return pattern;
}

/// L = Σ_i beta_i·L̂_i on the union pattern: each entry sums its
/// candidates' terms in candidate order from zero, skipping zero weights.
void MixCandidates(const std::vector<la::SparseMatrix>& lap,
                   const std::vector<std::vector<std::size_t>>& slot,
                   const std::vector<double>& beta,
                   std::vector<double>* values) {
  std::fill(values->begin(), values->end(), 0.0);
  for (std::size_t q = 0; q < lap.size(); ++q) {
    if (!(beta[q] > 0.0)) continue;
    const std::vector<double>& lv = lap[q].values();
    for (std::size_t k = 0; k < lv.size(); ++k) {
      (*values)[slot[q][k]] += beta[q] * lv[k];
    }
  }
}

/// The weight step: argmin over the simplex of
/// Σ_i beta_i·tr(GᵀL̂_iG) + mu·||beta||², i.e.
/// beta = Proj_simplex(−traces / (2·mu)).
std::vector<double> CandidateWeights(const std::vector<la::SparseMatrix>& lap,
                                     const la::Matrix& g, double opt_mu) {
  const std::size_t q = lap.size();
  std::vector<double> traces(q);
  for (std::size_t i = 0; i < q; ++i) traces[i] = la::Sandwich(g, lap[i]);
  double mu = opt_mu;
  if (mu <= 0.0) {
    // Auto scale: comparable to the trace magnitudes, so weights spread
    // over several candidates instead of collapsing onto one.
    double mean = 0.0;
    for (double v : traces) mean += std::fabs(v);
    mu = std::max(mean / static_cast<double>(q), 1e-12);
  }
  std::vector<double> target(q);
  for (std::size_t i = 0; i < q; ++i) target[i] = -traces[i] / (2.0 * mu);
  return ProjectOntoSimplex(std::move(target));
}

}  // namespace

Status RmcOptions::Validate() const {
  if (std::isnan(mu)) return Status::InvalidArgument("mu must not be NaN");
  for (const auto& c : candidates) RHCHME_RETURN_IF_ERROR(c.Validate());
  return internal::CoreOptions(*this, lambda).Validate();
}

std::vector<graph::KnnGraphOptions> DefaultRmcCandidates() {
  std::vector<graph::KnnGraphOptions> out;
  for (std::size_t p : {std::size_t{5}, std::size_t{10}}) {
    for (graph::WeightScheme scheme :
         {graph::WeightScheme::kBinary, graph::WeightScheme::kHeatKernel,
          graph::WeightScheme::kCosine}) {
      graph::KnnGraphOptions o;
      o.p = p;
      o.scheme = scheme;
      out.push_back(o);
    }
  }
  return out;
}

std::vector<double> ProjectOntoSimplex(std::vector<double> v) {
  // Duchi et al. (ICML 2008): sort descending, find the threshold rho.
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumsum = 0.0;
  double theta = 0.0;
  std::size_t rho = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    const double t = (cumsum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) {
      rho = i + 1;
      theta = t;
    }
  }
  if (rho == 0) {
    // Degenerate input; fall back to uniform.
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(v.size()));
    return v;
  }
  for (double& x : v) x = std::max(0.0, x - theta);
  return v;
}

Result<RmcResult> RunRmc(const data::MultiTypeRelationalData& data,
                         const RmcOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());
  Stopwatch watch;

  // Pre-build all candidate Laplacians, each a pNN-only ensemble (this is
  // RMC's extra cost that Table V attributes to it).
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  const std::vector<graph::KnnGraphOptions> candidates =
      opts.candidates.empty() ? DefaultRmcCandidates() : opts.candidates;
  const std::size_t q = candidates.size();
  std::vector<la::SparseMatrix> lap(q);
  for (std::size_t i = 0; i < q; ++i) {
    core::EnsembleOptions member;
    member.include_subspace = false;
    member.knn = candidates[i];
    member.laplacian = opts.laplacian;
    Result<core::HeterogeneousEnsemble> e =
        core::BuildEnsemble(data, blocks, member);
    if (!e.ok()) return e.status();
    lap[i] = std::move(e).value().laplacian;
  }

  // Each iteration re-weights the candidates against the accepted G and
  // runs on their mix, written by the hook onto the union pattern before
  // the iteration's update.
  std::vector<std::vector<std::size_t>> slot;
  core::HeterogeneousEnsemble mix;
  mix.laplacian = UnionPattern(lap, &slot);
  std::vector<double> beta(q, 1.0 / static_cast<double>(q));
  core::Rhchme solver(internal::CoreOptions(opts, opts.lambda));
  solver.SetLaplacianHook(
      [&](int, const la::Matrix& g, std::vector<double>* values) {
        beta = CandidateWeights(lap, g, opts.mu);
        MixCandidates(lap, slot, beta, values);
      });
  Result<fact::HoccResult> fit =
      internal::BaselineResult(solver.FitWithEnsemble(data, mix), watch);
  if (!fit.ok()) return fit.status();
  RmcResult out;
  out.hocc = std::move(fit).value();
  out.candidate_weights = std::move(beta);
  return out;
}

}  // namespace baselines
}  // namespace rhchme
