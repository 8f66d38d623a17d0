// External clustering-quality metrics (paper §IV.C).
//
// FScore follows Eq. 38 exactly (class-weighted best F-measure over
// clusters); NMI uses the standard sqrt-entropy normalisation
// I(C;L)/sqrt(H(C)·H(L)) of Strehl & Ghosh. The paper's printed Eq. 39
// omits the square root; without it the ratio depends on the logarithm
// base and is not bounded by 1, with it NMI lies in [0, 1]. Purity and
// Adjusted Rand Index are included as additional diagnostics.

#ifndef RHCHME_EVAL_METRICS_H_
#define RHCHME_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace rhchme {
namespace eval {

/// Counts n_jl of objects in true class j and predicted cluster l.
/// Labels need not be contiguous; they are compacted internally.
class ContingencyTable {
 public:
  /// Requires equal, nonzero lengths.
  static Result<ContingencyTable> Build(
      const std::vector<std::size_t>& truth,
      const std::vector<std::size_t>& predicted);

  std::size_t num_classes() const { return class_sizes_.size(); }
  std::size_t num_clusters() const { return cluster_sizes_.size(); }
  std::size_t total() const { return total_; }
  std::size_t class_size(std::size_t j) const { return class_sizes_[j]; }
  std::size_t cluster_size(std::size_t l) const { return cluster_sizes_[l]; }
  std::size_t joint(std::size_t j, std::size_t l) const {
    return counts_[j * cluster_sizes_.size() + l];
  }

 private:
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> class_sizes_;
  std::vector<std::size_t> cluster_sizes_;
  std::size_t total_ = 0;
};

/// FScore of Eq. 38 in [0, 1]; 1 iff the partition matches the classes.
Result<double> FScore(const std::vector<std::size_t>& truth,
                      const std::vector<std::size_t>& predicted);

/// Normalised mutual information in [0, 1]. When one side has a single
/// block (zero entropy), returns 1 if the partitions are identical as
/// partitions, else 0.
Result<double> Nmi(const std::vector<std::size_t>& truth,
                   const std::vector<std::size_t>& predicted);

/// Fraction of objects in their cluster's majority class.
Result<double> Purity(const std::vector<std::size_t>& truth,
                      const std::vector<std::size_t>& predicted);

/// Adjusted Rand Index in [-1, 1]; 0 expected for random partitions.
Result<double> AdjustedRandIndex(const std::vector<std::size_t>& truth,
                                 const std::vector<std::size_t>& predicted);

}  // namespace eval
}  // namespace rhchme

#endif  // RHCHME_EVAL_METRICS_H_
