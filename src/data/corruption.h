// Noise and corruption injection.
//
// The robustness experiments corrupt a fraction of data rows (sample-wise,
// matching the L2,1 error model of paper Eq. 13/14) or drop entries
// (missing observations). All functions mutate in place and are
// deterministic given the Rng.

#ifndef RHCHME_DATA_CORRUPTION_H_
#define RHCHME_DATA_CORRUPTION_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace data {

/// What a corrupted entry becomes. kSpike is the paper's gross-error
/// model; kNonFinite plants NaN/±Inf — the "upstream pipeline broke"
/// failure mode the solver's numerical guards must absorb.
enum class RowCorruptionMode {
  kSpike,
  kNonFinite,
};

struct RowCorruptionOptions {
  /// Fraction of rows to corrupt, in [0, 1].
  double row_fraction = 0.1;
  /// Spike magnitude relative to the matrix's mean positive entry.
  double magnitude = 3.0;
  /// Fraction of entries within a corrupted row that receive a spike.
  double entry_fraction = 0.5;
  /// Entry payload (spikes by default; magnitude is ignored for
  /// kNonFinite). The kSpike draw sequence is unchanged by this field, so
  /// existing seeded experiments reproduce exactly.
  RowCorruptionMode mode = RowCorruptionMode::kSpike;

  /// InvalidArgument when either fraction leaves [0, 1], or on a
  /// negative/non-finite magnitude (negative spikes would break the
  /// nonnegativity every relationship matrix must keep).
  Status Validate() const;
};

/// Corrupts a random subset of rows with positive uniform spikes; returns
/// the corrupted row indices (useful for asserting that E_R localises the
/// damage).
std::vector<std::size_t> CorruptRows(la::Matrix* m,
                                     const RowCorruptionOptions& opts,
                                     Rng* rng);

/// Zeroes each entry independently with probability `prob` — relation
/// sparsification (missing observations) for the robustness scenario
/// grids. Requires prob in [0, 1].
void DropEntries(la::Matrix* m, double prob, Rng* rng);

}  // namespace data
}  // namespace rhchme

#endif  // RHCHME_DATA_CORRUPTION_H_
