#include "data/corruption.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rhchme {
namespace data {

Status RowCorruptionOptions::Validate() const {
  if (!(row_fraction >= 0.0 && row_fraction <= 1.0)) {
    return Status::InvalidArgument("row_fraction must be in [0,1]");
  }
  if (!(entry_fraction >= 0.0 && entry_fraction <= 1.0)) {
    return Status::InvalidArgument("entry_fraction must be in [0,1]");
  }
  if (!(magnitude >= 0.0) || !std::isfinite(magnitude)) {
    return Status::InvalidArgument("magnitude must be finite and >= 0");
  }
  return Status::OK();
}

std::vector<std::size_t> CorruptRows(la::Matrix* m,
                                     const RowCorruptionOptions& opts,
                                     Rng* rng) {
  const Status valid = opts.Validate();
  RHCHME_CHECK(valid.ok(), valid.message().c_str());
  const std::size_t n = m->rows();
  const auto n_corrupt = static_cast<std::size_t>(
      opts.row_fraction * static_cast<double>(n) + 0.5);
  if (n_corrupt == 0) return {};

  // Scale spikes to the data's own magnitude. Row-wise: flat data()
  // indexing would walk into the stride padding.
  double pos_sum = 0.0;
  std::size_t pos_cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* r = m->row_ptr(i);
    for (std::size_t j = 0; j < m->cols(); ++j) {
      if (r[j] > 0.0) {
        pos_sum += r[j];
        ++pos_cnt;
      }
    }
  }
  const double mean_pos = pos_cnt > 0 ? pos_sum / static_cast<double>(pos_cnt)
                                      : 1.0;
  const double spike = opts.magnitude * mean_pos;

  std::vector<std::size_t> rows = rng->SampleWithoutReplacement(n, n_corrupt);
  std::sort(rows.begin(), rows.end());
  for (std::size_t i : rows) {
    double* r = m->row_ptr(i);
    for (std::size_t j = 0; j < m->cols(); ++j) {
      if (rng->Uniform() < opts.entry_fraction) {
        // Both payloads draw exactly one extra Uniform per hit entry, so
        // the sequence of selected entries is mode-independent; kSpike is
        // byte-identical to the pre-kNonFinite behaviour.
        if (opts.mode == RowCorruptionMode::kNonFinite) {
          r[j] = rng->Uniform() < 0.5
                     ? std::numeric_limits<double>::quiet_NaN()
                     : std::numeric_limits<double>::infinity();
        } else {
          r[j] += spike * rng->Uniform();
        }
      }
    }
  }
  return rows;
}

void DropEntries(la::Matrix* m, double prob, Rng* rng) {
  RHCHME_CHECK(prob >= 0.0 && prob <= 1.0, "drop probability must be in [0,1]");
  if (prob == 0.0) return;
  for (std::size_t i = 0; i < m->rows(); ++i) {
    double* r = m->row_ptr(i);
    for (std::size_t j = 0; j < m->cols(); ++j) {
      if (rng->Uniform() < prob) r[j] = 0.0;
    }
  }
}

}  // namespace data
}  // namespace rhchme
