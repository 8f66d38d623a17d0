#include "eval/knn_recall.h"

#include <algorithm>
#include <vector>

namespace rhchme {
namespace eval {

Result<double> KnnRecall(const graph::KnnNeighborLists& approx,
                         const graph::KnnNeighborLists& exact) {
  if (approx.size() != exact.size()) {
    return Status::InvalidArgument("recall needs equally many lists");
  }
  std::size_t hits = 0, total = 0;
  std::vector<std::size_t> truth;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    truth.clear();
    for (const graph::KnnNeighbor& e : exact[i]) truth.push_back(e.index);
    std::sort(truth.begin(), truth.end());
    total += truth.size();
    for (const graph::KnnNeighbor& e : approx[i]) {
      if (std::binary_search(truth.begin(), truth.end(), e.index)) ++hits;
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

Result<double> RecallAgainstExact(const la::Matrix& points,
                                  const graph::KnnGraphOptions& opts) {
  Result<graph::KnnNeighborLists> approx =
      graph::BuildKnnNeighbors(points, opts);
  if (!approx.ok()) return approx.status();
  const std::size_t p =
      std::min(opts.p, points.rows() > 0 ? points.rows() - 1 : 0);
  graph::KnnNeighborLists exact = graph::ExactKnnNeighbors(points, p);
  return KnnRecall(approx.value(), exact);
}

}  // namespace eval
}  // namespace rhchme
