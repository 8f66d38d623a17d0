#include "data/multitype_data.h"

#include <algorithm>
#include <string>

#include "util/parallel.h"

namespace rhchme {
namespace data {

std::size_t MultiTypeRelationalData::AddType(ObjectType type) {
  types_.push_back(std::move(type));
  return types_.size() - 1;
}

Status MultiTypeRelationalData::SetRelation(std::size_t k, std::size_t l,
                                            la::Matrix r) {
  if (k >= types_.size() || l >= types_.size()) {
    return Status::InvalidArgument("SetRelation: type index out of range");
  }
  if (k == l) {
    return Status::InvalidArgument(
        "SetRelation: diagonal blocks of R are zero by definition; intra-type "
        "relationships are learned, not provided");
  }
  if (r.rows() != types_[k].count || r.cols() != types_[l].count) {
    return Status::InvalidArgument("SetRelation: block shape mismatch");
  }
  if (k < l) {
    relations_[{k, l}] = std::move(r);
  } else {
    relations_[{l, k}] = r.Transposed();
  }
  return Status::OK();
}

const ObjectType& MultiTypeRelationalData::Type(std::size_t k) const {
  RHCHME_CHECK(k < types_.size(), "type index out of range");
  return types_[k];
}

ObjectType& MultiTypeRelationalData::MutableType(std::size_t k) {
  RHCHME_CHECK(k < types_.size(), "type index out of range");
  return types_[k];
}

bool MultiTypeRelationalData::HasRelation(std::size_t k, std::size_t l) const {
  if (k == l) return false;
  return relations_.count({std::min(k, l), std::max(k, l)}) > 0;
}

const la::Matrix& MultiTypeRelationalData::Relation(std::size_t k,
                                                    std::size_t l) const {
  RHCHME_CHECK(HasRelation(k, l), "relation not set");
  RHCHME_CHECK(k < l, "Relation(k, l) requires the stored orientation k < l");
  return relations_.at({k, l});
}

std::size_t MultiTypeRelationalData::TotalObjects() const {
  std::size_t n = 0;
  for (const auto& t : types_) n += t.count;
  return n;
}

std::size_t MultiTypeRelationalData::TotalClusters() const {
  std::size_t c = 0;
  for (const auto& t : types_) c += t.clusters;
  return c;
}

std::size_t MultiTypeRelationalData::TypeOffset(std::size_t k) const {
  RHCHME_CHECK(k < types_.size(), "type index out of range");
  std::size_t off = 0;
  for (std::size_t i = 0; i < k; ++i) off += types_[i].count;
  return off;
}

std::size_t MultiTypeRelationalData::ClusterOffset(std::size_t k) const {
  RHCHME_CHECK(k < types_.size(), "type index out of range");
  std::size_t off = 0;
  for (std::size_t i = 0; i < k; ++i) off += types_[i].clusters;
  return off;
}

la::Matrix MultiTypeRelationalData::BuildJointR() const {
  const std::size_t n = TotalObjects();
  la::Matrix r(n, n);
  for (const auto& [key, block] : relations_) {
    const std::size_t rk = TypeOffset(key.first);
    const std::size_t cl = TypeOffset(key.second);
    r.SetBlock(rk, cl, block);
    r.SetBlock(cl, rk, block.Transposed());
  }
  return r;
}

la::SparseMatrix MultiTypeRelationalData::BuildJointRSparse() const {
  const std::size_t num_types = types_.size();
  std::vector<std::size_t> offset(num_types + 1, 0);
  for (std::size_t k = 0; k < num_types; ++k) {
    offset[k + 1] = offset[k] + types_[k].count;
  }
  const std::size_t n = offset[num_types];

  // A row of type a takes its entries from the blocks (a, b), b != a.
  // Visiting b in offset order makes the columns arrive ascending: the
  // stored block is read along row i when a < b, and down column i of the
  // stored (b, a) block when a > b (the mirrored half). No triplets, no
  // sort.
  struct Source {
    const la::Matrix* block;
    bool by_column;
    std::size_t col0;
  };
  std::vector<std::vector<Source>> sources(num_types);
  for (std::size_t a = 0; a < num_types; ++a) {
    for (std::size_t b = 0; b < num_types; ++b) {
      if (a == b) continue;
      const auto it = relations_.find({std::min(a, b), std::max(a, b)});
      if (it != relations_.end()) {
        sources[a].push_back({&it->second, a > b, offset[b]});
      }
    }
  }
  // Calls fn(col, value) for every stored entry of local row i of type a,
  // in ascending column order. Exact zeros are dropped; NaN/Inf are kept
  // (the solver counts and zeroes them).
  auto for_each_entry = [&](std::size_t a, std::size_t i, auto&& fn) {
    for (const Source& src : sources[a]) {
      const la::Matrix& m = *src.block;
      if (src.by_column) {
        for (std::size_t j = 0; j < m.rows(); ++j) {
          const double v = m(j, i);
          if (v != 0.0) fn(src.col0 + j, v);
        }
      } else {
        const double* row = m.row_ptr(i);
        for (std::size_t j = 0; j < m.cols(); ++j) {
          if (row[j] != 0.0) fn(src.col0 + j, row[j]);
        }
      }
    }
  };

  // Count pass, then fill pass, both row-parallel; each row writes only
  // its own slots, so the arrays are identical for any pool size.
  std::vector<std::size_t> row_offsets(n + 1, 0);
  const std::size_t grain = util::GrainForWork(n + 1);
  for (std::size_t a = 0; a < num_types; ++a) {
    util::ParallelFor(0, types_[a].count, grain,
                      [&](std::size_t r0, std::size_t r1) {
                        for (std::size_t i = r0; i < r1; ++i) {
                          std::size_t count = 0;
                          for_each_entry(a, i, [&](std::size_t, double) {
                            ++count;
                          });
                          row_offsets[offset[a] + i + 1] = count;
                        }
                      });
  }
  for (std::size_t i = 0; i < n; ++i) row_offsets[i + 1] += row_offsets[i];
  std::vector<std::size_t> cols(row_offsets[n]);
  std::vector<double> vals(row_offsets[n]);
  for (std::size_t a = 0; a < num_types; ++a) {
    util::ParallelFor(0, types_[a].count, grain,
                      [&](std::size_t r0, std::size_t r1) {
                        for (std::size_t i = r0; i < r1; ++i) {
                          std::size_t pos = row_offsets[offset[a] + i];
                          for_each_entry(a, i, [&](std::size_t col, double v) {
                            cols[pos] = col;
                            vals[pos] = v;
                            ++pos;
                          });
                        }
                      });
  }
  return la::SparseMatrix::FromCsr(n, n, std::move(row_offsets),
                                   std::move(cols), std::move(vals))
      .value();
}

double MultiTypeRelationalData::JointRDensity() const {
  const std::size_t n = TotalObjects();
  if (n == 0) return 0.0;
  std::size_t nnz = 0;
  for (const auto& [key, block] : relations_) {
    for (std::size_t i = 0; i < block.rows(); ++i) {
      const double* row = block.row_ptr(i);
      for (std::size_t j = 0; j < block.cols(); ++j) {
        if (row[j] != 0.0) ++nnz;
      }
    }
  }
  // Each stored entry appears in both the (k, l) and the mirrored (l, k)
  // block of the joint matrix.
  return static_cast<double>(2 * nnz) /
         (static_cast<double>(n) * static_cast<double>(n));
}

std::vector<std::size_t> MultiTypeRelationalData::JointLabels() const {
  std::vector<std::size_t> joint;
  for (const auto& t : types_) {
    if (t.labels.size() != t.count) return {};
    joint.insert(joint.end(), t.labels.begin(), t.labels.end());
  }
  return joint;
}

Status MultiTypeRelationalData::Validate() const {
  if (types_.empty()) {
    return Status::InvalidArgument("data has no object types");
  }
  for (std::size_t k = 0; k < types_.size(); ++k) {
    const auto& t = types_[k];
    if (t.count == 0) {
      return Status::InvalidArgument("type '" + t.name + "' has no objects");
    }
    if (t.clusters == 0 || t.clusters > t.count) {
      return Status::InvalidArgument("type '" + t.name +
                                     "' has invalid cluster count");
    }
    if (!t.features.empty() && t.features.rows() != t.count) {
      return Status::InvalidArgument("type '" + t.name +
                                     "' feature rows != object count");
    }
    if (!t.labels.empty() && t.labels.size() != t.count) {
      return Status::InvalidArgument("type '" + t.name +
                                     "' label count != object count");
    }
    bool has_any = false;
    for (std::size_t l = 0; l < types_.size() && !has_any; ++l) {
      has_any = HasRelation(k, l);
    }
    if (!has_any) {
      return Status::InvalidArgument(
          "type '" + t.name +
          "' participates in no inter-type relation; it cannot be co-clustered");
    }
  }
  return Status::OK();
}

}  // namespace data
}  // namespace rhchme
