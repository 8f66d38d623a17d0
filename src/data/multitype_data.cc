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
  // Visiting b in offset order makes the columns arrive ascending. The
  // stored block is read along row i when a < b. When a > b, row i is
  // column i of the stored (b, a) block (the mirrored half), read along
  // that block's rows one column range at a time. No triplets, no sort.
  struct Source {
    const la::Matrix* block;
    bool mirrored;
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
  // Calls fn(lo, hi, src, block_row0) for each source of the rows [r0, r1)
  // that lie in one type, in offset order; the rows' local indices in
  // their type start at block_row0.
  auto for_each_source = [&](std::size_t r0, std::size_t r1, auto&& fn) {
    for (std::size_t a = 0; a < num_types; ++a) {
      const std::size_t lo = std::max(r0, offset[a]);
      const std::size_t hi = std::min(r1, offset[a + 1]);
      if (lo >= hi) continue;
      for (const Source& src : sources[a]) fn(lo, hi, src, lo - offset[a]);
    }
  };
  // Exact zeros are dropped; NaN/Inf are kept (the solver counts and
  // zeroes them).
  return la::SparseMatrix::FromRowRanges(
      n, n, std::max<std::size_t>(64, util::GrainForWork(n + 1)),
      [&](std::size_t r0, std::size_t r1, std::size_t* count) {
        for_each_source(r0, r1, [&](std::size_t lo, std::size_t hi,
                                    const Source& src, std::size_t l0) {
          const la::Matrix& m = *src.block;
          if (src.mirrored) {
            for (std::size_t j = 0; j < m.rows(); ++j) {
              const double* mj = m.row_ptr(j) + l0;
              for (std::size_t i = lo; i < hi; ++i) {
                count[i] += (mj[i - lo] != 0.0);
              }
            }
            return;
          }
          for (std::size_t i = lo; i < hi; ++i) {
            const double* mi = m.row_ptr(l0 + i - lo);
            std::size_t nz = 0;
            for (std::size_t j = 0; j < m.cols(); ++j) nz += (mi[j] != 0.0);
            count[i] += nz;
          }
        });
      },
      [&](std::size_t r0, std::size_t r1, std::size_t* at, std::size_t* col,
          double* val) {
        auto append = [&](std::size_t i, std::size_t c, double v) {
          if (v == 0.0) return;
          col[at[i]] = c;
          val[at[i]] = v;
          ++at[i];
        };
        for_each_source(r0, r1, [&](std::size_t lo, std::size_t hi,
                                    const Source& src, std::size_t l0) {
          const la::Matrix& m = *src.block;
          if (src.mirrored) {
            // Each task row i takes its column of the stored rows, in
            // ascending stored row.
            for (std::size_t j = 0; j < m.rows(); ++j) {
              const double* mj = m.row_ptr(j) + l0;
              for (std::size_t i = lo; i < hi; ++i) {
                append(i, src.col0 + j, mj[i - lo]);
              }
            }
            return;
          }
          for (std::size_t i = lo; i < hi; ++i) {
            const double* mi = m.row_ptr(l0 + i - lo);
            for (std::size_t j = 0; j < m.cols(); ++j) {
              append(i, src.col0 + j, mi[j]);
            }
          }
        });
      });
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
