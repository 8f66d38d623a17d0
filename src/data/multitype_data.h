// Multi-type relational data container (paper §I.A).
//
// Holds K object types, each with a feature matrix and an optional ground
// truth, plus the pairwise inter-type relationship blocks R_kl. Provides
// the joint block matrices R (inter-type, zero diagonal blocks) and the
// per-type offsets used to address the block structure of G and S.

#ifndef RHCHME_DATA_MULTITYPE_DATA_H_
#define RHCHME_DATA_MULTITYPE_DATA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace data {

/// One object type: its name, features and clustering setup.
struct ObjectType {
  std::string name;          ///< e.g. "documents".
  std::size_t count = 0;     ///< n_k, number of objects.
  std::size_t clusters = 0;  ///< c_k, requested clusters for this type.
  /// Feature matrix X_k with one object per ROW (count x D_k). Used for
  /// intra-type relationship learning (pNN graph and subspace learning).
  la::Matrix features;
  /// Optional ground-truth class labels (empty when unknown).
  std::vector<std::size_t> labels;
};

/// K types plus the inter-type relationship blocks.
///
/// Usage:
///   MultiTypeRelationalData data;
///   data.AddType({"docs", nd, cd, Xd, yd});
///   data.AddType({"terms", nt, ct, Xt, {}});
///   data.SetRelation(0, 1, doc_term_tfidf);
///   RHCHME_RETURN_IF_ERROR(data.Validate());
class MultiTypeRelationalData {
 public:
  /// Appends a type; returns its index.
  std::size_t AddType(ObjectType type);

  /// Sets the relationship block between types k and l (k != l) with
  /// shape (count_k x count_l). The transposed block is implied.
  Status SetRelation(std::size_t k, std::size_t l, la::Matrix r);

  /// Number of types K.
  std::size_t NumTypes() const { return types_.size(); }

  const ObjectType& Type(std::size_t k) const;
  ObjectType& MutableType(std::size_t k);

  /// True if the (k, l) relation (either orientation) was provided.
  bool HasRelation(std::size_t k, std::size_t l) const;

  /// The (count_k x count_l) block in its stored orientation (k < l),
  /// returned by const reference — no copy. Requires HasRelation(k, l)
  /// and k < l. The reference stays valid until the relation is replaced
  /// via SetRelation.
  const la::Matrix& Relation(std::size_t k, std::size_t l) const;

  /// Total object count n = sum_k n_k.
  std::size_t TotalObjects() const;

  /// Total cluster count c = sum_k c_k.
  std::size_t TotalClusters() const;

  /// Row offset of type k inside the joint n x n matrices.
  std::size_t TypeOffset(std::size_t k) const;

  /// Column offset of type k inside the joint n x c membership matrix.
  std::size_t ClusterOffset(std::size_t k) const;

  /// Joint inter-type matrix R (n x n, zero diagonal blocks; paper §I.A).
  /// Missing blocks stay zero. R is symmetric by construction: each
  /// relation is stored once and mirrored into its transpose block, so
  /// R = Rᵀ exactly (the solver relies on this; no option or check is
  /// involved).
  la::Matrix BuildJointR() const;

  /// CSR version of BuildJointR (drops exact zeros, keeps NaN/Inf),
  /// assembled directly from the stored blocks: a row-parallel count pass
  /// and a fill pass, columns already in order. The arrays are identical
  /// for any pool size. This is the solver's representation at every
  /// fill.
  la::SparseMatrix BuildJointRSparse() const;

  /// Density of the joint R: nonzero entries / n², counted from the
  /// stored blocks without building either representation. At most
  /// 1 − Σ_k n_k²/n², since the diagonal type blocks are zero.
  double JointRDensity() const;

  /// Joint ground-truth labels offset per type; empty if any type lacks
  /// labels.
  std::vector<std::size_t> JointLabels() const;

  /// Shape/consistency checks: positive counts and cluster counts,
  /// feature row counts match, relation shapes match, at least one
  /// relation per type (connected star assumption is NOT required).
  Status Validate() const;

 private:
  std::vector<ObjectType> types_;
  /// Keyed on (min(k,l), max(k,l)); stored with rows = first key's type.
  std::map<std::pair<std::size_t, std::size_t>, la::Matrix> relations_;
};

}  // namespace data
}  // namespace rhchme

#endif  // RHCHME_DATA_MULTITYPE_DATA_H_
