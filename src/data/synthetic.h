// Synthetic multi-type relational data.
//
// The paper evaluates on 20Newsgroups and Reuters-21578 subsets enriched
// with Wikipedia concepts (documents, terms, concepts). Those corpora are
// not available offline, so this module generates statistically analogous
// data:
//
//  * documents of a class are drawn from a low-rank mixture of topic
//    term-distributions — classes are low-dimensional subspaces, which is
//    exactly the manifold assumption RHCHME exploits;
//  * concepts arise from a sparse term→concept map, mimicking the
//    Wikipedia mapping of [12];
//  * the three relationship blocks mirror §IV.A: doc–term tf-idf,
//    doc–concept mapped tf-idf, term–concept document co-occurrence counts;
//  * presets reproduce the class-count / balance shape of D1–D4 at reduced
//    scale (Table II), and rows can be corrupted sample-wise to exercise
//    the L2,1 error matrix.
//
// A second, fully generic generator (BlockWorld) produces K-type data with
// planted co-cluster structure for K != 3 demos and fast tests.

#ifndef RHCHME_DATA_SYNTHETIC_H_
#define RHCHME_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "data/corruption.h"
#include "data/multitype_data.h"
#include "data/tfidf.h"
#include "util/status.h"

namespace rhchme {
namespace data {

struct SyntheticCorpusOptions {
  /// Class sizes; length = number of classes. Balanced for D1'/D2',
  /// skewed for D3'/D4'.
  std::vector<std::size_t> docs_per_class;
  std::size_t n_terms = 400;
  std::size_t n_concepts = 330;
  /// Topics per class = rank of the class subspace in term space.
  std::size_t topics_per_class = 3;
  /// Terms that are (mostly) exclusive to one topic.
  std::size_t core_terms_per_topic = 12;
  /// Mean token count per document (Poisson).
  double doc_length_mean = 120.0;
  /// Probability mass routed to the shared background topic — class
  /// overlap / noise level.
  double background_noise = 0.15;
  /// Fraction of each topic's core weight that bleeds onto other
  /// classes' core terms — models genuinely related classes
  /// (rec.autos vs rec.motorcycles, the sci.* family, ...). 0 gives
  /// fully separable classes; realistic corpora sit around 0.3–0.5.
  double class_overlap = 0.35;
  /// Terms linked to each concept in the term→concept map.
  std::size_t terms_per_concept = 3;
  /// Probability that a concept's linked term is drawn from the concept's
  /// own class vocabulary (the Wikipedia mapping is topically coherent:
  /// "Autos" links to car terms). The remainder is drawn uniformly —
  /// mapping ambiguity. 0 gives a class-blind map.
  double concept_map_alignment = 0.7;
  /// Weight of the mapped-term component of the doc–concept block
  /// (concepts triggered by their linked terms appearing in the doc).
  double concept_map_weight = 0.3;
  /// Mean number of DIRECT concept hits per document on concepts owned
  /// by the document's class — Wikipedia concepts add semantic signal
  /// beyond the raw terms ([12, 13]); this is that independent channel.
  double concept_direct_hits = 6.0;
  /// Mean number of spurious concept hits per document (uniform over all
  /// concepts) — the ambiguity of the term→article mapping.
  double concept_noise_hits = 3.0;
  /// Fraction of document rows whose R-blocks are corrupted (sample-wise,
  /// matching the paper's L2,1 noise model). 0 disables corruption.
  /// Drawn from its own DeriveStreamSeed stream of `seed`, so the
  /// corrupted-row set depends only on the seed and the fraction — not on
  /// how many draws the clean generation consumed before it.
  double corrupted_doc_fraction = 0.0;
  /// Spike size relative to the block's mean positive entry.
  double corruption_magnitude = 3.0;
  /// Corrupted-entry payload: spikes (paper model) or NaN/Inf plants (the
  /// fault-tolerance scenario axis). Passed through to CorruptRows.
  RowCorruptionMode corruption_mode = RowCorruptionMode::kSpike;
  /// Probability that an entry of each relation block is zeroed after
  /// tf-idf weighting (missing observations — the sparsity axis of the
  /// robustness scenario grid). Applied before corruption and block
  /// balancing from its own DeriveStreamSeed stream. 0 disables.
  double relation_dropout = 0.0;
  /// Term/concept cluster counts; 0 means "same as the number of classes"
  /// (the paper sweeps m/10..m/100; that is exposed, not forced).
  std::size_t term_clusters = 0;
  std::size_t concept_clusters = 0;
  /// Weighting of the doc–term / doc–concept blocks. Raw (un-normalised)
  /// tf-idf by default: the paper's lambda/beta ranges (Fig. 2) assume
  /// that magnitude — L2-normalised rows shrink ||R||²_F by ~100x and the
  /// regularisers then dominate.
  TfIdfOptions tfidf{.sublinear_tf = true, .smooth_idf = true,
                     .l2_normalize = false};
  /// Scale the doc–concept and term–concept blocks so their mean squared
  /// entry matches the doc–term block. The joint squared loss weights
  /// every entry of R equally, so an unbalanced block is effectively
  /// ignored (the original SRC introduces nu_ij weights for exactly this
  /// reason — balancing at generation time keeps all solvers comparable).
  bool balance_blocks = true;
  uint64_t seed = 42;

  Status Validate() const;
};

/// Presets mirroring Table II at reduced scale (suffix ' = scaled analogue).
SyntheticCorpusOptions Multi5Preset();             ///< D1': 5 balanced classes.
SyntheticCorpusOptions Multi10Preset();            ///< D2': 10 balanced classes.
SyntheticCorpusOptions ReutersMin20Max200Preset(); ///< D3': 25 skewed classes.
SyntheticCorpusOptions ReutersTop10Preset();       ///< D4': 10 large skewed.

/// Preset lookup by the paper's dataset ids: "D1", "D2", "D3", "D4".
Result<SyntheticCorpusOptions> PresetByName(const std::string& name);

/// Generates a 3-type corpus: type 0 documents, type 1 terms,
/// type 2 concepts, with relations (0,1) doc–term tf-idf, (0,2)
/// doc–concept tf-idf, (1,2) term–concept co-occurrence counts, ground
/// truth labels for all three types, and per-type features.
Result<MultiTypeRelationalData> GenerateSyntheticCorpus(
    const SyntheticCorpusOptions& opts);

// ---- Generic K-type generator --------------------------------------------

struct BlockWorldOptions {
  /// Object count per type (K = size). Example: pages, terms, queries,
  /// users for the paper's introductory web scenario.
  std::vector<std::size_t> objects_per_type;
  /// Shared latent class count; every type's objects are split over these.
  std::size_t n_classes = 3;
  /// Mean co-occurrence strength for objects of the same class.
  double within_strength = 1.0;
  /// Mean strength across classes (higher = harder problem).
  double between_strength = 0.15;
  /// Multiplicative noise spread.
  double noise = 0.25;
  /// Zero out entries with this probability (sparsity of R).
  double dropout = 0.3;
  /// Fraction of type-0 objects whose relation rows receive sample-wise
  /// spikes (the corruption axis of the robustness scenario grid, same
  /// L2,1 noise model as the corpus generator). Applied before features
  /// are assembled, from its own DeriveStreamSeed stream. 0 disables.
  double corrupted_fraction = 0.0;
  /// Spike size relative to each block's mean positive entry.
  double corruption_magnitude = 3.0;
  /// Corrupted-entry payload: spikes or NaN/Inf plants (see
  /// RowCorruptionMode).
  RowCorruptionMode corruption_mode = RowCorruptionMode::kSpike;
  uint64_t seed = 7;

  Status Validate() const;
};

/// K-type data with a planted joint co-cluster structure: R_kl(i,j) is
/// large when objects i and j share a latent class. Labels are attached to
/// every type; features are each object's concatenated relation rows.
Result<MultiTypeRelationalData> GenerateBlockWorld(
    const BlockWorldOptions& opts);

}  // namespace data
}  // namespace rhchme

#endif  // RHCHME_DATA_SYNTHETIC_H_
