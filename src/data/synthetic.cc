#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/corruption.h"
#include "data/tfidf.h"
#include "la/gemm.h"
#include "util/rng.h"

namespace rhchme {
namespace data {

namespace {

/// Largest mean a generator passes to Rng::Poisson: its draws stay far
/// inside the int they are returned as.
constexpr double kMaxPoissonMean = 1e6;

}  // namespace

Status SyntheticCorpusOptions::Validate() const {
  if (docs_per_class.empty()) {
    return Status::InvalidArgument("need at least one class");
  }
  for (std::size_t s : docs_per_class) {
    if (s == 0) return Status::InvalidArgument("empty class");
  }
  if (n_terms < docs_per_class.size() * topics_per_class) {
    return Status::InvalidArgument("too few terms for the topic structure");
  }
  if (n_concepts == 0 || terms_per_concept == 0) {
    return Status::InvalidArgument("concepts misconfigured");
  }
  if (topics_per_class == 0 || core_terms_per_topic == 0) {
    return Status::InvalidArgument("topics misconfigured");
  }
  // Negated comparisons: NaN fails every one of them. The Poisson means
  // are also capped, so a draw always fits the int it is cast to.
  if (!(doc_length_mean > 0.0 && doc_length_mean <= kMaxPoissonMean)) {
    return Status::InvalidArgument("doc_length_mean must be in (0, 1e6]");
  }
  if (!(concept_direct_hits >= 0.0 && concept_direct_hits <= kMaxPoissonMean)) {
    return Status::InvalidArgument("concept_direct_hits must be in [0, 1e6]");
  }
  if (!(concept_noise_hits >= 0.0 && concept_noise_hits <= kMaxPoissonMean)) {
    return Status::InvalidArgument("concept_noise_hits must be in [0, 1e6]");
  }
  if (!(background_noise >= 0.0 && background_noise < 1.0)) {
    return Status::InvalidArgument("background_noise must be in [0,1)");
  }
  if (!(class_overlap >= 0.0 && std::isfinite(class_overlap))) {
    return Status::InvalidArgument("class_overlap must be finite and >= 0");
  }
  if (!(concept_map_alignment >= 0.0 && concept_map_alignment <= 1.0)) {
    return Status::InvalidArgument("concept_map_alignment must be in [0,1]");
  }
  if (!(concept_map_weight >= 0.0 && std::isfinite(concept_map_weight))) {
    return Status::InvalidArgument(
        "concept_map_weight must be finite and >= 0");
  }
  if (!(corrupted_doc_fraction >= 0.0 && corrupted_doc_fraction <= 1.0)) {
    return Status::InvalidArgument("corrupted_doc_fraction must be in [0,1]");
  }
  if (!(corruption_magnitude >= 0.0 && std::isfinite(corruption_magnitude))) {
    return Status::InvalidArgument(
        "corruption_magnitude must be finite and >= 0");
  }
  if (!(relation_dropout >= 0.0 && relation_dropout < 1.0)) {
    return Status::InvalidArgument("relation_dropout must be in [0,1)");
  }
  return Status::OK();
}

namespace {

// Noise-injection sub-streams of the generator seed. Dedicated streams
// keep the corrupted-row/dropped-entry draws independent of how many
// draws the clean generation consumed, so the same seed selects the same
// corrupted rows no matter which unrelated options change.
constexpr uint64_t kCorruptionStream = 0xc042u;
constexpr uint64_t kDropoutStream = 0xd409u;

/// Difficulty shared by the D1'–D4' presets, calibrated so the absolute
/// FScore/NMI levels land in the paper's reported range (Tables III/IV)
/// and the method ordering can differentiate: related classes share half
/// their core vocabulary, documents are short, the concept channel is
/// independent but noisy, and a small fraction of documents is corrupted
/// (standing in for the natural noise of the real corpora, and
/// exercising the L2,1 error matrix).
void ApplyPaperDifficulty(SyntheticCorpusOptions* o) {
  o->class_overlap = 0.5;
  o->background_noise = 0.25;
  o->doc_length_mean = 70.0;
  // The concept view is complementary but individually weak (ambiguous
  // mapping, sparse direct hits) — on the real corpora DR-C is the
  // weakest single view (Table III).
  o->concept_direct_hits = 3.0;
  o->concept_noise_hits = 6.0;
  o->concept_map_alignment = 0.45;
  o->corrupted_doc_fraction = 0.05;
}

}  // namespace

SyntheticCorpusOptions Multi5Preset() {
  SyntheticCorpusOptions o;
  o.docs_per_class.assign(5, 50);  // Paper: 5 x 100; scaled /2.
  o.n_terms = 400;                 // Paper: 2000.
  o.n_concepts = 330;              // Paper: 1667.
  ApplyPaperDifficulty(&o);
  // Multi5 is the paper's easiest corpus (Table III: all methods peak
  // here); with only 5 classes the overlap bleed concentrates, so dial
  // it back to keep the term view at the same relative difficulty.
  o.class_overlap = 0.4;
  o.seed = 101;
  return o;
}

SyntheticCorpusOptions Multi10Preset() {
  SyntheticCorpusOptions o;
  o.docs_per_class.assign(10, 25);  // Paper: 10 x 50; scaled /2.
  o.n_terms = 400;                  // Paper: 2000.
  o.n_concepts = 330;               // Paper: 1658.
  ApplyPaperDifficulty(&o);
  o.seed = 102;
  return o;
}

SyntheticCorpusOptions ReutersMin20Max200Preset() {
  SyntheticCorpusOptions o;
  // Paper: 25 classes, 20..200 docs each, 1413 docs total. Scaled /5:
  // sizes between 4 and 40 with the same spread; 283 docs total.
  o.docs_per_class = {4,  4,  5,  5,  6,  6,  7,  8,  8,  9,  10, 11, 12,
                      13, 14, 15, 16, 17, 18, 20, 22, 25, 28, 32, 40};
  o.n_terms = 480;     // Paper: 2904.
  o.n_concepts = 400;  // Paper: 2450.
  o.topics_per_class = 2;  // Keep term budget: 25 classes x 2 topics.
  o.core_terms_per_topic = 8;
  ApplyPaperDifficulty(&o);
  o.seed = 103;
  return o;
}

SyntheticCorpusOptions ReutersTop10Preset() {
  SyntheticCorpusOptions o;
  // Paper: the 10 largest Reuters classes (8023 docs, heavily skewed).
  // Scaled to keep the skew: 660 docs total.
  o.docs_per_class = {160, 120, 90, 70, 55, 45, 40, 35, 25, 20};
  o.n_terms = 520;     // Paper: 5146.
  o.n_concepts = 420;  // Paper: 4109.
  ApplyPaperDifficulty(&o);
  o.seed = 104;
  return o;
}

Result<SyntheticCorpusOptions> PresetByName(const std::string& name) {
  if (name == "D1" || name == "Multi5") return Multi5Preset();
  if (name == "D2" || name == "Multi10") return Multi10Preset();
  if (name == "D3" || name == "R-Min20Max200") {
    return ReutersMin20Max200Preset();
  }
  if (name == "D4" || name == "R-Top10") return ReutersTop10Preset();
  return Status::NotFound("unknown dataset preset: " + name);
}

namespace {

/// Topic model over terms: per-topic categorical weights.
struct TopicModel {
  /// weights[t] is the unnormalised term distribution of topic t; topics
  /// are grouped per class (class c owns topics [c*r, (c+1)*r)).
  std::vector<std::vector<double>> weights;
  std::vector<double> background;
  /// Owning class of each term (ground truth for term clustering).
  std::vector<std::size_t> term_class;
};

TopicModel BuildTopics(const SyntheticCorpusOptions& opts, Rng* rng) {
  const std::size_t n_classes = opts.docs_per_class.size();
  const std::size_t n_topics = n_classes * opts.topics_per_class;
  TopicModel model;
  model.weights.assign(n_topics, std::vector<double>(opts.n_terms, 0.0));
  model.background.assign(opts.n_terms, 1.0);
  model.term_class.assign(opts.n_terms, 0);

  // Assign core terms: shuffle the vocabulary, deal it out to topics.
  std::vector<std::size_t> pool(opts.n_terms);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  rng->Shuffle(&pool);
  std::size_t cursor = 0;
  for (std::size_t t = 0; t < n_topics; ++t) {
    const std::size_t cls = t / opts.topics_per_class;
    for (std::size_t c = 0; c < opts.core_terms_per_topic; ++c) {
      const std::size_t term = pool[cursor % pool.size()];
      cursor++;
      // Core term: dominant weight in this topic, jittered.
      model.weights[t][term] += 1.0 + rng->Uniform();
      model.term_class[term] = cls;
    }
  }
  // Class overlap: each topic places `class_overlap` of its probability
  // mass on core terms dealt to OTHER topics (related classes share
  // vocabulary — rec.autos vs rec.motorcycles). The bleed lands on
  // discriminative words, which is what actually confuses clustering.
  if (opts.class_overlap > 0.0 && cursor > 0) {
    const std::size_t dealt = std::min<std::size_t>(cursor, pool.size());
    const std::size_t bleed_terms = 2 * opts.core_terms_per_topic;
    const double ratio =
        opts.class_overlap / (1.0 - std::min(opts.class_overlap, 0.8));
    for (std::size_t t = 0; t < n_topics; ++t) {
      double self_mass = 0.0;
      for (double v : model.weights[t]) self_mass += v;
      // Raw bleed weights, then scale them to ratio * self_mass total.
      std::vector<std::pair<std::size_t, double>> bleed;
      bleed.reserve(bleed_terms);
      double bleed_mass = 0.0;
      for (std::size_t b = 0; b < bleed_terms; ++b) {
        const std::size_t term = pool[rng->UniformInt(dealt)];
        const double v = 0.5 + rng->Uniform();
        bleed.push_back({term, v});
        bleed_mass += v;
      }
      const double scale =
          bleed_mass > 0.0 ? ratio * self_mass / bleed_mass : 0.0;
      for (const auto& [term, v] : bleed) {
        model.weights[t][term] += scale * v;
      }
    }
  }
  // Every term keeps a small floor in every topic so distributions
  // overlap (documents share vocabulary across classes).
  const double floor = 0.05 / static_cast<double>(opts.n_terms);
  for (auto& w : model.weights) {
    for (double& v : w) v += floor;
  }
  // Terms never dealt as core terms: spread their class labels uniformly
  // (they are background words; any label is equally (in)correct).
  for (std::size_t term = cursor >= pool.size() ? 0 : cursor; term < pool.size();
       ++term) {
    model.term_class[pool[term]] = rng->UniformInt(n_classes);
  }
  return model;
}

}  // namespace

Result<MultiTypeRelationalData> GenerateSyntheticCorpus(
    const SyntheticCorpusOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  Rng rng(opts.seed);
  const std::size_t n_classes = opts.docs_per_class.size();
  const std::size_t n_docs = std::accumulate(opts.docs_per_class.begin(),
                                             opts.docs_per_class.end(),
                                             std::size_t{0});
  TopicModel topics = BuildTopics(opts, &rng);

  // ---- Documents: counts from the class's topic mixture -------------------
  la::Matrix doc_term_counts(n_docs, opts.n_terms);
  std::vector<std::size_t> doc_labels(n_docs);
  std::size_t doc = 0;
  for (std::size_t cls = 0; cls < n_classes; ++cls) {
    for (std::size_t d = 0; d < opts.docs_per_class[cls]; ++d, ++doc) {
      doc_labels[doc] = cls;
      // Mixture over the class's topics (random convex weights) — the
      // document lives in the class's rank-r subspace.
      std::vector<double> mix(opts.topics_per_class);
      double mix_sum = 0.0;
      for (double& m : mix) {
        m = 0.1 + rng.Uniform();
        mix_sum += m;
      }
      for (double& m : mix) m /= mix_sum;

      const int tokens = std::max(8, rng.Poisson(opts.doc_length_mean));
      for (int tok = 0; tok < tokens; ++tok) {
        std::size_t term;
        if (rng.Uniform() < opts.background_noise) {
          term = rng.Categorical(topics.background);
        } else {
          const std::size_t local = rng.Categorical(mix);
          const std::size_t topic = cls * opts.topics_per_class + local;
          term = rng.Categorical(topics.weights[topic]);
        }
        doc_term_counts(doc, term) += 1.0;
      }
    }
  }

  // ---- Concepts: Wikipedia-mapping stand-in --------------------------------
  // Each concept owns a class (concepts are class-indicative Wikipedia
  // articles) and links terms_per_concept random terms. The doc–concept
  // block combines three channels mirroring [12, 13]:
  //   1. direct hits on the document's class concepts (independent
  //      semantic signal beyond the raw terms),
  //   2. mapped-term mass (concepts triggered by their linked terms),
  //   3. spurious hits (mapping ambiguity).
  std::vector<std::size_t> concept_owner(opts.n_concepts);
  for (std::size_t c = 0; c < opts.n_concepts; ++c) {
    concept_owner[c] = c % n_classes;
  }
  rng.Shuffle(&concept_owner);
  std::vector<std::vector<std::size_t>> class_concepts(n_classes);
  for (std::size_t c = 0; c < opts.n_concepts; ++c) {
    class_concepts[concept_owner[c]].push_back(c);
  }

  la::Matrix term_concept_map(opts.n_terms, opts.n_concepts);
  std::vector<std::vector<std::size_t>> class_terms(n_classes);
  for (std::size_t t = 0; t < opts.n_terms; ++t) {
    class_terms[topics.term_class[t]].push_back(t);
  }
  std::vector<std::size_t> perm(opts.n_terms);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.Shuffle(&perm);
  std::size_t map_cursor = 0;
  for (std::size_t c = 0; c < opts.n_concepts; ++c) {
    const auto& own_terms = class_terms[concept_owner[c]];
    for (std::size_t k = 0; k < opts.terms_per_concept; ++k) {
      std::size_t term;
      if (!own_terms.empty() &&
          rng.Uniform() < opts.concept_map_alignment) {
        term = own_terms[rng.UniformInt(own_terms.size())];
      } else {
        term = perm[map_cursor % perm.size()];
        ++map_cursor;
      }
      // Semantic-relatedness weight in (0.5, 1].
      term_concept_map(term, c) = 0.5 + 0.5 * rng.Uniform();
    }
  }

  la::Matrix doc_concept_counts =
      la::Multiply(doc_term_counts, term_concept_map);
  if (opts.concept_map_weight != 1.0) {
    doc_concept_counts.Scale(opts.concept_map_weight);
  }
  for (std::size_t i = 0; i < n_docs; ++i) {
    const auto& own = class_concepts[doc_labels[i]];
    if (!own.empty()) {
      const int hits = rng.Poisson(opts.concept_direct_hits);
      for (int h = 0; h < hits; ++h) {
        doc_concept_counts(i, own[rng.UniformInt(own.size())]) += 1.0;
      }
    }
    const int noise_hits = rng.Poisson(opts.concept_noise_hits);
    for (int h = 0; h < noise_hits; ++h) {
      doc_concept_counts(i, rng.UniformInt(opts.n_concepts)) += 1.0;
    }
  }

  // Term–concept co-occurrence: number of documents containing both
  // (binary co-presence, §IV.A).
  la::Matrix term_bin = doc_term_counts;
  term_bin.Apply([](double v) { return v > 0.0 ? 1.0 : 0.0; });
  la::Matrix concept_bin = doc_concept_counts;
  concept_bin.Apply([](double v) { return v > 0.75 ? 1.0 : 0.0; });
  la::Matrix term_concept_counts = la::MultiplyTN(term_bin, concept_bin);

  // ---- tf-idf blocks -------------------------------------------------------
  la::Matrix doc_term = TfIdf(doc_term_counts, opts.tfidf);
  la::Matrix doc_concept = TfIdf(doc_concept_counts, opts.tfidf);

  // ---- Relation sparsification (missing observations) ---------------------
  if (opts.relation_dropout > 0.0) {
    Rng drop_rng = StreamRng(opts.seed, kDropoutStream);
    DropEntries(&doc_term, opts.relation_dropout, &drop_rng);
    DropEntries(&doc_concept, opts.relation_dropout, &drop_rng);
    DropEntries(&term_concept_counts, opts.relation_dropout, &drop_rng);
  }

  // ---- Sample-wise corruption (exercises the L2,1 error matrix) -----------
  if (opts.corrupted_doc_fraction > 0.0) {
    RowCorruptionOptions c;
    c.row_fraction = opts.corrupted_doc_fraction;
    c.magnitude = opts.corruption_magnitude;
    c.mode = opts.corruption_mode;
    Rng corrupt_rng = StreamRng(opts.seed, kCorruptionStream);
    CorruptRows(&doc_term, c, &corrupt_rng);
    CorruptRows(&doc_concept, c, &corrupt_rng);
  }

  // ---- Concept labels: the owning class is the ground truth ---------------
  const std::vector<std::size_t>& concept_labels = concept_owner;

  // ---- Block balancing ------------------------------------------------------
  // The joint squared loss weights every entry of R equally; bring the
  // doc–concept and term–concept blocks to the doc–term block's mean
  // squared entry so no view is silently ignored (cf. SRC's nu_ij).
  if (opts.balance_blocks) {
    const double target =
        doc_term.FrobeniusNormSquared() / static_cast<double>(doc_term.size());
    auto balance = [target](la::Matrix* block) {
      const double ms = block->FrobeniusNormSquared() /
                        static_cast<double>(block->size());
      if (ms > 0.0) block->Scale(std::sqrt(target / ms));
    };
    balance(&doc_concept);
    balance(&term_concept_counts);
  } else {
    // Legacy scaling: cap the count block at the tf-idf blocks' max.
    const double max_entry = term_concept_counts.MaxAbs();
    const double target = std::max(doc_term.MaxAbs(), 1.0);
    if (max_entry > 0.0) term_concept_counts.Scale(target / max_entry);
  }

  // ---- Assemble ------------------------------------------------------------
  // Features follow the paper's representation: documents by their term
  // vectors, terms and concepts by their document vectors (§IV.A).
  MultiTypeRelationalData data;
  const std::size_t ct =
      opts.term_clusters == 0 ? n_classes : opts.term_clusters;
  const std::size_t cc =
      opts.concept_clusters == 0 ? n_classes : opts.concept_clusters;
  data.AddType({"documents", n_docs, n_classes, doc_term, doc_labels});
  data.AddType(
      {"terms", opts.n_terms, ct, doc_term.Transposed(), topics.term_class});
  data.AddType({"concepts", opts.n_concepts, cc, doc_concept.Transposed(),
                concept_labels});
  RHCHME_RETURN_IF_ERROR(data.SetRelation(0, 1, doc_term));
  RHCHME_RETURN_IF_ERROR(data.SetRelation(0, 2, doc_concept));
  RHCHME_RETURN_IF_ERROR(data.SetRelation(1, 2, term_concept_counts));
  RHCHME_RETURN_IF_ERROR(data.Validate());
  return data;
}

// ---- BlockWorld ------------------------------------------------------------

Status BlockWorldOptions::Validate() const {
  if (objects_per_type.size() < 2) {
    return Status::InvalidArgument("BlockWorld needs at least two types");
  }
  if (n_classes == 0) return Status::InvalidArgument("n_classes must be >= 1");
  for (std::size_t n : objects_per_type) {
    if (n < n_classes) {
      return Status::InvalidArgument("each type needs >= n_classes objects");
    }
  }
  // Negated comparisons: NaN fails every one of them.
  if (!(std::isfinite(within_strength) && std::isfinite(between_strength) &&
        within_strength > between_strength)) {
    return Status::InvalidArgument(
        "within_strength must exceed between_strength, both finite");
  }
  if (!(noise >= 0.0 && std::isfinite(noise))) {
    return Status::InvalidArgument("noise must be finite and >= 0");
  }
  if (!(dropout >= 0.0 && dropout < 1.0)) {
    return Status::InvalidArgument("dropout must be in [0,1)");
  }
  if (!(corrupted_fraction >= 0.0 && corrupted_fraction <= 1.0)) {
    return Status::InvalidArgument("corrupted_fraction must be in [0,1]");
  }
  if (!(corruption_magnitude >= 0.0 && std::isfinite(corruption_magnitude))) {
    return Status::InvalidArgument(
        "corruption_magnitude must be finite and >= 0");
  }
  return Status::OK();
}

Result<MultiTypeRelationalData> GenerateBlockWorld(
    const BlockWorldOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  Rng rng(opts.seed);
  const std::size_t types = opts.objects_per_type.size();

  // Balanced class labels per type, shuffled.
  std::vector<std::vector<std::size_t>> labels(types);
  for (std::size_t k = 0; k < types; ++k) {
    labels[k].resize(opts.objects_per_type[k]);
    for (std::size_t i = 0; i < labels[k].size(); ++i) {
      labels[k][i] = i % opts.n_classes;
    }
    rng.Shuffle(&labels[k]);
  }

  // Relationship blocks for every pair.
  std::vector<std::vector<la::Matrix>> blocks(types,
                                              std::vector<la::Matrix>(types));
  for (std::size_t k = 0; k < types; ++k) {
    for (std::size_t l = k + 1; l < types; ++l) {
      la::Matrix r(opts.objects_per_type[k], opts.objects_per_type[l]);
      for (std::size_t i = 0; i < r.rows(); ++i) {
        for (std::size_t j = 0; j < r.cols(); ++j) {
          if (rng.Uniform() < opts.dropout) continue;
          const double base = labels[k][i] == labels[l][j]
                                  ? opts.within_strength
                                  : opts.between_strength;
          double v = base * (1.0 + opts.noise * rng.Normal());
          r(i, j) = v > 0.0 ? v : 0.0;
        }
      }
      blocks[k][l] = std::move(r);
    }
  }

  // Sample-wise corruption of type-0 objects, before features are
  // assembled so the corrupted blocks and the derived features agree.
  if (opts.corrupted_fraction > 0.0) {
    RowCorruptionOptions c;
    c.row_fraction = opts.corrupted_fraction;
    c.magnitude = opts.corruption_magnitude;
    c.mode = opts.corruption_mode;
    Rng corrupt_rng = StreamRng(opts.seed, kCorruptionStream);
    for (std::size_t l = 1; l < types; ++l) {
      CorruptRows(&blocks[0][l], c, &corrupt_rng);
    }
  }

  MultiTypeRelationalData data;
  static const char* kNames[] = {"pages", "terms", "queries", "users",
                                 "type4", "type5", "type6", "type7"};
  for (std::size_t k = 0; k < types; ++k) {
    // Features: the object's concatenated relation rows (how it co-occurs
    // with every other type) — the standard representation when no
    // explicit intra-type features exist.
    std::size_t dim = 0;
    for (std::size_t l = 0; l < types; ++l) {
      if (l != k) dim += opts.objects_per_type[l];
    }
    la::Matrix feats(opts.objects_per_type[k], dim);
    std::size_t col = 0;
    for (std::size_t l = 0; l < types; ++l) {
      if (l == k) continue;
      const la::Matrix block =
          k < l ? blocks[k][l] : blocks[l][k].Transposed();
      feats.SetBlock(0, col, block);
      col += opts.objects_per_type[l];
    }
    const char* name = k < 8 ? kNames[k] : "type";
    data.AddType({name, opts.objects_per_type[k], opts.n_classes,
                  std::move(feats), labels[k]});
  }
  for (std::size_t k = 0; k < types; ++k) {
    for (std::size_t l = k + 1; l < types; ++l) {
      RHCHME_RETURN_IF_ERROR(data.SetRelation(k, l, std::move(blocks[k][l])));
    }
  }
  RHCHME_RETURN_IF_ERROR(data.Validate());
  return data;
}

}  // namespace data
}  // namespace rhchme
