// Unit tests for the synthetic data generators.

#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

#include "matrix_oracles.h"

namespace rhchme {
namespace data {
namespace {

using testing_reference::IsNonNegative;
using testing_reference::MaxAbsDiff;
using testing_reference::Sum;

SyntheticCorpusOptions SmallCorpus() {
  SyntheticCorpusOptions o;
  o.docs_per_class = {10, 15, 20};
  o.n_terms = 80;
  o.n_concepts = 50;
  o.topics_per_class = 2;
  o.core_terms_per_topic = 6;
  o.doc_length_mean = 50.0;
  o.seed = 7;
  return o;
}

TEST(SyntheticCorpus, ShapesAndLabels) {
  Result<MultiTypeRelationalData> d = GenerateSyntheticCorpus(SmallCorpus());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().NumTypes(), 3u);
  EXPECT_EQ(d.value().Type(0).count, 45u);
  EXPECT_EQ(d.value().Type(1).count, 80u);
  EXPECT_EQ(d.value().Type(2).count, 50u);
  EXPECT_EQ(d.value().Type(0).clusters, 3u);
  // Ground truth present for all types.
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(d.value().Type(k).labels.size(), d.value().Type(k).count);
    for (std::size_t label : d.value().Type(k).labels) EXPECT_LT(label, 3u);
  }
  // Class sizes honoured (docs generated class by class).
  const auto& y = d.value().Type(0).labels;
  EXPECT_EQ(std::count(y.begin(), y.end(), 0u), 10);
  EXPECT_EQ(std::count(y.begin(), y.end(), 1u), 15);
  EXPECT_EQ(std::count(y.begin(), y.end(), 2u), 20);
}

TEST(SyntheticCorpus, AllThreeRelationsPresentAndNonNegative) {
  Result<MultiTypeRelationalData> d = GenerateSyntheticCorpus(SmallCorpus());
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d.value().HasRelation(0, 1));
  ASSERT_TRUE(d.value().HasRelation(0, 2));
  ASSERT_TRUE(d.value().HasRelation(1, 2));
  for (auto [k, l] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {0, 2},
                      {1, 2}}) {
    la::Matrix r = d.value().Relation(k, l);
    EXPECT_TRUE(IsNonNegative(r));
    EXPECT_TRUE(r.AllFinite());
    EXPECT_GT(Sum(r), 0.0);
  }
  EXPECT_TRUE(d.value().Validate().ok());
}

TEST(SyntheticCorpus, DeterministicGivenSeed) {
  Result<MultiTypeRelationalData> a = GenerateSyntheticCorpus(SmallCorpus());
  Result<MultiTypeRelationalData> b = GenerateSyntheticCorpus(SmallCorpus());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(MaxAbsDiff(a.value().Relation(0, 1), b.value().Relation(0, 1)),
            0.0);
  EXPECT_EQ(a.value().Type(1).labels, b.value().Type(1).labels);
}

TEST(SyntheticCorpus, SeedChangesData) {
  SyntheticCorpusOptions o = SmallCorpus();
  Result<MultiTypeRelationalData> a = GenerateSyntheticCorpus(o);
  o.seed = 8;
  Result<MultiTypeRelationalData> b = GenerateSyntheticCorpus(o);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(MaxAbsDiff(a.value().Relation(0, 1), b.value().Relation(0, 1)),
            0.0);
}

TEST(SyntheticCorpus, FeaturesMatchRelations) {
  Result<MultiTypeRelationalData> d = GenerateSyntheticCorpus(SmallCorpus());
  ASSERT_TRUE(d.ok());
  // Document features are the doc-term tf-idf block (paper §IV.A).
  EXPECT_EQ(MaxAbsDiff(d.value().Type(0).features,
                           d.value().Relation(0, 1)),
            0.0);
  // Term features are its transpose.
  EXPECT_EQ(MaxAbsDiff(d.value().Type(1).features,
                           d.value().Relation(0, 1).Transposed()),
            0.0);
}

TEST(SyntheticCorpus, CorruptionIncreasesMass) {
  SyntheticCorpusOptions clean = SmallCorpus();
  SyntheticCorpusOptions dirty = SmallCorpus();
  dirty.corrupted_doc_fraction = 0.3;
  Result<MultiTypeRelationalData> a = GenerateSyntheticCorpus(clean);
  Result<MultiTypeRelationalData> b = GenerateSyntheticCorpus(dirty);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(Sum(b.value().Relation(0, 1)),
            Sum(a.value().Relation(0, 1)));
}

TEST(SyntheticCorpus, ClusterCountOverrides) {
  SyntheticCorpusOptions o = SmallCorpus();
  o.term_clusters = 8;
  o.concept_clusters = 5;
  Result<MultiTypeRelationalData> d = GenerateSyntheticCorpus(o);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().Type(1).clusters, 8u);
  EXPECT_EQ(d.value().Type(2).clusters, 5u);
}

TEST(SyntheticCorpus, ValidationErrors) {
  SyntheticCorpusOptions o = SmallCorpus();
  o.docs_per_class.clear();
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o = SmallCorpus();
  o.docs_per_class = {5, 0};
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o = SmallCorpus();
  o.n_terms = 2;  // Fewer terms than topics.
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o = SmallCorpus();
  o.background_noise = 1.5;
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o = SmallCorpus();
  o.doc_length_mean = 0.0;
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
}

TEST(SyntheticCorpus, NonFiniteOptionsAreRejectedNotAborted) {
  // Each option once at NaN (and the Poisson means once at +inf and once
  // negative): Validate must refuse it, so the generator returns an error
  // instead of aborting in Rng::Poisson or casting inf to int.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  double SyntheticCorpusOptions::*const fields[] = {
      &SyntheticCorpusOptions::doc_length_mean,
      &SyntheticCorpusOptions::background_noise,
      &SyntheticCorpusOptions::class_overlap,
      &SyntheticCorpusOptions::concept_map_alignment,
      &SyntheticCorpusOptions::concept_map_weight,
      &SyntheticCorpusOptions::concept_direct_hits,
      &SyntheticCorpusOptions::concept_noise_hits,
      &SyntheticCorpusOptions::corrupted_doc_fraction,
      &SyntheticCorpusOptions::corruption_magnitude,
      &SyntheticCorpusOptions::relation_dropout};
  for (std::size_t f = 0; f < std::size(fields); ++f) {
    SyntheticCorpusOptions o = SmallCorpus();
    o.*fields[f] = kNaN;
    EXPECT_FALSE(o.Validate().ok()) << "field " << f;
    EXPECT_FALSE(GenerateSyntheticCorpus(o).ok()) << "field " << f;
  }
  double SyntheticCorpusOptions::*const means[] = {
      &SyntheticCorpusOptions::doc_length_mean,
      &SyntheticCorpusOptions::concept_direct_hits,
      &SyntheticCorpusOptions::concept_noise_hits};
  for (double bad : {kInf, -1.0, 1e300}) {
    for (std::size_t f = 0; f < std::size(means); ++f) {
      SyntheticCorpusOptions o = SmallCorpus();
      o.*means[f] = bad;
      EXPECT_FALSE(GenerateSyntheticCorpus(o).ok())
          << "mean " << f << " = " << bad;
    }
  }
}

TEST(SyntheticCorpus, PresetsAreValidAndMatchTableII) {
  // Class counts follow Table II: 5, 10, 25, 10.
  EXPECT_EQ(Multi5Preset().docs_per_class.size(), 5u);
  EXPECT_EQ(Multi10Preset().docs_per_class.size(), 10u);
  EXPECT_EQ(ReutersMin20Max200Preset().docs_per_class.size(), 25u);
  EXPECT_EQ(ReutersTop10Preset().docs_per_class.size(), 10u);
  // D3' sizes are skewed between its min and max.
  const auto d3 = ReutersMin20Max200Preset().docs_per_class;
  EXPECT_LT(*std::min_element(d3.begin(), d3.end()),
            *std::max_element(d3.begin(), d3.end()) / 5);
  // All presets validate.
  for (const auto& p :
       {Multi5Preset(), Multi10Preset(), ReutersMin20Max200Preset(),
        ReutersTop10Preset()}) {
    EXPECT_TRUE(p.Validate().ok());
  }
}

TEST(SyntheticCorpus, PresetByName) {
  EXPECT_TRUE(PresetByName("D1").ok());
  EXPECT_TRUE(PresetByName("Multi10").ok());
  EXPECT_TRUE(PresetByName("R-Top10").ok());
  Result<SyntheticCorpusOptions> bad = PresetByName("D9");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(SyntheticCorpus, MapAlignmentStrengthensConceptSignal) {
  // With an aligned term→concept map (the Wikipedia mapping is topically
  // coherent) the doc–concept block separates classes better than with a
  // class-blind map.
  auto within_across_ratio = [](double alignment) {
    SyntheticCorpusOptions o;
    o.docs_per_class = {20, 20, 20};
    o.n_terms = 90;
    o.n_concepts = 60;
    o.topics_per_class = 2;
    o.core_terms_per_topic = 6;
    o.concept_map_alignment = alignment;
    o.seed = 31;
    MultiTypeRelationalData d = GenerateSyntheticCorpus(o).value();
    la::Matrix r02 = d.Relation(0, 2);
    const auto& dl = d.Type(0).labels;
    const auto& cl = d.Type(2).labels;
    double win = 0.0, acr = 0.0;
    std::size_t nw = 0, na = 0;
    for (std::size_t i = 0; i < r02.rows(); ++i) {
      for (std::size_t c = 0; c < r02.cols(); ++c) {
        if (dl[i] == cl[c]) {
          win += r02(i, c);
          ++nw;
        } else {
          acr += r02(i, c);
          ++na;
        }
      }
    }
    return (win / nw) / (acr / na);
  };
  EXPECT_GT(within_across_ratio(0.9), within_across_ratio(0.0));
}

// Rows of `dirty` whose doc-term block differs from `clean` — the
// corrupted-row set as observable from the outside.
std::vector<std::size_t> ChangedDocRows(const MultiTypeRelationalData& clean,
                                        const MultiTypeRelationalData& dirty) {
  const la::Matrix& a = clean.Relation(0, 1);
  const la::Matrix& b = dirty.Relation(0, 1);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) {
        rows.push_back(i);
        break;
      }
    }
  }
  return rows;
}

TEST(SyntheticCorpus, CorruptionDrawsFromItsOwnSeedStream) {
  // The corrupted-row set must depend only on (seed, fraction): changing
  // an option whose draws happen elsewhere in the generation (the
  // doc-concept noise channel) must not move the corruption. Before the
  // DeriveStreamSeed stream, the corruption consumed the tail of the main
  // generator, so any upstream option change reshuffled the rows.
  SyntheticCorpusOptions clean = SmallCorpus();
  clean.balance_blocks = false;  // Keep doc-term independent of the rest.
  SyntheticCorpusOptions dirty = clean;
  dirty.corrupted_doc_fraction = 0.3;
  SyntheticCorpusOptions dirty_other_noise = dirty;
  dirty_other_noise.concept_noise_hits = 9.0;

  MultiTypeRelationalData c = GenerateSyntheticCorpus(clean).value();
  MultiTypeRelationalData d1 = GenerateSyntheticCorpus(dirty).value();
  MultiTypeRelationalData d2 =
      GenerateSyntheticCorpus(dirty_other_noise).value();

  std::vector<std::size_t> rows1 = ChangedDocRows(c, d1);
  std::vector<std::size_t> rows2 = ChangedDocRows(c, d2);
  EXPECT_FALSE(rows1.empty());
  EXPECT_EQ(rows1, rows2);
  // Stronger: the whole corrupted doc-term block is bit-identical — the
  // concept-channel change cannot leak into it.
  EXPECT_EQ(MaxAbsDiff(d1.Relation(0, 1), d2.Relation(0, 1)), 0.0);
}

TEST(SyntheticCorpus, RelationDropoutSparsifiesDeterministically) {
  SyntheticCorpusOptions o = SmallCorpus();
  o.relation_dropout = 0.5;
  MultiTypeRelationalData a = GenerateSyntheticCorpus(o).value();
  MultiTypeRelationalData b = GenerateSyntheticCorpus(o).value();
  EXPECT_EQ(MaxAbsDiff(a.Relation(0, 1), b.Relation(0, 1)), 0.0);
  EXPECT_EQ(MaxAbsDiff(a.Relation(1, 2), b.Relation(1, 2)), 0.0);

  auto zeros = [](const la::Matrix& m) {
    std::size_t z = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m(i, j) == 0.0) ++z;
      }
    }
    return z;
  };
  MultiTypeRelationalData dense = GenerateSyntheticCorpus(SmallCorpus()).value();
  EXPECT_GT(zeros(a.Relation(0, 1)), zeros(dense.Relation(0, 1)));
}

TEST(SyntheticCorpus, DropoutValidation) {
  SyntheticCorpusOptions o = SmallCorpus();
  o.relation_dropout = 1.0;
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o.relation_dropout = -0.1;
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
  o.relation_dropout = 0.0;
  o.corruption_magnitude = -1.0;
  EXPECT_FALSE(GenerateSyntheticCorpus(o).ok());
}

// ---- BlockWorld ------------------------------------------------------------

TEST(BlockWorld, ShapesAndLabels) {
  BlockWorldOptions o;
  o.objects_per_type = {20, 30, 25, 15};
  o.n_classes = 3;
  Result<MultiTypeRelationalData> d = GenerateBlockWorld(o);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().NumTypes(), 4u);
  EXPECT_EQ(d.value().TotalObjects(), 90u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(d.value().Type(k).labels.size(), d.value().Type(k).count);
    EXPECT_EQ(d.value().Type(k).clusters, 3u);
    EXPECT_FALSE(d.value().Type(k).features.empty());
  }
  EXPECT_TRUE(d.value().Validate().ok());
}

TEST(BlockWorld, AllPairsRelated) {
  BlockWorldOptions o;
  o.objects_per_type = {10, 12, 8};
  Result<MultiTypeRelationalData> d = GenerateBlockWorld(o);
  ASSERT_TRUE(d.ok());
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t l = k + 1; l < 3; ++l) {
      EXPECT_TRUE(d.value().HasRelation(k, l));
    }
  }
}

TEST(BlockWorld, WithinClassMassDominates) {
  BlockWorldOptions o;
  o.objects_per_type = {40, 40};
  o.n_classes = 4;
  o.dropout = 0.0;
  Result<MultiTypeRelationalData> d = GenerateBlockWorld(o);
  ASSERT_TRUE(d.ok());
  la::Matrix r = d.value().Relation(0, 1);
  const auto& ya = d.value().Type(0).labels;
  const auto& yb = d.value().Type(1).labels;
  double within = 0.0, across = 0.0;
  std::size_t nw = 0, na = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (ya[i] == yb[j]) {
        within += r(i, j);
        ++nw;
      } else {
        across += r(i, j);
        ++na;
      }
    }
  }
  EXPECT_GT(within / nw, 2.0 * across / na);
}

TEST(BlockWorld, CorruptionSpikesType0RowsAndKeepsFeaturesConsistent) {
  BlockWorldOptions o;
  o.objects_per_type = {20, 16, 12};
  o.n_classes = 2;
  o.dropout = 0.0;
  o.seed = 99;
  BlockWorldOptions dirty = o;
  dirty.corrupted_fraction = 0.25;
  MultiTypeRelationalData c = GenerateBlockWorld(o).value();
  MultiTypeRelationalData d = GenerateBlockWorld(dirty).value();

  // Some type-0 rows changed, none of the type-1/2-only block did.
  EXPECT_GT(MaxAbsDiff(c.Relation(0, 1), d.Relation(0, 1)), 0.0);
  EXPECT_EQ(MaxAbsDiff(c.Relation(1, 2), d.Relation(1, 2)), 0.0);

  // Features are assembled after corruption: type 0's leading feature
  // block is exactly its corrupted (0,1) relation rows.
  const la::Matrix feat01 =
      d.Type(0).features.Block(0, 0, 20, 16);
  EXPECT_EQ(MaxAbsDiff(feat01, d.Relation(0, 1)), 0.0);

  // Same seed → same corrupted data.
  MultiTypeRelationalData d2 = GenerateBlockWorld(dirty).value();
  EXPECT_EQ(MaxAbsDiff(d.Relation(0, 1), d2.Relation(0, 1)), 0.0);
}

TEST(BlockWorld, ValidationErrors) {
  BlockWorldOptions o;
  o.objects_per_type = {10};
  EXPECT_FALSE(GenerateBlockWorld(o).ok());
  o.objects_per_type = {10, 10};
  o.n_classes = 0;
  EXPECT_FALSE(GenerateBlockWorld(o).ok());
  o.n_classes = 20;  // More classes than objects.
  EXPECT_FALSE(GenerateBlockWorld(o).ok());
  o.n_classes = 2;
  o.within_strength = 0.1;
  o.between_strength = 0.5;  // Inverted.
  EXPECT_FALSE(GenerateBlockWorld(o).ok());
}

TEST(BlockWorld, NonFiniteOptionsAreRejected) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  double BlockWorldOptions::*const fields[] = {
      &BlockWorldOptions::within_strength,
      &BlockWorldOptions::between_strength, &BlockWorldOptions::noise,
      &BlockWorldOptions::dropout, &BlockWorldOptions::corrupted_fraction,
      &BlockWorldOptions::corruption_magnitude};
  for (std::size_t f = 0; f < std::size(fields); ++f) {
    BlockWorldOptions o;
    o.objects_per_type = {10, 10};
    ASSERT_TRUE(o.Validate().ok());
    o.*fields[f] = kNaN;
    EXPECT_FALSE(o.Validate().ok()) << "field " << f;
    EXPECT_FALSE(GenerateBlockWorld(o).ok()) << "field " << f;
  }
  BlockWorldOptions o;
  o.objects_per_type = {10, 10};
  o.within_strength = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(o.Validate().ok());
  o.within_strength = 1.0;
  o.noise = -0.1;
  EXPECT_FALSE(o.Validate().ok());
}

}  // namespace
}  // namespace data
}  // namespace rhchme
