// End-to-end smoke test: tiny corpus through the full RHCHME pipeline.

#include <gtest/gtest.h>

#include "matrix_oracles.h"
#include "rhchme/rhchme.h"

namespace rhchme {
namespace {

using testing_reference::IsNonNegative;

TEST(Smoke, RhchmeEndToEnd) {
  data::SyntheticCorpusOptions opts;
  opts.docs_per_class = {20, 20, 20};
  opts.n_terms = 60;
  opts.n_concepts = 40;
  opts.topics_per_class = 2;
  opts.core_terms_per_topic = 6;
  opts.doc_length_mean = 60.0;
  Result<data::MultiTypeRelationalData> data =
      data::GenerateSyntheticCorpus(opts);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  core::RhchmeOptions ropts;
  ropts.max_iterations = 20;
  ropts.lambda = 10.0;
  ropts.beta = 50.0;
  ropts.ensemble.subspace.spg.max_iterations = 30;
  core::Rhchme solver(ropts);
  Result<core::RhchmeResult> fit = solver.Fit(data.value());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  const fact::HoccResult& res = fit.value().hocc;
  EXPECT_TRUE(res.g.AllFinite());
  EXPECT_TRUE(IsNonNegative(res.g));
  ASSERT_EQ(res.labels.size(), 3u);
  EXPECT_EQ(res.labels[0].size(), 60u);

  Result<eval::Scores> scores =
      eval::ScoreLabels(data.value().Type(0).labels, res.labels[0]);
  ASSERT_TRUE(scores.ok());
  // A well-separated 3-class toy corpus must be clustered far above chance.
  EXPECT_GT(scores.value().fscore, 0.6);
}

}  // namespace
}  // namespace rhchme
