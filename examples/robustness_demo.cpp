// Robustness demo: why the sparse error matrix E_R exists (paper §III.C).
//
// Sweeps the fraction of corrupted document rows and compares RHCHME with
// and without the error matrix. Also shows that E_R localises: corrupted
// rows carry most of its mass (the L2,1 sample-wise sparsity at work).
//
//   $ ./robustness_demo

#include <algorithm>
#include <cstdio>
#include <vector>

#include "rhchme/rhchme.h"

int main() {
  using namespace rhchme;

  TablePrinter table(
      "Corruption sweep on Multi5' (FScore / NMI, with vs without E_R)",
      {"corrupted rows", "F with E_R", "F without", "NMI with E_R",
       "NMI without"});

  for (double fraction : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    data::SyntheticCorpusOptions gen = data::Multi5Preset();
    gen.corrupted_doc_fraction = fraction;
    gen.corruption_magnitude = 5.0;
    Result<data::MultiTypeRelationalData> data =
        data::GenerateSyntheticCorpus(gen);
    if (!data.ok()) {
      std::fprintf(stderr, "data: %s\n", data.status().ToString().c_str());
      return 1;
    }

    auto run = [&](bool use_error_matrix) {
      core::RhchmeOptions opts;
      opts.max_iterations = 50;
      opts.use_error_matrix = use_error_matrix;
      core::Rhchme solver(opts);
      Result<core::RhchmeResult> fit = solver.Fit(data.value());
      RHCHME_CHECK(fit.ok(), fit.status().ToString().c_str());
      return eval::ScoreLabels(data.value().Type(0).labels,
                               fit.value().hocc.labels[0])
          .value();
    };
    eval::Scores with = run(true);
    eval::Scores without = run(false);
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f%%", 100.0 * fraction);
    table.AddRow({label, TablePrinter::Fmt(with.fscore, 3),
                  TablePrinter::Fmt(without.fscore, 3),
                  TablePrinter::Fmt(with.nmi, 3),
                  TablePrinter::Fmt(without.nmi, 3)});
  }
  table.Print();

  // ---- Localisation: where does E_R's mass sit? -----------------------------
  data::SyntheticCorpusOptions gen = data::Multi5Preset();
  gen.corrupted_doc_fraction = 0.0;  // Corrupt manually to know the rows.
  Result<data::MultiTypeRelationalData> data_result =
      data::GenerateSyntheticCorpus(gen);
  RHCHME_CHECK(data_result.ok(), data_result.status().ToString().c_str());
  data::MultiTypeRelationalData data = std::move(data_result).value();

  la::Matrix r01 = data.Relation(0, 1);
  Rng rng(7);
  data::RowCorruptionOptions corr;
  corr.row_fraction = 0.1;
  corr.magnitude = 6.0;
  std::vector<std::size_t> bad_rows = data::CorruptRows(&r01, corr, &rng);
  RHCHME_CHECK(data.SetRelation(0, 1, r01).ok(), "set relation");

  core::RhchmeOptions opts;
  opts.max_iterations = 40;
  core::Rhchme solver(opts);
  Result<core::RhchmeResult> fit = solver.Fit(data);
  RHCHME_CHECK(fit.ok(), fit.status().ToString().c_str());
  // The solver keeps E_R factored; the dense view is built on demand.
  const la::Matrix e = core::ErrorMatrix(data, fit.value());

  // Rank document rows by ||E_R row||; count corrupted rows in the top-k.
  const std::size_t n_docs = data.Type(0).count;
  std::vector<std::pair<double, std::size_t>> by_norm;
  for (std::size_t i = 0; i < n_docs; ++i) {
    double norm = 0.0;
    for (std::size_t j = 0; j < e.cols(); ++j) norm += e(i, j) * e(i, j);
    by_norm.push_back({norm, i});
  }
  std::sort(by_norm.rbegin(), by_norm.rend());
  std::size_t hits = 0;
  for (std::size_t k = 0; k < bad_rows.size(); ++k) {
    if (std::find(bad_rows.begin(), bad_rows.end(), by_norm[k].second) !=
        bad_rows.end()) {
      ++hits;
    }
  }
  std::printf(
      "E_R localisation: %zu of the %zu largest E_R rows are exactly the "
      "corrupted documents (%zu corrupted in total)\n",
      hits, bad_rows.size(), bad_rows.size());
  return 0;
}
