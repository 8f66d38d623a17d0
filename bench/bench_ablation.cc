// Ablation bench for RHCHME's design choices.
//
// Not a paper table — it isolates the contribution of each component the
// paper argues for in §III:
//   1. ensemble members: pNN only (≈SNMTF's estimate), subspace only,
//      or the full heterogeneous ensemble (Eq. 12);
//   2. the sample-wise sparse error matrix E_R (Eq. 13), evaluated on
//      clean and corrupted data;
//   3. the row ℓ1 normalisation of Eq. 22 (trivial-solution guard).

#include <cstdio>
#include <string>
#include <vector>

#include "rhchme/rhchme.h"

namespace {
using namespace rhchme;  // NOLINT — bench binary.

eval::Scores RunVariant(const data::MultiTypeRelationalData& d,
                        core::RhchmeOptions opts) {
  opts.max_iterations = 50;
  core::Rhchme solver(opts);
  auto fit = solver.Fit(d);
  RHCHME_CHECK(fit.ok(), fit.status().ToString().c_str());
  return eval::ScoreLabels(d.Type(0).labels, fit.value().hocc.labels[0])
      .value();
}

void Section(const char* title, const data::MultiTypeRelationalData& d,
             const std::vector<std::pair<std::string, core::RhchmeOptions>>&
                 variants,
             TablePrinter* csv) {
  TablePrinter t(title, {"Variant", "FScore", "NMI"});
  for (const auto& [name, opts] : variants) {
    eval::Scores s = RunVariant(d, opts);
    t.AddRow({name, TablePrinter::Fmt(s.fscore, 3),
              TablePrinter::Fmt(s.nmi, 3)});
    csv->AddRow({title, name, TablePrinter::Fmt(s.fscore, 4),
                 TablePrinter::Fmt(s.nmi, 4)});
  }
  t.Print();
}

}  // namespace

int main() {
  TablePrinter csv("ablation", {"section", "variant", "fscore", "nmi"});

  // ---- Ensemble members on D3' ---------------------------------------------
  {
    auto data =
        data::GenerateSyntheticCorpus(data::ReutersMin20Max200Preset());
    RHCHME_CHECK(data.ok(), data.status().ToString().c_str());
    core::RhchmeOptions full;
    core::RhchmeOptions knn_only = full;
    knn_only.ensemble.include_subspace = false;
    core::RhchmeOptions sub_only = full;
    sub_only.ensemble.include_knn = false;
    core::RhchmeOptions no_laplacian = full;
    no_laplacian.lambda = 0.0;
    Section("Ablation A — ensemble members (D3')", data.value(),
            {{"full ensemble (Eq. 12)", full},
             {"pNN member only (SNMTF-style)", knn_only},
             {"subspace member only", sub_only},
             {"no manifold regulariser (lambda=0)", no_laplacian}},
            &csv);
  }

  // ---- Error matrix under corruption (D1' at two corruption levels) --------
  for (double corruption : {0.0, 0.15}) {
    data::SyntheticCorpusOptions gen = data::Multi5Preset();
    gen.corrupted_doc_fraction = corruption;
    gen.corruption_magnitude = 5.0;
    auto data = data::GenerateSyntheticCorpus(gen);
    RHCHME_CHECK(data.ok(), data.status().ToString().c_str());
    core::RhchmeOptions with_er;
    core::RhchmeOptions without_er = with_er;
    without_er.use_error_matrix = false;
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Ablation B — error matrix (D1', %.0f%% corrupted rows)",
                  100.0 * corruption);
    Section(title, data.value(),
            {{"with E_R (Eq. 15)", with_er},
             {"without E_R (squared loss only)", without_er}},
            &csv);
  }

  // ---- Row normalisation ----------------------------------------------------
  {
    auto data = data::GenerateSyntheticCorpus(data::Multi10Preset());
    RHCHME_CHECK(data.ok(), data.status().ToString().c_str());
    core::RhchmeOptions with_norm;
    core::RhchmeOptions without_norm = with_norm;
    without_norm.normalize_rows = false;
    // The trivial-solution risk grows with lambda; test at a large value.
    core::RhchmeOptions big_lambda_norm = with_norm;
    big_lambda_norm.lambda = 1500.0;
    core::RhchmeOptions big_lambda_free = without_norm;
    big_lambda_free.lambda = 1500.0;
    Section("Ablation C — row l1 normalisation (D2')", data.value(),
            {{"normalised (Eq. 22), lambda=250", with_norm},
             {"unnormalised, lambda=250", without_norm},
             {"normalised, lambda=1500", big_lambda_norm},
             {"unnormalised, lambda=1500", big_lambda_free}},
            &csv);
  }

  (void)csv.WriteCsv("results_ablation.csv");
  std::printf("CSV written: results_ablation.csv\n");
  return 0;
}
