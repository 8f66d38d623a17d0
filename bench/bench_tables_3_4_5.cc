// Reproduces Tables II–V of the paper:
//   Table II  — dataset characteristics (our scaled analogues),
//   Table III — FScore per dataset and method,
//   Table IV  — NMI per dataset and method,
//   Table V   — running time per dataset and method.
//
// Methods: DR-T, DR-C, DR-TC (two-way DRCC variants), SRC, SNMTF, RMC and
// RHCHME, all at the tuned defaults of §IV.B. Deterministic (fixed seeds).
// Absolute values depend on the synthetic substitution of the paper's
// corpora (src/data/synthetic.h); compare the shape of the tables, not
// their values.

#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "rhchme/rhchme.h"

namespace {

using rhchme::TablePrinter;

struct DatasetRun {
  std::string id;
  std::string description;
  rhchme::data::SyntheticCorpusOptions opts;
};

}  // namespace

int main() {
  const std::vector<DatasetRun> datasets = {
      {"D1", "Multi5", rhchme::data::Multi5Preset()},
      {"D2", "Multi10", rhchme::data::Multi10Preset()},
      {"D3", "R-Min20Max200", rhchme::data::ReutersMin20Max200Preset()},
      {"D4", "R-Top10", rhchme::data::ReutersTop10Preset()},
  };

  // ---- Table II: characteristics ------------------------------------------
  TablePrinter table2("TABLE II — data sets used for evaluation (scaled "
                      "synthetic analogues; see src/data/synthetic.h)",
                      {"Data Set", "Description", "#Classes", "#Documents",
                       "#Terms", "#Concepts"});
  for (const auto& d : datasets) {
    const std::size_t docs =
        std::accumulate(d.opts.docs_per_class.begin(),
                        d.opts.docs_per_class.end(), std::size_t{0});
    table2.AddRow({d.id, d.description,
                   std::to_string(d.opts.docs_per_class.size()),
                   std::to_string(docs), std::to_string(d.opts.n_terms),
                   std::to_string(d.opts.n_concepts)});
  }
  table2.Print();

  // ---- Run the full method grid --------------------------------------------
  rhchme::eval::PaperBenchOptions bench;
  bench.restarts = 3;  // Average over inits; MU methods are init-sensitive.
  bench.rhchme.max_iterations = 60;
  bench.snmtf.max_iterations = 60;
  bench.rmc.max_iterations = 60;
  bench.src.max_iterations = 60;
  bench.drcc.max_iterations = 60;

  const std::vector<std::string> methods = {"DR-T", "DR-C",  "DR-TC", "SRC",
                                            "SNMTF", "RMC", "RHCHME"};
  std::map<std::string, std::map<std::string, rhchme::eval::MethodRun>> grid;

  for (const auto& d : datasets) {
    auto data = rhchme::data::GenerateSyntheticCorpus(d.opts);
    if (!data.ok()) {
      std::fprintf(stderr, "%s: %s\n", d.id.c_str(),
                   data.status().ToString().c_str());
      return 1;
    }
    std::printf("running %s (%s): n=%zu objects...\n", d.id.c_str(),
                d.description.c_str(), data.value().TotalObjects());
    auto runs = rhchme::eval::RunPaperMethods(data.value(), d.id, bench);
    if (!runs.ok()) {
      std::fprintf(stderr, "%s: %s\n", d.id.c_str(),
                   runs.status().ToString().c_str());
      return 1;
    }
    for (const auto& run : runs.value()) grid[run.method][d.id] = run;
  }
  std::printf("\n");

  // ---- Tables III, IV, V ----------------------------------------------------
  auto build = [&](const char* title, auto cell) {
    TablePrinter t(title, {"Methods", "D1", "D2", "D3", "D4", "Average"});
    for (const auto& m : methods) {
      std::vector<std::string> row = {m};
      double sum = 0.0;
      for (const auto& d : datasets) {
        const double v = cell(grid[m][d.id]);
        sum += v;
        row.push_back(TablePrinter::Fmt(v, 3));
      }
      row.push_back(TablePrinter::Fmt(sum / datasets.size(), 3));
      t.AddRow(std::move(row));
    }
    return t;
  };

  TablePrinter table3 = build(
      "TABLE III — FScore for each data set and method",
      [](const rhchme::eval::MethodRun& r) { return r.scores.fscore; });
  TablePrinter table4 = build(
      "TABLE IV — NMI for each data set and method",
      [](const rhchme::eval::MethodRun& r) { return r.scores.nmi; });
  table3.Print();
  table4.Print();

  TablePrinter table5("TABLE V — running time (in seconds) of each method",
                      {"Methods", "D1", "D2", "D3", "D4"});
  for (const auto& m : methods) {
    std::vector<std::string> row = {m};
    for (const auto& d : datasets) {
      row.push_back(TablePrinter::Fmt(grid[m][d.id].seconds, 2));
    }
    table5.AddRow(std::move(row));
  }
  table5.Print();

  (void)table3.WriteCsv("results_table3_fscore.csv");
  (void)table4.WriteCsv("results_table4_nmi.csv");
  (void)table5.WriteCsv("results_table5_runtime.csv");
  std::printf("CSV written: results_table{3,4,5}_*.csv\n");
  return 0;
}
