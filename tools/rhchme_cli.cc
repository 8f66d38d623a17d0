// rhchme_cli — run the library end to end from the command line.
//
// Subcommands:
//   generate <preset|D1..D4> <out_dir> [seed]
//       Generate a synthetic corpus and save it as a dataset directory.
//   run <method> <dataset_dir> [out_labels.csv]
//       Fit one method (RHCHME, SRC, SNMTF, RMC) on a saved dataset;
//       prints FScore/NMI per labelled type and optionally writes the
//       document labels.
//   compare <dataset_dir>
//       Run all seven paper methods and print the comparison table.
//
// A leading --force_isa=<scalar|avx2|avx512> pins the dispatched
// kernel table (same contract as the RHCHME_FORCE_ISA environment
// variable, over which the flag wins); an ISA this binary or CPU cannot
// run is a clean error.
//
// Example:
//   rhchme_cli generate D1 /tmp/d1
//   rhchme_cli run RHCHME /tmp/d1 /tmp/d1_labels.csv
//   rhchme_cli --force_isa=scalar compare /tmp/d1

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "rhchme/rhchme.h"

namespace {

using namespace rhchme;  // NOLINT — CLI binary.

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rhchme_cli [--force_isa=ISA] generate <D1|D2|D3|D4> <out_dir> "
      "[seed]\n"
      "  rhchme_cli [--force_isa=ISA] run <RHCHME|SRC|SNMTF|RMC> "
      "<dataset_dir> [labels_out]\n"
      "  rhchme_cli [--force_isa=ISA] compare <dataset_dir>\n"
      "  ISA: scalar | avx2 | avx512 (pins the kernel table; "
      "overrides RHCHME_FORCE_ISA)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Strict decimal parse — "abc" or "12junk" must be a diagnostic, not a
/// silent seed of 0.
Result<uint64_t> ParseSeed(const char* arg) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("seed is not a decimal integer: '" +
                                   std::string(arg) + "'");
  }
  return static_cast<uint64_t>(v);
}

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<data::SyntheticCorpusOptions> preset = data::PresetByName(argv[2]);
  if (!preset.ok()) return Fail(preset.status());
  data::SyntheticCorpusOptions opts = preset.value();
  if (argc > 4) {
    Result<uint64_t> seed = ParseSeed(argv[4]);
    if (!seed.ok()) return Fail(seed.status());
    opts.seed = seed.value();
  }
  Result<data::MultiTypeRelationalData> corpus =
      data::GenerateSyntheticCorpus(opts);
  if (!corpus.ok()) return Fail(corpus.status());
  Status saved = io::SaveDataset(corpus.value(), argv[3]);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %zu types, %zu objects\n", argv[3],
              corpus.value().NumTypes(), corpus.value().TotalObjects());
  return 0;
}

void PrintScores(const data::MultiTypeRelationalData& data,
                 const std::vector<std::vector<std::size_t>>& labels) {
  for (std::size_t k = 0; k < data.NumTypes(); ++k) {
    if (data.Type(k).labels.empty()) continue;
    Result<eval::Scores> s =
        eval::ScoreLabels(data.Type(k).labels, labels[k]);
    if (s.ok()) {
      std::printf("%-12s FScore=%.3f NMI=%.3f\n", data.Type(k).name.c_str(),
                  s.value().fscore, s.value().nmi);
    }
  }
}

/// Warns when a fit stopped at its iteration cap without meeting its
/// tolerance. A degraded stop ends before the cap and is reported on its
/// own.
void WarnIfCapped(const std::string& method, const fact::HoccResult& hocc,
                  int max_iterations, double tolerance) {
  if (hocc.converged || hocc.iterations < max_iterations) return;
  const std::vector<double>& trace = hocc.objective_trace;
  double rel = 0.0;
  if (trace.size() >= 2) {
    const double prev = trace[trace.size() - 2];
    rel = std::fabs(prev - trace.back()) / std::max(1.0, std::fabs(prev));
  }
  std::fprintf(stderr,
               "warning: %s stopped at max_iterations=%d without meeting "
               "tolerance %g (last relative change %.2g)\n",
               method.c_str(), max_iterations, tolerance, rel);
}

int Run(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string method = argv[2];
  Result<data::MultiTypeRelationalData> data = io::LoadDataset(argv[3]);
  if (!data.ok()) return Fail(data.status());

  std::vector<std::vector<std::size_t>> labels;
  double seconds = 0.0;
  if (method == "RHCHME") {
    core::Rhchme solver{core::RhchmeOptions{}};
    Result<core::RhchmeResult> fit = solver.Fit(data.value());
    if (!fit.ok()) return Fail(fit.status());
    const core::FitDiagnostics& diag = fit.value().diagnostics;
    if (diag.RecoveryEvents() > 0) {
      std::printf(
          "recovered from %llu numerical fault(s): %llu guard trip(s), "
          "%llu backtrack(s), %llu ridge retry(ies), %llu degraded stop(s)\n",
          static_cast<unsigned long long>(diag.RecoveryEvents()),
          static_cast<unsigned long long>(diag.nan_guard_trips),
          static_cast<unsigned long long>(diag.backtracks),
          static_cast<unsigned long long>(diag.solve_ridge_retries),
          static_cast<unsigned long long>(diag.degraded_stops));
    }
    const fact::HoccResult& hocc = fit.value().hocc;
    WarnIfCapped(method, hocc, solver.options().max_iterations,
                 solver.options().tolerance);
    labels = hocc.labels;
    seconds = hocc.seconds;
  } else if (method == "SRC") {
    const baselines::SrcOptions opts;
    Result<fact::HoccResult> fit = baselines::RunSrc(data.value(), opts);
    if (!fit.ok()) return Fail(fit.status());
    WarnIfCapped(method, fit.value(), opts.max_iterations, opts.tolerance);
    labels = fit.value().labels;
    seconds = fit.value().seconds;
  } else if (method == "SNMTF") {
    const baselines::SnmtfOptions opts;
    Result<fact::HoccResult> fit = baselines::RunSnmtf(data.value(), opts);
    if (!fit.ok()) return Fail(fit.status());
    WarnIfCapped(method, fit.value(), opts.max_iterations, opts.tolerance);
    labels = fit.value().labels;
    seconds = fit.value().seconds;
  } else if (method == "RMC") {
    const baselines::RmcOptions opts;
    Result<baselines::RmcResult> fit = baselines::RunRmc(data.value(), opts);
    if (!fit.ok()) return Fail(fit.status());
    WarnIfCapped(method, fit.value().hocc, opts.max_iterations,
                 opts.tolerance);
    labels = fit.value().hocc.labels;
    seconds = fit.value().hocc.seconds;
  } else {
    return Usage();
  }

  std::printf("%s finished in %.2fs\n", method.c_str(), seconds);
  PrintScores(data.value(), labels);
  if (argc > 4) {
    Status written = io::WriteLabels(labels[0], argv[4]);
    if (!written.ok()) return Fail(written);
    std::printf("document labels written to %s\n", argv[4]);
  }
  return 0;
}

int Compare(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<data::MultiTypeRelationalData> data = io::LoadDataset(argv[2]);
  if (!data.ok()) return Fail(data.status());
  eval::PaperBenchOptions bench;
  Result<std::vector<eval::MethodRun>> runs =
      eval::RunPaperMethods(data.value(), argv[2], bench);
  if (!runs.ok()) return Fail(runs.status());
  TablePrinter t("Method comparison on " + std::string(argv[2]),
                 {"Method", "FScore", "NMI", "Time(s)"});
  for (const auto& r : runs.value()) {
    t.AddRow({r.method, TablePrinter::Fmt(r.scores.fscore, 3),
              TablePrinter::Fmt(r.scores.nmi, 3),
              TablePrinter::Fmt(r.seconds, 2)});
  }
  t.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel leading --force_isa=... before subcommand dispatch so the
  // positional argv indices the subcommands expect stay intact.
  while (argc >= 2 &&
         std::strncmp(argv[1], "--force_isa=", 12) == 0) {
    const Status st = la::simd::ForceIsa(argv[1] + 12);
    if (!st.ok()) return Fail(st);
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
  }
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "run") == 0) return Run(argc, argv);
  if (std::strcmp(argv[1], "compare") == 0) return Compare(argc, argv);
  return Usage();
}
