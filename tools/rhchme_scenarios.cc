// Robustness scenario-matrix runner (ROADMAP item 5).
//
// Sweeps corruption fraction x relation sparsity x class imbalance over
// RHCHME (on both graph backends) and the four baselines, then
// writes QUALITY_scenarios.json for tools/quality_compare.py — the
// quality twin of bench_kernels + tools/bench_compare.py.
//
// Usage:
//   rhchme_scenarios [--workload corpus|blockworld] [--quick]
//                    [--out FILE] [--threads N] [--force_isa ISA]
//
//   --quick      CI grid: same 3x3x2 cell coverage, fewer replicate seeds
//                and a lower iteration cap. The committed baseline is
//                generated with this flag (Release build).
//   --threads    Pool size; results are bit-identical for any value
//                (tests/scenario_test.cc pins that down).
//   --force_isa  Pins the dispatched kernel table (scalar|avx2|avx512);
//                overrides RHCHME_FORCE_ISA. The resolved table is
//                recorded in the report's JSON context, which is what
//                tools/quality_compare.py keys the comparison on.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "eval/scenario.h"
#include "la/simd.h"
#include "util/parallel.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload corpus|blockworld] [--quick] "
               "[--out FILE] [--threads N] [--force_isa ISA]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using rhchme::eval::ScenarioGridOptions;
  using rhchme::eval::ScenarioWorkload;

  ScenarioGridOptions opts;
  std::string out = "QUALITY_scenarios.json";
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      const std::string w = argv[++i];
      if (w == "corpus") {
        opts.workload = ScenarioWorkload::kCorpus;
      } else if (w == "blockworld") {
        opts.workload = ScenarioWorkload::kBlockWorld;
      } else {
        std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
        return Usage(argv[0]);
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      rhchme::util::SetNumThreads(std::atoi(argv[++i]));
    } else if (arg == "--force_isa" && i + 1 < argc) {
      const rhchme::Status st = rhchme::la::simd::ForceIsa(argv[++i]);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (quick) {
    // Same cell coverage as the full run — the gate compares per-cell —
    // but fewer replicates and a lower iteration cap to fit a CI leg.
    opts.seeds = {1, 2};
    opts.max_iterations = 25;
  }

  std::printf("scenario grid: workload=%s cells=%zux%zux%zu seeds=%zu "
              "max_iterations=%d\n",
              rhchme::eval::ScenarioWorkloadName(opts.workload),
              opts.imbalances.size(), opts.corruption_fractions.size(),
              opts.sparsity_levels.size(), opts.seeds.size(),
              opts.max_iterations);

  rhchme::Result<rhchme::eval::ScenarioReport> report =
      rhchme::eval::RunScenarioGrid(opts);
  if (!report.ok()) {
    std::fprintf(stderr, "scenario grid failed: %s\n",
                 report.status().message().c_str());
    return 1;
  }

  for (const rhchme::eval::ScenarioCell& c : report.value().cells) {
    std::printf(
        "%-10s corrupt=%.2f sparse=%.2f %-6s %-16s nmi=%.3f ari=%.3f "
        "purity=%.3f\n",
        rhchme::eval::ImbalanceKindName(c.imbalance), c.corruption,
        c.sparsity, c.method.c_str(),
        c.variant.empty() ? "-" : c.variant.c_str(), c.nmi, c.ari, c.purity);
  }

  const rhchme::Status st =
      rhchme::eval::WriteScenarioReportJson(report.value(), out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cells)\n", out.c_str(),
              report.value().cells.size());
  return 0;
}
