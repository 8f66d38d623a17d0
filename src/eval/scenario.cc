#include "eval/scenario.h"

#include <algorithm>
#include <cstdio>

#include "baselines/drcc.h"
#include "baselines/rmc.h"
#include "baselines/snmtf.h"
#include "baselines/src_clustering.h"
#include "core/rhchme_solver.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/simd.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace eval {

const char* ScenarioWorkloadName(ScenarioWorkload w) {
  switch (w) {
    case ScenarioWorkload::kCorpus:
      return "corpus";
    case ScenarioWorkload::kBlockWorld:
      return "blockworld";
  }
  return "unknown";
}

const char* ImbalanceKindName(ImbalanceKind k) {
  switch (k) {
    case ImbalanceKind::kBalanced:
      return "balanced";
    case ImbalanceKind::kSkewed:
      return "skewed";
  }
  return "unknown";
}

const char* CorruptionModeName(data::RowCorruptionMode m) {
  switch (m) {
    case data::RowCorruptionMode::kSpike:
      return "spike";
    case data::RowCorruptionMode::kNonFinite:
      return "nonfinite";
  }
  return "unknown";
}

std::vector<RhchmeVariant> DefaultRhchmeVariants() {
  return {{"exact"}, {"descent"}};
}

namespace {

const std::vector<std::string>& KnownMethods() {
  static const std::vector<std::string> kMethods = {"RHCHME", "DR-T", "SRC",
                                                    "SNMTF", "RMC"};
  return kMethods;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

Status ScenarioGridOptions::Validate() const {
  if (corruption_fractions.empty() || sparsity_levels.empty() ||
      imbalances.empty() || seeds.empty() || corruption_modes.empty()) {
    return Status::InvalidArgument("every grid axis needs at least one value");
  }
  for (double c : corruption_fractions) {
    if (!(c >= 0.0 && c <= 1.0)) {
      return Status::InvalidArgument("corruption fractions must be in [0,1]");
    }
  }
  for (double s : sparsity_levels) {
    if (!(s >= 0.0 && s < 1.0)) {
      return Status::InvalidArgument("sparsity levels must be in [0,1)");
    }
  }
  for (const std::string& m : methods) {
    if (!Contains(KnownMethods(), m)) {
      return Status::InvalidArgument("unknown method: " + m);
    }
  }
  for (const RhchmeVariant& v : rhchme_variants) {
    if (v.backend != "exact" && v.backend != "descent") {
      return Status::InvalidArgument("unknown graph backend: " + v.backend);
    }
  }
  if (n_classes < 2) {
    return Status::InvalidArgument("grid needs at least two classes");
  }
  if (docs_per_class < 2 * n_classes) {
    return Status::InvalidArgument(
        "docs_per_class too small for the skewed 4:2:1 shape");
  }
  if (objects_per_type < 2 * n_classes) {
    return Status::InvalidArgument(
        "objects_per_type too small for the skewed 4:2:1 shape");
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Accumulates one fit outcome per replicate into a seed-averaged cell.
struct MetricSum {
  double nmi = 0.0, ari = 0.0, purity = 0.0, fscore = 0.0, seconds = 0.0;
  double recovery = 0.0;  ///< FitDiagnostics::RecoveryEvents(); RHCHME only.
  int n = 0;
};

Status ScoreInto(const std::vector<std::size_t>& truth,
                 const std::vector<std::size_t>& predicted, double seconds,
                 MetricSum* acc) {
  Result<double> nmi = Nmi(truth, predicted);
  if (!nmi.ok()) return nmi.status();
  Result<double> ari = AdjustedRandIndex(truth, predicted);
  if (!ari.ok()) return ari.status();
  Result<double> purity = Purity(truth, predicted);
  if (!purity.ok()) return purity.status();
  Result<double> fscore = FScore(truth, predicted);
  if (!fscore.ok()) return fscore.status();
  acc->nmi += nmi.value();
  acc->ari += ari.value();
  acc->purity += purity.value();
  acc->fscore += fscore.value();
  acc->seconds += seconds;
  ++acc->n;
  return Status::OK();
}

/// 4:2:1 skew of `base` over `count` slots, floored at n_classes-safe
/// minimums so every class/type keeps enough objects to cluster.
std::vector<std::size_t> SkewedSizes(std::size_t base, std::size_t count,
                                     std::size_t floor_size) {
  static const double kWeights[] = {2.0, 1.0, 0.5};
  std::vector<std::size_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double w = kWeights[i % 3];
    sizes[i] = std::max<std::size_t>(
        floor_size, static_cast<std::size_t>(w * static_cast<double>(base)));
  }
  return sizes;
}

Result<data::MultiTypeRelationalData> MakeCellData(
    const ScenarioGridOptions& opts, ImbalanceKind imbalance,
    double corruption, data::RowCorruptionMode corruption_mode,
    double sparsity, uint64_t seed) {
  if (opts.workload == ScenarioWorkload::kCorpus) {
    data::SyntheticCorpusOptions gen;
    gen.docs_per_class =
        imbalance == ImbalanceKind::kBalanced
            ? std::vector<std::size_t>(opts.n_classes, opts.docs_per_class)
            : SkewedSizes(opts.docs_per_class, opts.n_classes,
                          /*floor_size=*/4);
    gen.n_terms = opts.n_terms;
    gen.n_concepts = opts.n_concepts;
    gen.topics_per_class = 2;
    gen.core_terms_per_topic = 6;
    gen.doc_length_mean = 60.0;
    gen.corrupted_doc_fraction = corruption;
    gen.corruption_mode = corruption_mode;
    gen.relation_dropout = sparsity;
    gen.seed = seed;
    return data::GenerateSyntheticCorpus(gen);
  }
  data::BlockWorldOptions gen;
  gen.objects_per_type =
      imbalance == ImbalanceKind::kBalanced
          ? std::vector<std::size_t>(3, opts.objects_per_type)
          : SkewedSizes(opts.objects_per_type, 3,
                        /*floor_size=*/opts.n_classes * 2);
  gen.n_classes = opts.n_classes;
  gen.dropout = sparsity;
  gen.corrupted_fraction = corruption;
  gen.corruption_mode = corruption_mode;
  gen.seed = seed;
  return data::GenerateBlockWorld(gen);
}

/// Paper-tuned settings per workload: tf-idf corpora use the paper's
/// lambda/beta magnitudes, the O(1)-magnitude block world the webpage
/// example's (regularisers scale with ||R||²_F).
core::RhchmeOptions BaseRhchmeOptions(const ScenarioGridOptions& opts) {
  core::RhchmeOptions o;
  o.max_iterations = opts.max_iterations;
  if (opts.workload == ScenarioWorkload::kBlockWorld) {
    o.lambda = 5.0;
    o.beta = 500.0;
  }
  return o;
}

/// One (method, variant) slot of a cell with its replicate accumulator.
struct MethodSlot {
  std::string method;
  std::string variant;  ///< Empty for baselines.
  RhchmeVariant rhchme;
  MetricSum sum;
};

Status RunBaselineReplicate(const std::string& method,
                            const data::MultiTypeRelationalData& d,
                            const ScenarioGridOptions& opts, uint64_t seed,
                            MetricSum* acc) {
  const std::vector<std::size_t>& truth = d.Type(0).labels;
  if (method == "DR-T") {
    baselines::DrccOptions o;
    o.row_clusters = d.Type(0).clusters;
    o.col_clusters = d.Type(1).clusters;
    o.max_iterations = opts.max_iterations;
    o.seed = seed;
    Result<baselines::DrccResult> fit = baselines::RunDrcc(d.Relation(0, 1), o);
    if (!fit.ok()) return fit.status();
    return ScoreInto(truth, fit.value().row_labels, fit.value().seconds, acc);
  }
  if (method == "SRC") {
    baselines::SrcOptions o;
    o.max_iterations = opts.max_iterations;
    o.seed = seed;
    Result<fact::HoccResult> fit = baselines::RunSrc(d, o);
    if (!fit.ok()) return fit.status();
    return ScoreInto(truth, fit.value().labels[0], fit.value().seconds, acc);
  }
  if (method == "SNMTF") {
    baselines::SnmtfOptions o;
    if (opts.workload == ScenarioWorkload::kBlockWorld) o.lambda = 1.0;
    o.max_iterations = opts.max_iterations;
    o.seed = seed;
    Result<fact::HoccResult> fit = baselines::RunSnmtf(d, o);
    if (!fit.ok()) return fit.status();
    return ScoreInto(truth, fit.value().labels[0], fit.value().seconds, acc);
  }
  if (method == "RMC") {
    baselines::RmcOptions o;
    if (opts.workload == ScenarioWorkload::kBlockWorld) o.lambda = 1.0;
    o.max_iterations = opts.max_iterations;
    o.seed = seed;
    Result<baselines::RmcResult> fit = baselines::RunRmc(d, o);
    if (!fit.ok()) return fit.status();
    return ScoreInto(truth, fit.value().hocc.labels[0],
                     fit.value().hocc.seconds, acc);
  }
  return Status::InvalidArgument("unknown baseline: " + method);
}

void ApplyVariant(const RhchmeVariant& v, core::RhchmeOptions* o) {
  o->ensemble.knn.backend = v.backend == "descent"
                                ? graph::KnnBackend::kNNDescent
                                : graph::KnnBackend::kExact;
}

/// Runs every RHCHME variant slot on one replicate. The ensemble build
/// time is charged to the fit so `seconds` reflects a full fit.
Status RunRhchmeReplicate(std::vector<MethodSlot*>& slots,
                          const data::MultiTypeRelationalData& d,
                          const ScenarioGridOptions& opts, uint64_t seed) {
  const std::vector<std::size_t>& truth = d.Type(0).labels;
  const fact::BlockStructure blocks = fact::BuildBlockStructure(d);
  for (MethodSlot* s : slots) {
    core::RhchmeOptions o = BaseRhchmeOptions(opts);
    ApplyVariant(s->rhchme, &o);
    o.seed = seed;
    Stopwatch ensemble_watch;
    Result<core::HeterogeneousEnsemble> ensemble =
        core::BuildEnsemble(d, blocks, o.ensemble);
    if (!ensemble.ok()) return ensemble.status();
    const double ensemble_seconds = ensemble_watch.ElapsedSeconds();
    Result<core::RhchmeResult> fit =
        core::Rhchme(o).FitWithEnsemble(d, ensemble.value());
    if (!fit.ok()) return fit.status();
    RHCHME_RETURN_IF_ERROR(
        ScoreInto(truth, fit.value().hocc.labels[0],
                  fit.value().hocc.seconds + ensemble_seconds, &s->sum));
    s->sum.recovery +=
        static_cast<double>(fit.value().diagnostics.RecoveryEvents());
  }
  return Status::OK();
}

}  // namespace

Result<ScenarioReport> RunScenarioGrid(const ScenarioGridOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::vector<std::string>& methods =
      opts.methods.empty() ? KnownMethods() : opts.methods;
  const std::vector<RhchmeVariant> variants =
      opts.rhchme_variants.empty() ? DefaultRhchmeVariants()
                                   : opts.rhchme_variants;

  ScenarioReport report;
  report.grid = opts;

  for (ImbalanceKind imbalance : opts.imbalances) {
    for (data::RowCorruptionMode mode : opts.corruption_modes) {
      const bool nonfinite = mode == data::RowCorruptionMode::kNonFinite;
      for (double corruption : opts.corruption_fractions) {
        // A kNonFinite cell at corruption 0 plants nothing — it would
        // duplicate the spike cell bit-for-bit, so it is skipped.
        if (nonfinite && corruption == 0.0) continue;
        for (double sparsity : opts.sparsity_levels) {
          // One slot per (method, variant); RHCHME expands to its
          // variants. Baselines have no numerical guards — on NaN/Inf
          // input they only crash or emit NaN metrics — so kNonFinite
          // cells run the guarded RHCHME variants alone.
          std::vector<MethodSlot> slots;
          for (const std::string& m : methods) {
            if (m == "RHCHME") {
              for (const RhchmeVariant& v : variants) {
                slots.push_back({m, v.Name(), v, {}});
              }
            } else if (!nonfinite) {
              slots.push_back({m, "", {}, {}});
            }
          }
          if (slots.empty()) continue;

          for (uint64_t seed : opts.seeds) {
            Result<data::MultiTypeRelationalData> d =
                MakeCellData(opts, imbalance, corruption, mode, sparsity,
                             seed);
            if (!d.ok()) return d.status();

            std::vector<MethodSlot*> rhchme_slots;
            for (MethodSlot& s : slots) {
              if (s.method == "RHCHME") rhchme_slots.push_back(&s);
            }
            if (!rhchme_slots.empty()) {
              RHCHME_RETURN_IF_ERROR(
                  RunRhchmeReplicate(rhchme_slots, d.value(), opts, seed));
            }
            for (MethodSlot& s : slots) {
              if (s.method == "RHCHME") continue;
              RHCHME_RETURN_IF_ERROR(RunBaselineReplicate(
                  s.method, d.value(), opts, seed, &s.sum));
            }
          }

          for (const MethodSlot& s : slots) {
            ScenarioCell cell;
            cell.workload = opts.workload;
            cell.imbalance = imbalance;
            cell.corruption = corruption;
            cell.corruption_mode = mode;
            cell.sparsity = sparsity;
            cell.method = s.method;
            cell.variant = s.variant;
            const double n = static_cast<double>(s.sum.n);
            cell.nmi = s.sum.nmi / n;
            cell.ari = s.sum.ari / n;
            cell.purity = s.sum.purity / n;
            cell.fscore = s.sum.fscore / n;
            cell.seconds = s.sum.seconds / n;
            cell.recovery_events = s.sum.recovery / n;
            cell.replicates = s.sum.n;
            report.cells.push_back(cell);
          }
        }
      }
    }
  }
  return report;
}

Status WriteScenarioReportJson(const ScenarioReport& report,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const ScenarioGridOptions& g = report.grid;
  std::fprintf(f, "{\n  \"context\": {\n");
#ifdef NDEBUG
  std::fprintf(f, "    \"rhchme_build_type\": \"release\",\n");
#else
  std::fprintf(f, "    \"rhchme_build_type\": \"debug\",\n");
#endif
  // The runtime-dispatched table the run executed (after any force
  // override) and what auto-detection would have picked; the compare
  // gate keys on the former.
  std::fprintf(f, "    \"rhchme_simd\": \"%s\",\n", la::simd::IsaName());
  std::fprintf(f, "    \"rhchme_simd_detected\": \"%s\",\n",
               la::simd::DetectedIsaName());
  std::fprintf(f, "    \"workload\": \"%s\",\n",
               ScenarioWorkloadName(g.workload));
  auto write_doubles = [f](const char* key, const std::vector<double>& v) {
    std::fprintf(f, "    \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%g", i ? ", " : "", v[i]);
    }
    std::fprintf(f, "],\n");
  };
  write_doubles("corruption_fractions", g.corruption_fractions);
  std::fprintf(f, "    \"corruption_modes\": [");
  for (std::size_t i = 0; i < g.corruption_modes.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 CorruptionModeName(g.corruption_modes[i]));
  }
  std::fprintf(f, "],\n");
  write_doubles("sparsity_levels", g.sparsity_levels);
  std::fprintf(f, "    \"imbalances\": [");
  for (std::size_t i = 0; i < g.imbalances.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 ImbalanceKindName(g.imbalances[i]));
  }
  std::fprintf(f, "],\n    \"seeds\": [");
  for (std::size_t i = 0; i < g.seeds.size(); ++i) {
    std::fprintf(f, "%s%llu", i ? ", " : "",
                 static_cast<unsigned long long>(g.seeds[i]));
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"max_iterations\": %d\n", g.max_iterations);
  std::fprintf(f, "  },\n  \"cells\": [\n");
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const ScenarioCell& c = report.cells[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"imbalance\": \"%s\", "
        "\"corruption\": %g, \"corruption_mode\": \"%s\", "
        "\"sparsity\": %g, \"method\": \"%s\", "
        "\"variant\": \"%s\", \"nmi\": %.17g, \"ari\": %.17g, "
        "\"purity\": %.17g, \"fscore\": %.17g, \"seconds\": %.6g, "
        "\"recovery_events\": %g, \"replicates\": %d}%s\n",
        ScenarioWorkloadName(c.workload), ImbalanceKindName(c.imbalance),
        c.corruption, CorruptionModeName(c.corruption_mode), c.sparsity,
        c.method.c_str(), c.variant.c_str(), c.nmi, c.ari, c.purity,
        c.fscore, c.seconds, c.recovery_events, c.replicates,
        i + 1 < report.cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace eval
}  // namespace rhchme
