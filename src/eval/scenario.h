// Robustness scenario matrix (ROADMAP item 5) — the quality twin of the
// bench_kernels perf gate.
//
// The paper's core claim is robustness: the heterogeneous manifold
// ensemble should degrade gracefully under corrupted samples and
// sparse/imbalanced relations. This module makes that claim measurable
// and CI-gateable: a declarative grid sweeps corruption fraction ×
// relation sparsity × class/type imbalance over a synthetic workload
// family (the document/term/concept corpus of examples/
// document_clustering.cpp or the K-type block world of examples/
// webpage_clustering.cpp), runs RHCHME — on either graph backend (exact /
// NN-descent) — and the four baselines (DR-T, SRC, SNMTF, RMC) on every cell, and
// aggregates NMI/ARI/purity/FScore over a fixed replicate seed set.
//
// WriteScenarioReportJson emits QUALITY_scenarios.json with a context
// block mirroring BENCH_kernels.json (`rhchme_build_type`,
// `rhchme_simd`, grid metadata); tools/quality_compare.py fails CI when
// any cell drops beyond a threshold against the committed
// QUALITY_scenarios.baseline.json — exactly how tools/bench_compare.py
// gates perf.
//
// Determinism: cell data derives from the replicate seed through the
// generators' DeriveStreamSeed streams, every fit honours the library's
// thread-count determinism contract, and metrics are serialised with
// round-trippable precision — so a grid run (and its JSON artefact,
// timings aside) is bit-identical for any pool size
// (tests/scenario_test.cc pins this down).

#ifndef RHCHME_EVAL_SCENARIO_H_
#define RHCHME_EVAL_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/corruption.h"
#include "util/status.h"

namespace rhchme {
namespace eval {

/// Workload family a grid runs on.
enum class ScenarioWorkload {
  kCorpus,      ///< 3-type documents/terms/concepts synthetic corpus.
  kBlockWorld,  ///< 3-type planted block world (webpage-style, dense-ish).
};

const char* ScenarioWorkloadName(ScenarioWorkload w);

/// Class/type size shape of a cell — the imbalance axis.
enum class ImbalanceKind {
  kBalanced,  ///< Equal class sizes (corpus) / type sizes (block world).
  kSkewed,    ///< 4:2:1 class sizes (corpus) / type sizes (block world).
};

const char* ImbalanceKindName(ImbalanceKind k);

/// JSON tag of a corruption payload: "spike" or "nonfinite".
const char* CorruptionModeName(data::RowCorruptionMode m);

/// One RHCHME configuration under the grid: its graph backend.
struct RhchmeVariant {
  /// pNN construction backend for both ensemble members: "exact" or
  /// "descent".
  std::string backend = "exact";

  /// "exact" — the `variant` field of the emitted cells.
  std::string Name() const { return backend; }
};

/// The default RHCHME coverage: both graph backends.
std::vector<RhchmeVariant> DefaultRhchmeVariants();

struct ScenarioGridOptions {
  ScenarioWorkload workload = ScenarioWorkload::kCorpus;

  // ---- Grid axes ----------------------------------------------------------
  /// Fraction of type-0 objects whose relation rows are corrupted.
  std::vector<double> corruption_fractions = {0.0, 0.15, 0.3};
  /// Corrupted-entry payloads. kNonFinite cells plant NaN/Inf instead of
  /// spikes and exercise the solver's numerical guards end-to-end; they
  /// skip corruption == 0 (identical to the spike cell) and skip the
  /// baselines (which have no guards and would just crash or emit NaN).
  std::vector<data::RowCorruptionMode> corruption_modes = {
      data::RowCorruptionMode::kSpike, data::RowCorruptionMode::kNonFinite};
  /// Entry dropout of the relation blocks (missing observations).
  std::vector<double> sparsity_levels = {0.0, 0.3, 0.6};
  std::vector<ImbalanceKind> imbalances = {ImbalanceKind::kBalanced,
                                           ImbalanceKind::kSkewed};
  /// Replicate seeds; every cell is averaged over all of them. Each seed
  /// drives both the data generation and the solver initialisation.
  std::vector<uint64_t> seeds = {1, 2, 3};

  // ---- Methods ------------------------------------------------------------
  /// Subset of {"RHCHME", "DR-T", "SRC", "SNMTF", "RMC"}; empty runs all.
  std::vector<std::string> methods;
  /// RHCHME backend coverage; empty selects
  /// DefaultRhchmeVariants().
  std::vector<RhchmeVariant> rhchme_variants;

  // ---- Problem scale ------------------------------------------------------
  /// Corpus: balanced class sizes are {docs_per_class × n_classes};
  /// skewed scales them 4:2:1 (same shape family as the paper's D3/D4).
  std::size_t n_classes = 3;
  std::size_t docs_per_class = 16;
  std::size_t n_terms = 72;
  std::size_t n_concepts = 48;
  /// Block world: balanced type sizes are {objects_per_type × 3 types};
  /// skewed scales them 4:2:1.
  std::size_t objects_per_type = 32;

  /// Iteration cap shared by every method (the grid measures relative
  /// degradation, not converged absolutes).
  int max_iterations = 40;

  Status Validate() const;
};

/// Seed-averaged quality of one (cell, method[, variant]) combination.
struct ScenarioCell {
  ScenarioWorkload workload = ScenarioWorkload::kCorpus;
  ImbalanceKind imbalance = ImbalanceKind::kBalanced;
  double corruption = 0.0;
  data::RowCorruptionMode corruption_mode = data::RowCorruptionMode::kSpike;
  double sparsity = 0.0;
  std::string method;   ///< "RHCHME", "DR-T", "SRC", "SNMTF", "RMC".
  std::string variant;  ///< RHCHME graph backend; empty for baselines.
  double nmi = 0.0;
  double ari = 0.0;
  double purity = 0.0;
  double fscore = 0.0;
  double seconds = 0.0;  ///< Mean fit wall clock — informational only.
  /// Mean FitDiagnostics::RecoveryEvents() per replicate (RHCHME slots
  /// only; 0 for baselines). Healthy spike cells stay at 0; kNonFinite
  /// cells must be > 0 — the guards, not luck, absorb the damage.
  double recovery_events = 0.0;
  int replicates = 0;
};

struct ScenarioReport {
  ScenarioGridOptions grid;  ///< The options that produced the cells.
  std::vector<ScenarioCell> cells;
};

/// Runs the full grid. Cells are ordered (imbalance, corruption mode,
/// corruption, sparsity, method) — deterministic for a fixed option set.
Result<ScenarioReport> RunScenarioGrid(const ScenarioGridOptions& opts);

/// Writes the machine-readable QUALITY_scenarios.json consumed by
/// tools/quality_compare.py. Metric doubles are serialised with %.17g so
/// the artefact round-trips bit-exactly; `seconds` is the only
/// machine-dependent field. Overwrites `path`.
Status WriteScenarioReportJson(const ScenarioReport& report,
                               const std::string& path);

}  // namespace eval
}  // namespace rhchme

#endif  // RHCHME_EVAL_SCENARIO_H_
