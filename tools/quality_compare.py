#!/usr/bin/env python3
"""Compare a rhchme_scenarios JSON run against the committed baseline.

Guards the clustering-quality trajectory in CI — the quality twin of
tools/bench_compare.py:

  * refuses to accept a current JSON produced by a **debug** build: the
    committed baseline is generated from Release, and while metrics are
    deterministic *within* a build, floating-point contraction differs
    across optimisation levels, so a debug comparison measures the
    build gap, not a regression;
  * skips (exit 0, with a note) when the current run dispatched a
    different kernel table than the baseline (scalar vs avx2 vs avx512)
    — different kernels, different rounding, different k-means
    trajectories, so the comparison would measure the ISA, not a
    regression. Legs that pin RHCHME_FORCE_ISA pass --require-isa-match
    to turn the skip into a hard failure;
  * fails (exit 1) when any cell present in both files dropped by more
    than --threshold (default 0.05, absolute) in NMI, ARI, purity or
    FScore. Metrics are seed-averaged and bit-identical across thread
    counts, so any drop beyond the threshold is an algorithmic change,
    not machine noise;
  * cells missing from either side are reported but never fatal, so
    extending or trimming the grid does not break CI;
  * `seconds` is informational and never compared.

Usage:
  python3 tools/quality_compare.py \
      [--current build/QUALITY_scenarios.json] \
      [--baseline QUALITY_scenarios.baseline.json] \
      [--threshold 0.05] [--allow-debug] [--allow-isa-mismatch]
      [--require-isa-match]

Regenerating the baseline (Release build only; pin the kernel table so
the committed context matches what CI dispatches):
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  (cd build && ./rhchme_scenarios --quick --force_isa avx2)
  cp build/QUALITY_scenarios.json QUALITY_scenarios.baseline.json
"""

import argparse
import json
import sys

METRICS = ("nmi", "ari", "purity", "fscore")


def cell_key(cell):
    """Identity of a grid cell: everything but the measured values.

    `corruption_mode` defaults to "spike" so baselines generated before
    the kNonFinite axis existed still match their cells.
    """
    return (cell.get("workload"), cell.get("imbalance"),
            cell.get("corruption"), cell.get("corruption_mode", "spike"),
            cell.get("sparsity"), cell.get("method"), cell.get("variant"))


def format_key(key):
    workload, imbalance, corruption, mode, sparsity, method, variant = key
    name = f"{method}+{variant}" if variant else method
    return (f"{workload}/{imbalance}/corrupt={corruption:g}({mode})/"
            f"sparse={sparsity:g}/{name}")


def load_cells(path):
    """Returns (context, {key: cell}) for a rhchme_scenarios JSON."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    cells = {}
    for cell in doc.get("cells", []):
        cells[cell_key(cell)] = cell
    return doc.get("context", {}), cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="build/QUALITY_scenarios.json",
                        help="JSON produced by the run under test")
    parser.add_argument("--baseline", default="QUALITY_scenarios.baseline.json",
                        help="committed reference JSON")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="absolute per-metric drop that fails "
                             "(default 0.05)")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept a debug-build current JSON (local "
                             "debugging only; CI must not pass this)")
    parser.add_argument("--allow-isa-mismatch", action="store_true",
                        help="compare runs even when current and baseline "
                             "dispatched different kernel tables")
    parser.add_argument("--require-isa-match", action="store_true",
                        help="treat a kernel-table mismatch as a hard "
                             "failure (exit 1) instead of skipping the "
                             "comparison; for legs that pin RHCHME_FORCE_ISA "
                             "and must never silently no-op")
    args = parser.parse_args()

    try:
        cur_ctx, current = load_cells(args.current)
    except (OSError, ValueError) as e:
        print(f"error: cannot read --current {args.current}: {e}")
        return 1
    try:
        base_ctx, baseline = load_cells(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot read --baseline {args.baseline}: {e}")
        return 1

    build_type = str(cur_ctx.get("rhchme_build_type", "unknown")).lower()
    if build_type != "release" and not args.allow_debug:
        print(f"error: {args.current} was produced by a "
              f"{build_type!r} build; the committed baseline is Release "
              "and rounding differs across optimisation levels. Re-run "
              "rhchme_scenarios from a Release build (or pass "
              "--allow-debug for local experiments).")
        return 1

    # The binary dispatches its kernel table at runtime; the context
    # records which table the run actually used. Different tables round
    # differently, so a cross-table comparison measures the ISA, not a
    # quality regression — skip it (exit 0) unless the caller pinned the
    # table and wants a misconfigured leg to fail loudly.
    cur_isa = cur_ctx.get("rhchme_simd")
    base_isa = base_ctx.get("rhchme_simd")
    if (cur_isa is not None and base_isa is not None and cur_isa != base_isa
            and not args.allow_isa_mismatch):
        if args.require_isa_match:
            print(f"error: kernel-table mismatch: current dispatched "
                  f"{cur_isa!r} but the baseline was recorded with "
                  f"{base_isa!r}, and --require-isa-match is set. Pin the "
                  f"table with RHCHME_FORCE_ISA={base_isa} (or "
                  f"--force_isa {base_isa}) when producing the current "
                  "run, or regenerate the baseline.")
            return 1
        print(f"SKIP: current run dispatched kernel table {cur_isa!r} but "
              f"the baseline was recorded with {base_isa!r}; different "
              "kernels round differently, so the comparison would measure "
              "the ISA, not a quality regression. To reproduce the "
              f"baseline's table run rhchme_scenarios with --force_isa "
              f"{base_isa} (or RHCHME_FORCE_ISA={base_isa}); to compare "
              "across tables anyway pass --allow-isa-mismatch.")
        return 0

    shared = sorted(set(current) & set(baseline), key=str)
    only_current = sorted(set(current) - set(baseline), key=str)
    only_baseline = sorted(set(baseline) - set(current), key=str)

    if not shared:
        print("error: no grid cells shared between current and baseline; "
              "nothing to compare.")
        return 1

    regressions = []
    improvements = 0
    for key in shared:
        base, cur = baseline[key], current[key]
        for metric in METRICS:
            if metric not in base or metric not in cur:
                continue
            drop = float(base[metric]) - float(cur[metric])
            if drop > args.threshold:
                regressions.append((key, metric, float(base[metric]),
                                    float(cur[metric])))
            elif drop < -args.threshold:
                improvements += 1

    for key in only_current:
        print(f"note: {format_key(key)} has no baseline entry (new cell?)")
    for key in only_baseline:
        print(f"note: {format_key(key)} missing from current run "
              "(grid trimmed?)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} metric(s) dropped more than "
              f"{args.threshold} against the baseline:")
        for key, metric, base, cur in regressions:
            print(f"  {format_key(key)}: {metric} "
                  f"{base:.4f} -> {cur:.4f} ({cur - base:+.4f})")
        return 1

    print(f"OK: {len(shared)} cells x {len(METRICS)} metrics within "
          f"{args.threshold} of baseline "
          f"({improvements} metric(s) improved beyond it).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
