#!/usr/bin/env python3
"""Compare a bench_kernels JSON run against the committed baseline.

Guards the perf trajectory in CI:

  * refuses to accept a current JSON produced by a **debug** build —
    debug numbers are meaningless and silently poison the comparison;
  * fails (exit 1) when any kernel present in both files regressed by
    more than --threshold (default 25%) in real_time;
  * fails when a kernel that reports a `recall` counter (the approximate
    kNN builds) lost more than --recall-threshold (default 0.02) of
    recall against the baseline — a speedup bought with accuracy is a
    regression, not a win;
  * benchmarks missing from either side are reported but never fatal,
    so adding or retiring kernels does not break CI.

Report-only: next to the absolute comparison it prints each row's rate
(runs of the benchmark body per second, 1 / real_time) as a fraction of
BM_GemmNN/512's rate in the same run, for the baseline and the current
run. Each run is normalised by its own GEMM row, so a host that is
uniformly slower or faster leaves the fraction unchanged while a kernel
regression moves it. The fractions never change the exit code.

Usage:
  python3 tools/bench_compare.py \
      [--current build/BENCH_kernels.json] \
      [--baseline BENCH_kernels.baseline.json] \
      [--threshold 0.25] [--recall-threshold 0.02] [--allow-debug]

Regenerating the baseline (Release build only; pin the kernel table so
the committed context matches what CI dispatches):
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  (cd build && ./bench_kernels --force_isa=avx2 --benchmark_min_time=0.1)
  cp build/BENCH_kernels.json BENCH_kernels.baseline.json

Cross-machine caveat: real_time is only comparable on similar hardware.
The committed baseline tracks the reference dev machine; on very
different hosts, regenerate the baseline locally before trusting the
comparison (or raise --threshold).
"""

import argparse
import json
import sys


# The row every run's rates are normalised by (report-only column).
REFERENCE_ROW = "BM_GemmNN/512/real_time"
SECONDS_PER_UNIT = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_benchmarks(path):
    """Returns (context, {name: real_time}, {name: recall},
    {name: real_time in seconds}) for a google-benchmark JSON; recall only
    holds kernels that report the counter."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    recalls = {}
    seconds = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None or "real_time" not in bench:
            continue
        times[name] = float(bench["real_time"])
        unit = SECONDS_PER_UNIT.get(bench.get("time_unit", "ns"))
        if unit is not None:
            seconds[name] = float(bench["real_time"]) * unit
        if "recall" in bench:
            recalls[name] = float(bench["recall"])
    return doc.get("context", {}), times, recalls, seconds


def rate_fractions(seconds):
    """{name: rate / rate of REFERENCE_ROW} for one run, or None when the
    run lacks the reference row."""
    ref = seconds.get(REFERENCE_ROW)
    if not ref:
        return None
    return {name: ref / t for name, t in seconds.items() if t > 0}


def print_rate_fractions(shared, base_seconds, cur_seconds):
    """Report-only table: each shared row's rate as a fraction of the same
    run's BM_GemmNN/512 rate, baseline and current."""
    base_frac = rate_fractions(base_seconds)
    cur_frac = rate_fractions(cur_seconds)
    if base_frac is None or cur_frac is None:
        print(f"\nnote: {REFERENCE_ROW} missing from "
              f"{'the baseline' if base_frac is None else 'the current run'}"
              "; no same-run rate fractions.")
        return
    rows = [n for n in shared if n in base_frac and n in cur_frac]
    if not rows:
        return
    width = max(len(n) for n in rows)
    print(f"\nRate as a fraction of the same run's {REFERENCE_ROW} "
          "(report only; delta > 0: faster relative to that row):")
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  delta")
    for name in rows:
        b, c = base_frac[name], cur_frac[name]
        print(f"{name:<{width}}  {b:>10.4g}  {c:>10.4g}  {(c - b) / b:>+7.1%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="build/BENCH_kernels.json",
                        help="JSON produced by the run under test")
    parser.add_argument("--baseline", default="BENCH_kernels.baseline.json",
                        help="committed reference JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional real_time regression that fails "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--recall-threshold", type=float, default=0.02,
                        help="absolute recall-counter drop that fails "
                             "(default 0.02)")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept a debug-build current JSON (local "
                             "debugging only; CI must not pass this)")
    parser.add_argument("--allow-isa-mismatch", action="store_true",
                        help="compare runs even when current and baseline "
                             "dispatched different kernel tables (scalar vs "
                             "avx2 vs avx512); the numbers will "
                             "include the ISA gap")
    parser.add_argument("--require-isa-match", action="store_true",
                        help="treat a kernel-table mismatch as a hard "
                             "failure (exit 1) instead of skipping the "
                             "comparison; for legs that pin RHCHME_FORCE_ISA "
                             "and must never silently no-op")
    args = parser.parse_args()

    try:
        cur_ctx, current, cur_recall, cur_seconds = load_benchmarks(
            args.current)
    except (OSError, ValueError) as e:
        print(f"error: cannot read --current {args.current}: {e}")
        return 1
    try:
        base_ctx, baseline, base_recall, base_seconds = load_benchmarks(
            args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot read --baseline {args.baseline}: {e}")
        return 1

    # rhchme_build_type (emitted by bench_kernels' main) records whether the
    # *benchmark binary* was optimised and is authoritative when present;
    # the stock library_build_type only reflects how the system libbenchmark
    # was compiled (Debian/Ubuntu ship it assertion-enabled = "debug" even
    # under a Release user build), so it is only consulted for old JSONs
    # that predate the custom key.
    if "rhchme_build_type" in cur_ctx:
        build_key = "rhchme_build_type"
    else:
        build_key = "library_build_type"
    build_type = str(cur_ctx.get(build_key, "unknown")).lower()
    if build_type == "debug" and not args.allow_debug:
        print(f"error: {args.current} was produced by a debug build "
              f"(context.{build_key} = {build_type!r}); perf numbers "
              "from unoptimised binaries are meaningless. Re-run "
              "bench_kernels from a Release build (or pass --allow-debug "
              "for local experiments).")
        return 1

    # The kernel table is dispatched at runtime, so the binary is the same
    # everywhere — but a run that resolved 'scalar' compared against the
    # 'avx2' baseline would report the ISA gap itself as a 4-5x
    # "regression". context.rhchme_simd records the table the run actually
    # dispatched; on mismatch the comparison is skipped (exit 0) so a
    # host without the baseline ISA never fails CI spuriously. Legs that
    # pin the table (RHCHME_FORCE_ISA / --force_isa) should pass
    # --require-isa-match so the skip can never mask a misconfigured leg.
    cur_isa = cur_ctx.get("rhchme_simd")
    base_isa = base_ctx.get("rhchme_simd")
    if (cur_isa is not None and base_isa is not None and cur_isa != base_isa
            and not args.allow_isa_mismatch):
        if args.require_isa_match:
            print(f"error: kernel-table mismatch: current dispatched "
                  f"{cur_isa!r} but the baseline was recorded with "
                  f"{base_isa!r}, and --require-isa-match is set. Pin the "
                  f"table with RHCHME_FORCE_ISA={base_isa} (or "
                  f"--force_isa={base_isa}) when producing the current "
                  "run, or regenerate the baseline.")
            return 1
        print(f"SKIP: current run dispatched kernel table {cur_isa!r} but "
              f"the baseline was recorded with {base_isa!r}; comparing "
              "them would measure the ISA gap, not a regression. To "
              f"reproduce the baseline's table run bench_kernels with "
              f"RHCHME_FORCE_ISA={base_isa} (or --force_isa={base_isa}); "
              "to compare across tables anyway pass --allow-isa-mismatch.")
        return 0

    shared = sorted(set(current) & set(baseline))
    only_current = sorted(set(current) - set(baseline))
    only_baseline = sorted(set(baseline) - set(current))

    if not shared:
        print("error: no benchmark names shared between current and "
              "baseline; nothing to compare.")
        return 1

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in shared:
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  "
              f"{delta:>+7.1%}{flag}")

    # Recall gate: recall is deterministic for a fixed seed (unlike
    # real_time), so any drop beyond the threshold is a real algorithmic
    # change, not machine noise.
    recall_regressions = []
    for name in sorted(set(cur_recall) & set(base_recall)):
        drop = base_recall[name] - cur_recall[name]
        flag = ""
        if drop > args.recall_threshold:
            flag = "  << RECALL REGRESSION"
            recall_regressions.append((name, drop))
        print(f"{name}: recall {base_recall[name]:.4f} -> "
              f"{cur_recall[name]:.4f}{flag}")

    print_rate_fractions(shared, base_seconds, cur_seconds)

    for name in only_current:
        print(f"note: {name} has no baseline entry (new kernel?)")
    for name in only_baseline:
        print(f"note: {name} missing from current run (filtered out?)")

    failed = False
    if regressions:
        failed = True
        print(f"\nFAIL: {len(regressions)} kernel(s) regressed more than "
              f"{args.threshold:.0%} in real_time:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
    if recall_regressions:
        failed = True
        print(f"\nFAIL: {len(recall_regressions)} kernel(s) lost more than "
              f"{args.recall_threshold} recall:")
        for name, drop in recall_regressions:
            print(f"  {name}: -{drop:.4f}")
    if failed:
        return 1

    print(f"\nOK: {len(shared)} kernels within {args.threshold:.0%} of "
          f"baseline ({len(set(cur_recall) & set(base_recall))} recall "
          "counters checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
