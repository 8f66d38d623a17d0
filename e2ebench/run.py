#!/usr/bin/env python3
"""End-to-end RHCHME fit benchmark: builds e2e_bench and runs one workload.

Run from the repository root:

  python3 e2ebench/run.py --workload d4-fit --seed 1 --seconds 20 --trace 0

Workloads: d4-fit, tfidf-sparse, blockworld-sweep (see e2ebench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace (its path is in the context line).

The benchmark is built from source with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench). The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it ("# context {...}") records the run context.
The exit code is 0 only when every correctness check passed.

Correctness: the binary checks that every fit returns OK without a
degraded stop and that repeated fits give byte-identical labels and
objective traces; this wrapper checks the type-0 NMI and FScore against
references.json, recorded per dispatched kernel table, workload and seed
(--record adds the current run's scores). A full-size seed without a
recorded reference is held to the score floor below instead; a smoke run
without one fails.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("d4-fit", "tfidf-sparse", "blockworld-sweep")
REFERENCES = HERE / "references.json"
# Scores a full-size seed must reach when no reference is recorded for it:
# about 0.1 below the lowest value over the 30 recorded avx512 seeds, so
# that an unrecorded seed or kernel table passes on healthy code, while a
# fit that loses the clusters fails.
SCORE_FLOOR = {
    "d4-fit": {"nmi": 0.8, "fscore": 0.75},
    "tfidf-sparse": {"nmi": 0.7, "fscore": 0.7},
    "blockworld-sweep": {"nmi": 0.4, "fscore": 0.6},
}
# Absolute tolerance of a reference match. Scores are deterministic for a
# given kernel table and code; the tolerance lets a change that moves the
# solver's rounding flip a few borderline labels (about 0.002 NMI each on
# d4-fit) without re-recording, while a real quality change still fails.
REF_TOL = 0.01
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(bdir):
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"library sources (CMakeLists.txt, src/) not found under {ROOT}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return bdir / "e2e_bench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.suffix in (".h", ".cc", ".txt") and p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def reference_key(workload, smoke):
    return ("smoke:" if smoke else "") + workload


def check_scores(raw, args, refs):
    """Returns (ok, how) for the run's NMI/FScore against the references."""
    ctx = raw["context"]
    scores = raw["scores"]
    ref = (refs.get(ctx["isa"], {})
               .get(reference_key(args.workload, args.smoke), {})
               .get(str(args.seed)))
    if ref is not None:
        ok = all(abs(scores[k] - ref[k]) <= REF_TOL for k in ("nmi", "fscore"))
        return ok, "recorded reference"
    if args.smoke:
        return args.record, "no smoke reference recorded for this seed and table"
    floor = SCORE_FLOOR[args.workload]
    ok = all(scores[k] >= floor[k] for k in ("nmi", "fscore"))
    return ok, "score floor (no reference recorded for this seed)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs that finish in seconds")
    parser.add_argument("--references", type=pathlib.Path,
                        default=REFERENCES)
    parser.add_argument("--record", action="store_true",
                        help="store this run's scores as the reference")
    args = parser.parse_args()

    bdir = build_root() / "e2ebench"
    binary = build(bdir)
    work_dir = build_root() / "e2ebench-run"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--commit", git_commit()]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed with exit code {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    refs = {}
    if args.references.is_file():
        refs = json.loads(args.references.read_text())
    scores_ok, how = check_scores(raw, args, refs)
    attempted = raw["attempted"]
    failed = raw["failed"]
    if not scores_ok:
        # Every fit of the run produced the (deterministic) wrong scores.
        log(f"nmi/fscore {raw['scores']} failed the check: {how}")
        failed = attempted
    metrics = raw["metrics"]
    finite = all(isinstance(m["value"], (int, float))
                 and math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        log("a metric is not finite")
        failed = attempted
    if "ok_fraction" in metrics:
        metrics["ok_fraction"]["value"] = 1.0 - failed / max(1, attempted)
    correct = failed == 0 and scores_ok and finite and attempted >= 1

    if args.record and correct:
        entry = refs.setdefault(raw["context"]["isa"], {}).setdefault(
            reference_key(args.workload, args.smoke), {})
        entry[str(args.seed)] = dict(raw["scores"])
        args.references.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                   + "\n")

    context = dict(raw["context"])
    context.update({"source_sha256": source_digest(), "score_check": how,
                    "scores": raw["scores"],
                    "run_s": round(time.monotonic() - t0, 3)})
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
