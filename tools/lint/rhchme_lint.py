#!/usr/bin/env python3
"""Project-specific static analysis: enforce the RHCHME invariants.

Checks (each with a // lint:<check>-ok(<reason>) escape hatch, reason
mandatory — the annotation is the audit trail):

  determinism  no rand()/std::random_device/std <random> engines/
               wall-clock seeds outside src/util/rng; no floating-point
               accumulation driven by unordered-container iteration
  stride       raw la::Matrix::data() uses must be annotated — rows are
               stride()-padded, so flat (i*cols+j) arithmetic silently
               reads cache-line padding (the PR 4 bug class)
  memstats     dense product-shaped buffers outside src/la/ must go
               through la::Matrix so memstats accounting stays truthful
  copy         no by-value returns of stored matrices, no non-const
               reference accessors on shared state (the PR 5 bug class)

Usage:
  python3 tools/lint/rhchme_lint.py                  # lint the tree
  python3 tools/lint/rhchme_lint.py src/foo.cc ...   # specific files
  python3 tools/lint/rhchme_lint.py --check stride --json out.json

Exit codes: 0 clean, 1 violations found, 2 usage/config error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import checks, engine  # noqa: E402


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: src/ bench/ tools/ "
                             "tests/ under --root)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME",
                        help="run only this check (repeatable)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write results as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-file OK summary")
    parser.add_argument("--list-checks", action="store_true",
                        help="list available checks and exit")
    args = parser.parse_args()

    active = checks.ALL_CHECKS
    if args.list_checks:
        for c in active:
            print(f"{c.NAME:12s} {c.DOC}")
        return 0
    if args.check:
        try:
            active = checks.by_name(args.check)
        except KeyError as e:
            print(f"error: {e.args[0]}", file=sys.stderr)
            return 2

    root = args.root or os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if not os.path.isdir(root):
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2

    files = [os.path.abspath(f) for f in args.files] or None
    if files:
        missing = [f for f in files if not os.path.isfile(f)]
        if missing:
            print(f"error: no such file: {', '.join(missing)}",
                  file=sys.stderr)
            return 2

    violations, warnings = engine.run(root, active, files=files)

    for w in warnings:
        print(f"warning: {w}")
    for v in violations:
        print(v.format())

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(engine.to_json(violations, warnings))

    if violations:
        print(f"\nFAIL: {len(violations)} violation(s) across "
              f"{len({v.path for v in violations})} file(s). Fix them or "
              "annotate with // lint:<check>-ok(<reason>) where the "
              "pattern is deliberate.")
        return 1
    if not args.quiet:
        scanned = files or engine.discover_files(root)
        print(f"OK: {len(scanned)} file(s) clean under "
              f"{', '.join(c.NAME for c in active)} "
              f"({len(warnings)} warning(s)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
