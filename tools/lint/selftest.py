#!/usr/bin/env python3
"""Fixture self-test for the invariant lint suite (ctest: lint_selftest).

Contract, by filename convention under tools/lint/fixtures/<check>/:

  flag_*.cc   must yield at least one violation OF THAT CHECK
  pass_*.cc   must yield zero violations of that check (and zero
              violations overall — fixtures are minimal on purpose)

The special fixtures/annotations/ corpus pins the annotation grammar:
empty reasons are violations, stale and unknown annotations warn.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import checks, engine  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def lint(path):
    return engine.lint_file(path, ROOT, checks.ALL_CHECKS)


def main():
    failures = []
    checked = 0

    check_names = {c.NAME for c in checks.ALL_CHECKS}
    for check_dir in sorted(os.listdir(FIXTURES)):
        if check_dir == "annotations":
            continue
        if check_dir not in check_names:
            failures.append(f"fixtures/{check_dir}/ does not match any "
                            f"check name ({', '.join(sorted(check_names))})")
            continue
        dirpath = os.path.join(FIXTURES, check_dir)
        for name in sorted(os.listdir(dirpath)):
            if not name.endswith(engine.SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            violations, _warnings = lint(path)
            of_check = [v for v in violations if v.check == check_dir]
            checked += 1
            if name.startswith("flag_"):
                if not of_check:
                    failures.append(
                        f"{check_dir}/{name}: expected >=1 [{check_dir}] "
                        f"violation, got none (all violations: "
                        f"{[v.format() for v in violations]})")
            elif name.startswith("pass_"):
                if violations:
                    failures.append(
                        f"{check_dir}/{name}: expected clean, got: "
                        f"{[v.format() for v in violations]}")
            else:
                failures.append(f"{check_dir}/{name}: fixture names must "
                                "start with flag_ or pass_")

    # ---- Annotation grammar pins ------------------------------------------

    ann = os.path.join(FIXTURES, "annotations")

    violations, warnings = lint(os.path.join(ann, "empty_reason.cc"))
    checked += 1
    if not any("non-empty reason" in v.message for v in violations):
        failures.append("annotations/empty_reason.cc: empty annotation "
                        "reason must be a violation; got "
                        f"{[v.format() for v in violations]}")

    violations, warnings = lint(os.path.join(ann, "stale.cc"))
    checked += 1
    if violations:
        failures.append("annotations/stale.cc: stale annotations must not "
                        f"be violations; got {[v.format() for v in violations]}")
    if not any("stale annotation" in w for w in warnings):
        failures.append("annotations/stale.cc: expected a stale-annotation "
                        f"warning; got {warnings}")

    violations, warnings = lint(os.path.join(ann, "unknown_check.cc"))
    checked += 1
    if violations:
        failures.append("annotations/unknown_check.cc: unknown annotations "
                        "must warn, not fail; got "
                        f"{[v.format() for v in violations]}")
    if not any("unknown lint annotation" in w for w in warnings):
        failures.append("annotations/unknown_check.cc: expected an "
                        f"unknown-annotation warning; got {warnings}")

    if failures:
        print(f"lint_selftest: {len(failures)} failure(s) over {checked} "
              "fixture(s):")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"lint_selftest: OK ({checked} fixtures, "
          f"{len(check_names)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
