"""Check runner for the invariant lint suite.

Each check module exposes
    NAME        annotation key ("stride" -> // lint:stride-ok(reason))
    DOC         one-line description shown by --list-checks
    run(ctx)    reports violations through ctx.report(...)

The engine owns file discovery, annotation suppression (with reason
enforcement), stale-annotation detection and result formatting. Checks
see one file at a time through a CheckContext.
"""

import json
import os
from dataclasses import dataclass, field
from typing import List

from . import tokens

SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# Directories scanned by default, relative to the repo root.
DEFAULT_ROOTS = ("src", "bench", "tools", "tests")

# Never lint the lint suite's own fixture corpus (it is violations on
# purpose) or build trees.
EXCLUDED_PARTS = ("tools/lint/fixtures", "build", "build-")


@dataclass
class Violation:
    path: str
    line: int
    check: str
    message: str

    def format(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


@dataclass
class CheckContext:
    source: tokens.SourceFile
    relpath: str
    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    used_annotations: set = field(default_factory=set)

    def report(self, line, check, message):
        if self.source.annotated(line, check):
            for ann_line in (line, line - 1):
                for name, _ in self.source.annotations.get(ann_line, ()):
                    if name == check:
                        self.used_annotations.add((ann_line, check))
            self.suppressed.append(Violation(self.relpath, line, check, message))
        else:
            self.violations.append(Violation(self.relpath, line, check, message))


def discover_files(root, roots=DEFAULT_ROOTS):
    out = []
    for sub in roots:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if any(part in rel_dir for part in EXCLUDED_PARTS):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def lint_file(path, root, checks):
    """Runs `checks` over one file; returns (violations, warnings)."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    relpath = os.path.relpath(path, root).replace(os.sep, "/")
    source = tokens.SourceFile(relpath, text)
    ctx = CheckContext(source=source, relpath=relpath)
    active_names = set()
    for check in checks:
        if check.allows(relpath):
            continue
        active_names.add(check.NAME)
        check.run(ctx)

    warnings = []
    # Annotation hygiene: a reason is mandatory, and an annotation that
    # suppresses nothing is stale (kept as a warning, not a violation).
    for line, anns in sorted(source.annotations.items()):
        for name, reason in anns:
            if name not in {c.NAME for c in checks}:
                warnings.append(f"{relpath}:{line}: unknown lint annotation "
                                f"'lint:{name}-ok' (known: "
                                f"{', '.join(sorted(c.NAME for c in checks))})")
                continue
            if not reason:
                ctx.violations.append(Violation(
                    relpath, line, name,
                    f"annotation 'lint:{name}-ok' needs a non-empty reason"))
            if (name in active_names
                    and (line, name) not in ctx.used_annotations):
                warnings.append(f"{relpath}:{line}: stale annotation "
                                f"'lint:{name}-ok' suppresses nothing here")
    return ctx.violations, warnings


def run(root, checks, files=None):
    """Lints `files` (or the default tree under `root`)."""
    paths = files if files else discover_files(root)
    all_violations, all_warnings = [], []
    for path in paths:
        violations, warnings = lint_file(path, root, checks)
        all_violations.extend(violations)
        all_warnings.extend(warnings)
    return all_violations, all_warnings


def to_json(violations, warnings):
    return json.dumps(
        {
            "violations": [v.__dict__ for v in violations],
            "warnings": warnings,
        },
        indent=2,
    )
