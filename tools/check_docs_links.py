#!/usr/bin/env python3
"""Docs link hygiene: fail on broken relative links and stale file refs.

Checks, over README.md and every Markdown file under docs/:

  1. Markdown links `[text](target)`: every relative target must resolve
     to an existing file or directory (anchors are stripped; http(s)/
     mailto links are skipped).
  2. Stale file references: inline-code mentions of repo paths
     (`src/...`, `tests/...`, `bench/...`, `docs/...`, `tools/...`,
     `examples/...`, `.github/...`) must exist, so renames can't leave
     the docs pointing at ghosts. Glob-style mentions (containing `*`)
     are ignored.

And over the comments of the code under src/, tests/, tools/, bench/ and
examples/ (`//` and `/* */` in C++, `#` in Python):

  3. Markdown file names (`DESIGN.md`, `docs/ARCHITECTURE.md`): a name
     with a directory must exist from the repo root, a bare name must be
     the name of some Markdown file in the repo.
  4. Repo paths (`src/...`, `tests/...`, `e2ebench/...` and the other
     top-level directories above) with a file extension or at least two
     levels must exist, except glob or brace mentions (`kernels_*.cc`,
     `profile.{h,cc}`). A one-level mention without an extension reads
     as prose ("bench/quality JSON") and is not checked.

Exit status 0 when clean, 1 with one line per problem otherwise.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_PATH = re.compile(
    r"`((?:src|tests|bench|docs|tools|examples|\.github)/[A-Za-z0-9_./-]+)`"
)
SKIP_SCHEMES = ("http://", "https://", "mailto:")

CODE_DIRS = ("src", "tests", "tools", "bench", "examples")
CODE_SUFFIXES = {".h", ".cc", ".cpp", ".py"}
# Delimited on the left so that a path's tail is not matched on its own.
COMMENT_MD = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")
COMMENT_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|bench|docs|tools|examples|e2ebench|\.github)"
    r"/[\w./-]*\w)"
)
STRING_LITERAL = re.compile(r'"(?:\\.|[^"\\])*"' + r"|'(?:\\.|[^'\\])*'")


def doc_files():
    files = []
    readme = REPO / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((REPO / "docs").glob("**/*.md")))
    return files


def check_file(path):
    problems = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: broken link -> {target}"
                )
        for match in CODE_PATH.finditer(line):
            ref = match.group(1)
            if "*" in ref:
                continue
            if not (REPO / ref).exists():
                problems.append(
                    f"{path.relative_to(REPO)}:{lineno}: stale file reference -> {ref}"
                )
    return problems


def code_files():
    files = []
    for top in CODE_DIRS:
        files.extend(
            p
            for p in sorted((REPO / top).rglob("*"))
            if p.suffix in CODE_SUFFIXES and p.is_file()
        )
    return files


def comment_lines(path):
    """Yields (line number, comment text) for each line of `path` that
    carries a comment. String literals are blanked first, so a `//` or
    `#` inside one does not open a comment."""
    python = path.suffix == ".py"
    in_block = False
    text = path.read_text(encoding="utf-8", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if python:
            code = STRING_LITERAL.sub('""', line)
            if "#" in code:
                yield lineno, code[code.index("#") :]
            continue
        comment = []
        rest = line
        while rest:
            if in_block:
                end = rest.find("*/")
                comment.append(rest if end < 0 else rest[:end])
                if end < 0:
                    break
                in_block = False
                rest = rest[end + 2 :]
                continue
            code = STRING_LITERAL.sub('""', rest)
            line_at, block_at = code.find("//"), code.find("/*")
            if line_at >= 0 and (block_at < 0 or line_at < block_at):
                comment.append(code[line_at + 2 :])
                break
            if block_at < 0:
                break
            in_block = True
            rest = code[block_at + 2 :]
        if comment:
            yield lineno, " ".join(comment)


def check_code_comments(paths, markdown_names):
    problems = []
    for path in paths:
        where = path.relative_to(REPO)
        for lineno, comment in comment_lines(path):
            for match in COMMENT_MD.finditer(comment):
                name = match.group(1)
                found = (
                    (REPO / name).exists()
                    if "/" in name
                    else name in markdown_names
                )
                if not found:
                    problems.append(
                        f"{where}:{lineno}: missing Markdown file in "
                        f"comment -> {name}"
                    )
            for match in COMMENT_PATH.finditer(comment):
                ref = match.group(1)
                if comment[match.end() : match.end() + 1] in ("*", "{"):
                    continue
                if ref.count("/") < 2 and "." not in ref.rsplit("/", 1)[1]:
                    continue
                if not (REPO / ref).exists():
                    problems.append(
                        f"{where}:{lineno}: stale file reference in "
                        f"comment -> {ref}"
                    )
    return problems


def markdown_file_names():
    return {
        p.name
        for p in REPO.rglob("*.md")
        if not any(
            part.startswith((".", "build")) or part == "__pycache__"
            for part in p.relative_to(REPO).parts[:-1]
        )
    }


def main():
    files = doc_files()
    if not files:
        print("check_docs_links: no documentation files found", file=sys.stderr)
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path))
    code = code_files()
    problems.extend(check_code_comments(code, markdown_file_names()))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"check_docs_links: {len(files)} doc file(s), {len(code)} code "
        f"file(s), {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
