"""Lightweight C++ lexer for the invariant lint suite.

Not a compiler front end: the goal is a token stream precise enough for
pattern-level checks (banned identifiers, declaration tracking, member
call shapes) with exact line numbers, plus the `// lint:<check>-ok(...)`
annotation side channel. Comments, string literals (including raw
strings) and character literals are consumed so their contents can never
produce false tokens; preprocessor lines are kept as single tokens so
checks can see #include targets.
"""

import re
from dataclasses import dataclass
from typing import Dict, List

# Matches one lint annotation inside a // comment:
#   // lint:stride-ok(reason text)
# The reason is mandatory; an empty reason is reported by the engine.
ANNOTATION_RE = re.compile(r"lint:([a-z][a-z0-9_-]*)-ok\(([^)]*)\)")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\f\v]+)
  | (?P<newline>\n)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<raw_string>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)*')
  | (?P<number>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>->\*|->|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|::|\.\.\.|.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PREPROC_RE = re.compile(r"^[ \t]*#")


@dataclass
class Token:
    kind: str  # 'ident' | 'number' | 'punct' | 'string' | 'char' | 'preproc'
    text: str
    line: int


class SourceFile:
    """Tokenized view of one C++ source file.

    Attributes:
      path: the path the file was read from (as given).
      tokens: significant tokens only (no whitespace/comments).
      annotations: line -> list of (check, reason) lint annotations; an
        annotation on line L covers violations on L and L+1 (annotation
        above the offending line or trailing on the same line).
      lines: raw text split into lines (for diagnostics).
    """

    def __init__(self, path, text):
        self.path = path
        self.lines = text.split("\n")
        self.tokens: List[Token] = []
        self.annotations: Dict[int, List] = {}
        self._lex(text)

    def _note_annotations(self, comment_text, line):
        for m in ANNOTATION_RE.finditer(comment_text):
            self.annotations.setdefault(line, []).append(
                (m.group(1), m.group(2).strip()))

    def _lex(self, text):
        # Preprocessor lines (with their continuations) become single
        # tokens so `#include "la/matrix.h"` stays inspectable but its
        # contents produce no identifier tokens.
        line = 1
        pos = 0
        n = len(text)
        while pos < n:
            # Detect a preprocessor directive at start-of-line.
            bol = pos == 0 or text[pos - 1] == "\n"
            if bol and _PREPROC_RE.match(text, pos):
                end = pos
                while end < n:
                    nl = text.find("\n", end)
                    if nl == -1:
                        end = n
                        break
                    if nl > end and text[nl - 1] == "\\":
                        end = nl + 1
                        continue
                    end = nl
                    break
                directive = text[pos:end]
                self.tokens.append(Token("preproc", directive, line))
                line += directive.count("\n")
                pos = end
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:  # Unrecognised byte; skip defensively.
                pos += 1
                continue
            kind = m.lastgroup
            # The raw_string delimiter group fires alongside raw_string.
            if kind == "delim":
                kind = "raw_string"
            tok = m.group(0)
            if kind == "newline":
                line += 1
            elif kind == "line_comment":
                self._note_annotations(tok, line)
            elif kind == "block_comment":
                self._note_annotations(tok, line)
                line += tok.count("\n")
            elif kind in ("raw_string", "string", "char"):
                self.tokens.append(
                    Token("string" if kind != "char" else "char", tok, line))
                line += tok.count("\n")
            elif kind == "ident":
                self.tokens.append(Token("ident", tok, line))
            elif kind == "number":
                self.tokens.append(Token("number", tok, line))
            elif kind == "punct":
                self.tokens.append(Token("punct", tok, line))
            pos = m.end()

    # ---- Helpers shared by checks ----------------------------------------

    def includes(self):
        """Header paths named by #include directives."""
        out = []
        for t in self.tokens:
            if t.kind != "preproc":
                continue
            m = re.search(r'#\s*include\s*[<"]([^>"]+)[>"]', t.text)
            if m:
                out.append(m.group(1))
        return out

    def annotated(self, line, check):
        """True if a lint:<check>-ok annotation covers `line`."""
        for ann_line in (line, line - 1):
            for name, _reason in self.annotations.get(ann_line, ()):
                if name == check:
                    return True
        return False
