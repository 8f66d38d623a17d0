"""Stride-safety check.

Since PR 4, la::Matrix stores rows 64-byte aligned with a padded leading
dimension: element (i, j) lives at data()[i * stride() + j], stride() >=
cols(), and the padding columns are zero. Any consumer that does raw
pointer arithmetic on Matrix::data() assuming the pre-PR-4 compact
layout (i * cols() + j) silently reads cache-line padding — values are
shifted, not out of bounds, so nothing crashes and results are just
wrong. That bug class was fixed by hand across the tree in PR 4; this
check keeps it extinct.

Rule: every use of `.data()` / `->data()` on an object declared with
type (la::)Matrix must carry a // lint:stride-ok(<reason>) annotation on
the same or preceding line. The annotation is the audit trail: it states
why the flat view is safe (whole-padded-buffer kernel, benchmark
DoNotOptimize sink, single-row matrix, ...). Everything else goes
through row_ptr(i) / operator()(i, j), which are stride-correct by
construction.

Receiver typing is a file-scoped token heuristic (declarations tracked
through brace/paren scopes). std::vector / AlignedVector
data() is 1-D and exempt by construction — only Matrix receivers are
flagged.
"""

NAME = "stride"
DOC = ("raw Matrix::data() use requires a lint:stride-ok annotation; "
      "use row_ptr()/operator() for element access")

_TYPE_NAME = "Matrix"  # Also matches SparseMatrix? No: CSR arrays are 1-D.


def _matrix_decl_positions(toks):
    """Yields (index_of_declared_name, paren_depth_flag) for declarations
    whose type is (const) (la::)Matrix (&|*)* name."""
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text != _TYPE_NAME:
            continue
        # Reject member access `x.Matrix`, qualified names from other
        # namespaces `foo::Matrix` (accept `la::Matrix` / `::Matrix`).
        if i >= 1 and toks[i - 1].text == "::":
            if not (i >= 2 and toks[i - 2].text == "la"):
                continue
        if i >= 1 and toks[i - 1].text in (".", "->"):
            continue
        j = i + 1
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j >= len(toks) or toks[j].kind != "ident":
            continue
        # `Matrix Matrix::Transposed()` — the following ident is a class
        # qualifier, not a variable.
        if j + 1 < len(toks) and toks[j + 1].text == "::":
            continue
        yield j


def run(ctx):
    toks = ctx.source.tokens

    n = len(toks)

    # Brace and paren matching over token indices.
    brace_match = {}
    paren_match = {}
    brace_stack, paren_stack = [], []
    enclosing_brace = [None] * n  # Innermost open '{' index at each token.
    enclosing_paren = [None] * n
    for i, tok in enumerate(toks):
        enclosing_brace[i] = brace_stack[-1] if brace_stack else None
        enclosing_paren[i] = paren_stack[-1] if paren_stack else None
        t = tok.text
        if tok.kind != "punct":
            continue
        if t == "{":
            brace_stack.append(i)
        elif t == "}" and brace_stack:
            brace_match[brace_stack.pop()] = i
        elif t == "(":
            paren_stack.append(i)
        elif t == ")" and paren_stack:
            paren_match[paren_stack.pop()] = i
    for i in brace_stack:  # Unbalanced input: close at EOF.
        brace_match[i] = n

    # Scope interval per declared Matrix name. Declarations are hoisted
    # to their whole enclosing brace scope so class members declared
    # below the methods that use them still resolve. Parameters scope to
    # the function body that follows the signature's ')'.
    intervals = []  # (name, start_index, end_index)
    for j in _matrix_decl_positions(toks):
        name = toks[j].text
        paren = enclosing_paren[j]
        if paren is not None:
            close = paren_match.get(paren, n)
            k = close + 1
            # Skip cv-qualifiers/noexcept/override between ')' and '{'.
            while k < n and toks[k].kind == "ident":
                k += 1
            if k < n and toks[k].text == "{":
                intervals.append((name, k, brace_match.get(k, n)))
            # Prototype without a body: the name scopes nowhere.
        else:
            brace = enclosing_brace[j]
            if brace is None:
                intervals.append((name, 0, n))  # File scope.
            else:
                intervals.append((name, brace, brace_match.get(brace, n)))

    if not intervals:
        return
    by_name = {}
    for name, start, end in intervals:
        by_name.setdefault(name, []).append((start, end))

    # Receiver scan: name (.|->) data ( ) with the use inside one of the
    # name's declaration scopes.
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text not in by_name:
            continue
        if not (i + 3 < n and toks[i + 1].text in (".", "->")
                and toks[i + 2].text == "data"
                and toks[i + 3].text == "("):
            continue
        if any(start <= i <= end for start, end in by_name[tok.text]):
            ctx.report(tok.line, NAME,
                       f"raw data() on la::Matrix '{tok.text}': rows are "
                       "stride()-spaced with zero padding, so flat "
                       "(i*cols+j) arithmetic reads padding; use "
                       "row_ptr()/operator() or annotate "
                       "// lint:stride-ok(<reason>)")
