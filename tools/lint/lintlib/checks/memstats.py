"""Memstats-accounting check.

The solver-memory arc (PRs 3 and 5) is pinned by la::memstats: tests
prove the solver core never materialises a dense n x n
working set by counting large allocations at the la::Matrix seam. That
proof only holds while every dense product-shaped buffer actually goes
through Matrix (whose constructor and Resize call
memstats::internal::NoteAlloc). A hot path that side-steps it — raw new
double[n*n], malloc, a product-sized std::vector<double>, or an
AlignedVector<double> outside the la/ kernel layer — is invisible to the
accounting and quietly re-introduces the memory wall the arc removed.

Flagged outside src/la/ (the kernel layer owns its own scratch and is
audited by review):

  * new double[...] / malloc / calloc / realloc / aligned_alloc
  * AlignedVector<double> declarations
  * std::vector<double> constructed with a product-shaped size
    (an expression containing '*')

Escape hatch: // lint:memstats-ok(<reason>) for buffers that are
genuinely not matrix working sets (e.g. an m*k scratch with small
constant k).
"""

NAME = "memstats"
DOC = ("dense product-shaped buffers outside src/la/ must go through "
       "la::Matrix so memstats accounting sees them")

ALLOWLIST = ("src/la/",)

_RAW_ALLOC = {
    "malloc": "malloc() bypasses memstats accounting; use la::Matrix or a "
              "standard container",
    "calloc": "calloc() bypasses memstats accounting; use la::Matrix or a "
              "standard container",
    "realloc": "realloc() bypasses memstats accounting; use la::Matrix or "
               "a standard container",
    "aligned_alloc": "aligned_alloc() bypasses memstats accounting; use "
                     "la::Matrix (already 64-byte aligned)",
}


def run(ctx):
    toks = ctx.source.tokens
    n = len(toks)
    for i, tok in enumerate(toks):
        if tok.kind != "ident":
            continue
        t = tok.text

        if t in _RAW_ALLOC and i + 1 < n and toks[i + 1].text == "(":
            ctx.report(tok.line, NAME, f"'{t}': {_RAW_ALLOC[t]}")
            continue

        # new double[...]
        if (t == "new" and i + 2 < n and toks[i + 1].text == "double"
                and toks[i + 2].text == "["):
            ctx.report(tok.line, NAME,
                       "'new double[...]' bypasses memstats accounting; "
                       "dense buffers belong in la::Matrix")
            continue

        # AlignedVector<double> outside la/ — the aligned allocator is a
        # kernel-layer implementation detail; going through it directly
        # skips the NoteAlloc seam.
        if (t == "AlignedVector" and i + 3 < n and toks[i + 1].text == "<"
                and toks[i + 2].text == "double"):
            ctx.report(tok.line, NAME,
                       "AlignedVector<double> outside src/la/ bypasses "
                       "memstats accounting; use la::Matrix")
            continue

        # std::vector<double> name(expr_with_product)
        if (t == "vector" and i + 3 < n and toks[i + 1].text == "<"
                and toks[i + 2].text == "double"
                and toks[i + 3].text == ">"):
            j = i + 4
            if j < n and toks[j].kind == "ident":
                j += 1
                if j < n and toks[j].text == "(":
                    # Scan the constructor argument list for a '*' at
                    # paren depth 1 — a product-shaped size.
                    depth = 0
                    for k in range(j, n):
                        tk = toks[k].text
                        if tk == "(":
                            depth += 1
                        elif tk == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        elif tk == "*" and depth == 1:
                            ctx.report(
                                toks[k].line, NAME,
                                "product-shaped std::vector<double> "
                                "allocation is invisible to memstats; use "
                                "la::Matrix for dense working sets")
                            break
