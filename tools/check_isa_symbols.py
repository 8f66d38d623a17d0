#!/usr/bin/env python3
"""Fails unless each ISA kernel object exports exactly its table accessor.

The avx2 and avx512 kernel translation units are the only ones built with
their -m flags (la/kernels.h). If one of them defined an inline or
template helper with external linkage, the compiler would put it in a
weak (COMDAT) symbol, and the linker could pick that AVX-512 copy for a
call made on a host the dispatcher classified as AVX2-only. So each of
kernels_avx2.cc.o and kernels_avx512.cc.o in the library archive must
define exactly one global symbol, its accessor, and no weak, unique or
other global symbol.

Usage: check_isa_symbols.py NM LIBRARY_ARCHIVE
"""

import subprocess
import sys

EXPECTED = {
    "kernels_avx2.cc.o": "rhchme::la::simd::Avx2KernelTable()",
    "kernels_avx512.cc.o": "rhchme::la::simd::Avx512KernelTable()",
}


def exported_symbols(nm, archive):
    """{member: [(type, name)]} for every non-local defined symbol."""
    out = subprocess.run([nm, "--defined-only", "-C", archive], check=True,
                         capture_output=True, text=True).stdout
    members, current = {}, None
    for line in out.splitlines():
        if line.endswith(":") and " " not in line:
            current = line[:-1]
            members[current] = []
            continue
        parts = line.split(maxsplit=2)
        if current is None or len(parts) != 3:
            continue
        kind, name = parts[1], parts[2]
        # Upper case: global. u: unique global. v, w: weak. i: ifunc.
        if kind.isupper() or kind in "uvwi":
            members[current].append((kind, name))
    return members


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    members = exported_symbols(sys.argv[1], sys.argv[2])
    failed = False
    for member, accessor in EXPECTED.items():
        got = members.get(member)
        if got is None:
            print(f"FAIL {member}: not in {sys.argv[2]}")
            failed = True
        elif got != [("T", accessor)]:
            print(f"FAIL {member}: expected only 'T {accessor}', got:")
            for kind, name in got:
                print(f"  {kind} {name}")
            failed = True
        else:
            print(f"OK   {member}: T {accessor}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
