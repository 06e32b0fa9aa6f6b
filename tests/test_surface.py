"""Every module-level function and class in ``src/cbfdh`` has a library
caller, or a pinned reason to stay without one.

The scan parses each module with ``ast``.  A module-level ``def`` or
``class`` is used when a ``Name`` or ``Attribute`` in ``src/cbfdh`` spells
it, read from live code: module-level statements, or the body of a name
that is itself used.  Strings (``__all__``), import lines and a name's
references to itself do not count.  The live set grows until it stops
changing, so a class that only an unused function builds is unused too.
Matching is by spelling alone, so a method or attribute of the same name
keeps a def alive: the gate misses some dead code but never flags live code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cbfdh"

# unused by library code, and why each one stays; a name may leave this
# dict (it gains a caller, or goes) but never join it
PINNED = {
    "codes.syndrome_counts": "exact syndrome law; items 3, 4 and 12 use it",
    "codes.distance_from_uniform": "exact rho_pub; items 3, 4 and 12 use it",
    "f2.systematic_form": "reference the kernel tests compare against; bench tracer target",
    "f2.front_permutation": "reference the kernel tests compare against; bench tracer target",
    "foursum.FourSumInstance": "four-sum formulation of DOOM; item 6",
    "foursum.build_foursum_instance": "four-sum formulation of DOOM; item 6",
    "foursum.lift_foursum_solution": "four-sum formulation of DOOM; item 6",
    "foursum.snap_foursum_params": "four-sum formulation of DOOM; item 6",
    "foursum.solve_foursum": "four-sum formulation of DOOM; item 6",
    "hashing.rank_weight_pattern": "item 10's signature encoder",
}


def _spellings(node: ast.AST) -> set[str]:
    """Names and attribute names that ``node`` reads or binds."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unused_names() -> set[str]:
    """``module.name`` of every module-level def or class nothing live uses."""
    defs: dict[str, tuple[str, set[str]]] = {}  # qualified -> (name, its refs)
    live_refs: set[str] = set()  # references from module-level statements
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, _spellings(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                live_refs |= _spellings(stmt)
    unused = set(defs)
    while True:
        used = {q for q in unused if defs[q][0] in live_refs}
        if not used:
            return unused
        unused -= used
        for q in used:
            live_refs |= defs[q][1]


def test_every_unused_name_is_pinned_with_a_reason():
    unused = unused_names()
    unpinned = sorted(unused - PINNED.keys())
    assert not unpinned, (
        "no library code uses "
        + ", ".join(unpinned)
        + ": delete each one or give it a caller in src/cbfdh"
    )
    stale = sorted(PINNED.keys() - unused)
    assert not stale, (
        "library code now uses (or no longer defines) "
        + ", ".join(stale)
        + ": drop each one from PINNED"
    )
