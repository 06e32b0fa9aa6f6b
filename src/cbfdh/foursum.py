"""Four-set sum formulation of one window-enumeration step.

For a fixed column selection, finding a weight-p window word whose
subsyndrome matches one of many hashed targets is cast as a 4-sum problem
over G = F_2^{l/2} x F_2^{l/2}: the window splits into three equal thirds
carrying weight p/3 each (sets V1, V2, V3 of window masks, the window words
of :mod:`cbfdh.isd`, mapped through the tails of the reduced window columns
of a selection of h's :class:`cbfdh.f2.SystematicFrame`, the one
information-set kernel), while V4 is a set of hash preimages, by default
DOOM's counter targets, hashed once as :func:`cbfdh.isd.doom_attack`
hashes them, reduced by basis walks and mapped to the l-bit tail of their
reduced syndrome.  A quadruple summing to zero means the combined window
word solves the subsyndrome for that preimage; the predicate g accepts when
the completed error vector has full weight w, and then the completion is a
valid multi-target decoding solution.

The classical solver joins V1 x V2 against V3 x V4 on the first l/2 group
coordinates and filters the collisions, returning every solution.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Any, Callable, Sequence

from ._record import FrozenRecord, set_fields
from .f2 import BitMatrix, BitVector, Selection, SingularSelectionError
from .isd import DoomSolution, _HashedTargets, _words, default_doom_targets

__all__ = [
    "FourSumInstance",
    "snap_foursum_params",
    "build_foursum_instance",
    "solve_foursum",
    "lift_foursum_solution",
]


def snap_foursum_params(k: int, l: int, p: int) -> tuple[int, int]:
    """Nearest (l, p) with l even, 3 | (k + l) and 3 | p.

    The construction needs the window k + l to split into equal thirds and
    the weight to split across them; callers with arbitrary parameters snap
    them here first.
    """
    if l < 0 or p < 0:
        raise ValueError("parameters must be nonnegative")
    best_l = min(
        (cand for cand in range(max(0, l - 6), l + 7) if cand % 2 == 0 and (k + cand) % 3 == 0),
        key=lambda cand: (abs(cand - l), cand),
    )
    best_p = 3 * round(p / 3)
    return best_l, best_p


class FourSumInstance(FrozenRecord):
    """The four sets with their maps into F_2^l, plus completion data:
    the selection, its reduced window columns and the reduced syndrome of
    each preimage (front in the low r bits, tail above)."""

    def __init__(
        self, h: BitMatrix, hash_fn: Callable[[Any], BitVector], cols: tuple[int, ...],
        p: int, l: int, w: int, selection: Selection, window_columns: tuple[int, ...],
        v1: tuple[int, ...], v2: tuple[int, ...], v3: tuple[int, ...],
        v4: tuple[Any, ...], targets: dict[Any, int],
    ) -> None:
        set_fields(self, locals())

    @property
    def window(self) -> int:
        return self.h.ncols - len(self.cols)

    def _reduced_window(self, mask: int) -> int:
        """The XOR of the reduced window columns the window word selects."""
        out = 0
        while mask:
            low = mask & -mask
            out ^= self.window_columns[low.bit_length() - 1]
            mask ^= low
        return out

    def window_syndrome(self, mask: int) -> int:
        """``hpp mask^T``: the reduced syndrome of the window word, less its front."""
        return self._reduced_window(mask) >> self.h.nrows

    def f4(self, preimage: Any) -> int:
        """The l-bit tail of the reduced target syndrome."""
        return self.targets[preimage] >> self.h.nrows

    def complete(self, window_mask: int, preimage: Any) -> BitVector:
        """Error vector whose window part is ``window_mask`` and whose forced
        part closes the syndrome of ``preimage`` when the word's tail matches
        the preimage's."""
        front = (1 << self.h.nrows) - 1
        e1 = (self.targets[preimage] ^ self._reduced_window(window_mask)) & front
        return BitVector(self.h.ncols, self.selection.complete(e1, window_mask))

    def g(self, v1: int, v2: int, v3: int, preimage: Any) -> bool:
        """Accept when the completed error vector has full weight w."""
        return self.complete(v1 ^ v2 ^ v3, preimage).weight() == self.w


def build_foursum_instance(
    h: BitMatrix,
    hash_fn: Callable[[Any], BitVector],
    cols: Sequence[int],
    p: int,
    l: int,
    w: int,
    preimages: Sequence[Any] | None = None,
) -> FourSumInstance:
    """Build the instance for one column selection of size n - k - l.

    Requires l even, p and the window size k + l divisible by 3 (see
    :func:`snap_foursum_params`).  ``preimages`` defaults to counter byte
    strings (:func:`cbfdh.isd.default_doom_targets`); exactly C((k+l)/3, p/3)
    of them are used so all four sets have equal size.  Every preimage is
    hashed here, so a hash of the wrong width raises ValueError at build.
    """
    n, r = h.ncols, h.nrows
    if len(cols) > r or len(set(cols)) != len(cols) or not all(0 <= c < n for c in cols):
        raise ValueError(f"need at most {r} distinct positions in [0, {n})")
    if l % 2:
        raise ValueError("l must be even to split the group in halves")
    if len(cols) != r - l:
        raise ValueError("need n - k - l selected columns")
    window = n - len(cols)
    if window % 3 or p % 3:
        raise ValueError("window and weight must split into thirds")
    if p > window or p > w:
        raise ValueError("infeasible window weight")
    third, p3 = window // 3, p // 3
    if p3 > third:
        raise ValueError("third weight exceeds third size")
    if h.frame is None:
        raise ValueError("parity-check matrix is rank deficient")
    size = math.comb(third, p3)
    if preimages is None:
        preimages = default_doom_targets(size)
    preimages = list(preimages)[:size]
    if len(preimages) < size:
        raise ValueError(f"need at least {size} preimages")
    selection = h.frame.select(cols)
    if selection is None:
        raise SingularSelectionError("column selection singular")
    window_columns = selection.window_columns()
    v1, v2, v3 = (
        tuple(mask for _, _, mask in _words(window_columns, range(i, i + third), p3, r))
        for i in (0, third, 2 * third)
    )
    hashed = _HashedTargets(preimages, hash_fn, r)
    reduced = map(selection.reduce, map(h.frame.reduce, hashed))
    return FourSumInstance(
        h=h,
        hash_fn=hash_fn,
        cols=tuple(cols),
        p=p,
        l=l,
        w=w,
        selection=selection,
        window_columns=window_columns,
        v1=v1,
        v2=v2,
        v3=v3,
        v4=tuple(preimages),
        targets=dict(zip(preimages, reduced)),
    )


def solve_foursum(
    inst: FourSumInstance, budget: int | None = None
) -> list[tuple[int, int, int, Any]]:
    """All quadruples (v1, v2, v3, preimage) with matching subsyndromes and
    g = 1, via a meet-in-the-middle join on the first l/2 group coordinates.

    Every collision is expanded (no sampling).  ``budget`` caps the number
    of expanded collisions; hitting the cap returns the solutions found so
    far, so an empty list only means none were found within budget.
    """
    half_mask = (1 << (inst.l // 2)) - 1
    table: dict[int, list[tuple[int, int, int]]] = {}
    for v1, v2 in product(inst.v1, inst.v2):
        val = inst.window_syndrome(v1 ^ v2)
        table.setdefault(val & half_mask, []).append((v1, v2, val))
    out: list[tuple[int, int, int, Any]] = []
    expanded = 0
    for v3, preimage in product(inst.v3, inst.v4):
        val = inst.window_syndrome(v3) ^ inst.f4(preimage)
        for v1, v2, lhs in table.get(val & half_mask, ()):
            expanded += 1
            if budget is not None and expanded > budget:
                return out
            if lhs == val and inst.g(v1, v2, v3, preimage):
                out.append((v1, v2, v3, preimage))
    return out


def lift_foursum_solution(
    inst: FourSumInstance, sol: tuple[int, int, int, Any]
) -> DoomSolution:
    """Turn a solver output into a checked multi-target decoding solution.

    Raises ValueError when the tuple is not a solution of this instance
    (precondition), and RuntimeError when the completion fails its final
    checks, which would indicate an instance or solver bug.
    """
    v1, v2, v3, preimage = sol
    if v1 not in inst.v1 or v2 not in inst.v2 or v3 not in inst.v3:
        raise ValueError("window parts are not members of the three sets")
    if preimage not in inst.v4:
        raise ValueError("preimage is not a member of the fourth set")
    window_word = v1 ^ v2 ^ v3
    if inst.window_syndrome(window_word) != inst.f4(preimage):
        raise ValueError("quadruple does not sum to zero")
    if not inst.g(v1, v2, v3, preimage):
        raise ValueError("completion does not reach the target weight")
    e = inst.complete(window_word, preimage)
    try:
        return DoomSolution.checked(inst.h, inst.hash_fn, inst.w, e, preimage)
    except ValueError as exc:
        raise RuntimeError(f"lift failed an internal check: {exc}") from exc
