"""Exact syndrome laws of a parity-check matrix, from one pass over its columns.

``syndrome_counts(h, w)[s]`` is the number of weight-w words with syndrome s:
the law of a uniform weight-w word's syndrome, times C(n, w).  Its exact
distance from uniform, :func:`distance_from_uniform`, is the paper's rho_pub;
the Z oracle's half mixture of uniform and that law (counts ``N + 2^r * c``)
is rho_pub / 2 from uniform.
"""

from fractions import Fraction
from operator import add
from typing import Sequence

from .f2 import BitMatrix

__all__ = ["syndrome_counts", "distance_from_uniform"]

# the most entries, (w + 1) * 2^r, that syndrome_counts holds: it caps memory
# (about 100 MB of Python ints), not C(n, w); n = 64, r = 16, w = 10 holds
# 11 * 2^16
TABLE_LIMIT = 1 << 21


def syndrome_counts(h: BitMatrix, w: int) -> list[int]:
    """``counts[s]``, the number of weight-w words with syndrome ``s``.

    After each column c, ``cnt[j][s]`` counts the weight-j subsets of the
    columns so far with syndrome s, so column c adds ``cnt[j - 1][s ^ c]``
    to ``cnt[j][s]`` for j from w down to 1: n * w * 2^r additions in all.
    """
    if not 0 <= w <= h.ncols:
        raise ValueError("weight outside [0, n]")
    if (w + 1) << h.nrows > TABLE_LIMIT:
        raise ValueError(f"a {w + 1} x 2^{h.nrows} count table exceeds the 2^21-entry guard")
    size = 1 << h.nrows
    cnt = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(w)]
    for c in h.columns():
        moved = [s ^ c for s in range(size)]
        for j in range(w, 0, -1):
            cnt[j] = list(map(add, cnt[j], map(cnt[j - 1].__getitem__, moved)))
    return cnt[w]


def distance_from_uniform(counts: Sequence[int]) -> Fraction:
    """Total variation distance of ``counts``, normalized, from the uniform
    law on its ``len(counts)`` outcomes: sum |c * size - N| / (2 * N * size)
    with N = sum(counts)."""
    total, size = sum(counts), len(counts)
    return Fraction(sum(abs(c * size - total) for c in counts), 2 * total * size)
