"""The (U, U+V) parity check, exact syndrome-weight distributions, and
statistical distance on finite distributions.

Exact distributions are tallied with integer counts and normalized into
``fractions.Fraction`` masses at the end, so equality checks (for example
against an explicit mixture) are exact rather than float-tolerant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .f2 import BitMatrix, BitVector

__all__ = [
    "DiscreteDistribution",
    "uuv_parity_check",
    "syndrome_weight_distribution",
    "stat_distance",
    "product_distance_bound",
]


def uuv_parity_check(h_u: BitMatrix, h_v: BitMatrix) -> BitMatrix:
    """Parity check ``[[H_U, 0], [H_V, H_V]]`` of the code of words (u, u+v)
    with u in U and v in V, from full-rank parity checks H_U and H_V: the
    top block forces the left half into U and the bottom block forces the
    half-sum into V."""
    if h_u.ncols != h_v.ncols:
        raise ValueError("U and V must share the same length")
    if h_u.frame is None or h_v.frame is None:
        raise ValueError("component parity checks must have full rank")
    top = h_u.hstack(BitMatrix.zeros(h_u.nrows, h_u.ncols))
    return top.vstack(h_v.hstack(h_v))


class DiscreteDistribution:
    """Probability distribution on m-bit outcomes with exact rational mass."""

    def __init__(self, bits: int, mass: Mapping[int, Fraction]):
        if bits < 0:
            raise ValueError("negative outcome width")
        total = Fraction(0)
        clean: dict[int, Fraction] = {}
        limit = 1 << bits
        for outcome, p in mass.items():
            if not 0 <= outcome < limit:
                raise ValueError(f"outcome {outcome} outside {bits}-bit space")
            p = Fraction(p)
            if p < 0:
                raise ValueError("negative mass")
            if p:
                clean[outcome] = p
            total += p
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")
        self.bits = bits
        self.mass = clean

    @classmethod
    def uniform(cls, bits: int) -> "DiscreteDistribution":
        p = Fraction(1, 1 << bits)
        return cls(bits, {x: p for x in range(1 << bits)})

    @classmethod
    def point(cls, bits: int, outcome: int) -> "DiscreteDistribution":
        return cls(bits, {outcome: Fraction(1)})

    @classmethod
    def from_counts(cls, bits: int, counts: Mapping[int, int]) -> "DiscreteDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("empty count table")
        return cls(bits, {x: Fraction(c, total) for x, c in counts.items() if c})

    def prob(self, outcome: int) -> Fraction:
        return self.mass.get(outcome, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def mixture(self, other: "DiscreteDistribution", weight: Fraction) -> "DiscreteDistribution":
        """Convex combination: weight * self + (1 - weight) * other."""
        if self.bits != other.bits:
            raise ValueError("outcome spaces differ")
        w = Fraction(weight)
        if not 0 <= w <= 1:
            raise ValueError("mixture weight outside [0, 1]")
        out: dict[int, Fraction] = {}
        for x, p in self.mass.items():
            out[x] = w * p
        for x, p in other.mass.items():
            out[x] = out.get(x, Fraction(0)) + (1 - w) * p
        return DiscreteDistribution(self.bits, out)

    def to_text(self) -> str:
        """One ``hex probability`` line per outcome, 17 significant digits."""
        width = (self.bits + 7) // 8 * 2
        lines = []
        for x in self.support():
            key = BitVector(self.bits, x).to_hex() if self.bits else "00"
            lines.append(f"{key or '':<{max(width, 2)}} {float(self.mass[x]):.17g}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteDistribution)
            and self.bits == other.bits
            and self.mass == other.mass
        )

    def __repr__(self) -> str:
        return f"DiscreteDistribution(bits={self.bits}, support={len(self.mass)})"


def syndrome_weight_distribution(
    matrix: BitMatrix,
    w: int,
    max_patterns: int = 1 << 24,
) -> DiscreteDistribution:
    """Exact distribution of ``H e^T`` over uniform weight-w words ``e``.

    Enumerates all C(n, w) supports, so the guard ``max_patterns`` refuses
    jobs that would not finish at desk scale.
    """
    n = matrix.ncols
    if not 0 <= w <= n:
        raise ValueError("weight outside [0, n]")
    if math.comb(n, w) > max_patterns:
        raise ValueError(
            f"C({n}, {w}) = {math.comb(n, w)} exceeds the enumeration guard"
        )
    cols = matrix.columns()
    counts: dict[int, int] = {}
    for support in combinations(range(n), w):
        s = 0
        for i in support:
            s ^= cols[i]
        counts[s] = counts.get(s, 0) + 1
    return DiscreteDistribution.from_counts(matrix.nrows, counts)


def stat_distance(d0: DiscreteDistribution, d1: DiscreteDistribution) -> Fraction:
    """Total variation distance, exact: half the L1 gap over the joint support."""
    if d0.bits != d1.bits:
        raise ValueError("outcome spaces differ")
    keys = set(d0.mass) | set(d1.mass)
    gap = sum((abs(d0.prob(x) - d1.prob(x)) for x in keys), Fraction(0))
    return gap / 2


def product_distance_bound(
    pairs: Iterable[tuple[DiscreteDistribution, DiscreteDistribution]]
) -> Fraction:
    """Union bound on the distance between product distributions:
    the distance of the tuples is at most the sum of per-slot distances."""
    return sum((stat_distance(a, b) for a, b in pairs), Fraction(0))
