"""Information-set decoding attacks and their success-rate predictors.

The generalized attack reduces the parity check to
``U H_perm = [[I, hp], [0, hpp]]`` for a random size-(n-k-l) column
selection, enumerates the weight-p window words solving the l-bit
subsyndrome by a meet-in-the-middle split, and accepts when the forced part
has weight w - p.  The multi-target (DOOM) variant joins all q syndromes
against one window enumeration per trial: the enumerator memoises its words
per l-bit syndrome tail, each with its front syndrome ``hp e''^T``, so a
trial runs at most min(q, 2^l) probes and completes every candidate with
one XOR and a popcount.  Among several hits in a trial the lowest target
index wins, then that target's first word in enumerator order.

Trials are driven by 64-bit child seeds drawn in trial order from the
caller's rng, so results are reproducible and independent of the worker
count: a parallel run returns exactly the success with the lowest trial
index, as a sequential run would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from .f2 import (
    BitMatrix,
    BitVector,
    ReducedForm,
    SingularSelectionError,
    mat_vec_mul,
    random_full_rank,
    rank,
)

__all__ = [
    "IsdParams",
    "SolutionCount",
    "SuccessEstimate",
    "SearchResult",
    "DoomSolution",
    "WindowEnumerator",
    "m_solutions",
    "prange_success",
    "isd_success",
    "doom_success",
    "prange_attack",
    "generalized_isd",
    "doom_attack",
    "default_doom_targets",
    "plant_instance",
]


@dataclass(frozen=True)
class IsdParams:
    """Window weight p, window extension l, and the trial budget."""

    p: int
    l: int
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.p < 0 or self.l < 0 or self.max_iterations < 0:
            raise ValueError("parameters must be nonnegative")

    def check(self, n: int, k: int, w: int) -> None:
        if self.l > n - k:
            raise ValueError(f"l = {self.l} exceeds n - k = {n - k}")
        if self.p > w:
            raise ValueError(f"p = {self.p} exceeds w = {w}")
        if self.p > k + self.l:
            raise ValueError(f"p = {self.p} exceeds the window k + l")
        if w - self.p > n - k - self.l:
            raise ValueError(
                f"w - p = {w - self.p} cannot fit the {n - k - self.l} selected columns"
            )


@dataclass(frozen=True)
class SolutionCount:
    """Expected number of weight-w solutions per syndrome: C(n,w)/2^(n-k)."""

    exact: Fraction
    log2: float


@dataclass(frozen=True)
class SuccessEstimate:
    """Per-iteration success chance; the exact 1-(1-hit)^expected form and
    the min(1, expected * hit) surrogate are both reported."""

    hit_prob: float
    hit_prob_log2: float
    exact: float
    surrogate: float
    surrogate_log2: float


@dataclass(frozen=True)
class SearchResult:
    solution: Any
    iterations: int
    target_index: int | None = None

    @property
    def found(self) -> bool:
        return self.solution is not None


@dataclass(frozen=True)
class DoomSolution:
    """Error vector plus the hash preimage whose syndrome it decodes."""

    e: BitVector
    preimage: Any

    @classmethod
    def checked(
        cls,
        h: BitMatrix,
        hash_fn: Callable[[Any], BitVector],
        w: int,
        e: BitVector,
        preimage: Any,
    ) -> "DoomSolution":
        if e.weight() != w:
            raise ValueError(f"weight {e.weight()} != {w}")
        if mat_vec_mul(h, e) != hash_fn(preimage):
            raise ValueError("syndrome does not match the hashed preimage")
        return cls(e, preimage)


# --- predictors ---------------------------------------------------------------


def m_solutions(n: int, k: int, w: int) -> SolutionCount:
    exact = Fraction(math.comb(n, w), 1 << (n - k))
    return SolutionCount(exact, math.log2(math.comb(n, w)) - (n - k))


def _estimate(hit: Fraction, expected_log2: float) -> SuccessEstimate:
    hit_f = float(hit)
    hit_log2 = (
        math.log2(hit.numerator) - math.log2(hit.denominator)
        if hit > 0
        else -math.inf
    )
    surrogate_log2 = min(0.0, expected_log2 + hit_log2)
    surrogate = 2.0**surrogate_log2
    if hit_f >= 1.0:
        exact = 1.0
    elif hit == 0:
        exact = 0.0
    elif expected_log2 + hit_log2 > 9:  # expected hits >> 1: saturated
        exact = 1.0
    else:
        exact = -math.expm1(2.0**expected_log2 * math.log1p(-hit_f))
    return SuccessEstimate(hit_f, hit_log2, exact, surrogate, surrogate_log2)


def prange_success(n: int, k: int, w: int) -> SuccessEstimate:
    """Per-iteration success of plain information-set decoding."""
    hit = Fraction(math.comb(n - k, w), math.comb(n, w))
    return _estimate(hit, m_solutions(n, k, w).log2)


def isd_success(n: int, k: int, w: int, p: int, l: int) -> SuccessEstimate:
    """Per-iteration success of the generalized attack: the weight split
    (p on the window, w-p on the selection) must hold for some solution."""
    IsdParams(p, l).check(n, k, w)
    hit = Fraction(
        math.comb(k + l, p) * math.comb(n - k - l, w - p), math.comb(n, w)
    )
    return _estimate(hit, m_solutions(n, k, w).log2)


def doom_success(n: int, k: int, w: int, p: int, l: int, q: int) -> SuccessEstimate:
    """Multi-target variant: q independent syndromes multiply the expected
    number of decodable solutions."""
    if q < 1:
        raise ValueError("need at least one target")
    IsdParams(p, l).check(n, k, w)
    hit = Fraction(
        math.comb(k + l, p) * math.comb(n - k - l, w - p), math.comb(n, w)
    )
    return _estimate(hit, m_solutions(n, k, w).log2 + math.log2(q))


# --- window enumeration ---------------------------------------------------------


class WindowEnumerator:
    """All weight-p window words e'' with ``hpp e''^T = tail``, each paired
    with its front syndrome ``hp e''^T``.

    ``cols`` are the r-bit window column syndromes of the reduced matrix
    (:meth:`cbfdh.f2.ReducedForm.window_columns`), hp's bits below ``front``
    and hpp's above.  Meet-in-the-middle join: left-half patterns are
    tabulated by their l-bit tail once, right-half patterns probe the table,
    and each tail's answer is memoised (at most min(q, 2^l) probes).
    """

    def __init__(self, cols: Sequence[int], front: int, p: int):
        self.window = len(cols)
        self.p = p
        if p > self.window:
            raise ValueError("window weight exceeds window size")
        self.front = front
        self.cols = cols = tuple(cols)
        self.half = self.window // 2
        self.tables: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for p_left in range(
            max(0, p - (self.window - self.half)), min(p, self.half) + 1
        ):
            table: dict[int, list[tuple[int, int]]] = {}
            for combo in combinations(range(self.half), p_left):
                syn = 0
                mask = 0
                for i in combo:
                    syn ^= cols[i]
                    mask |= 1 << i
                table.setdefault(syn >> front, []).append((syn, mask))
            self.tables[p_left] = table
        self._memo: dict[int, tuple[tuple[int, int], ...]] = {}

    def solutions(self, tail: int) -> tuple[tuple[int, int], ...]:
        """(front syndrome, window word) pairs: left weight, then right
        pattern, then left pattern, each in lexicographic order."""
        got = self._memo.get(tail)
        if got is None:
            got = self._memo[tail] = tuple(self._probe(tail))
        return got

    def _probe(self, tail: int) -> list[tuple[int, int]]:
        cols, front = self.cols, self.front
        out: list[tuple[int, int]] = []
        for p_left, table in self.tables.items():
            for combo in combinations(range(self.half, self.window), self.p - p_left):
                syn = tail << front
                mask = 0
                for i in combo:
                    syn ^= cols[i]
                    mask |= 1 << i
                # a matching left half cancels the tail bits, leaving hp e''
                for left_syn, left in table.get(syn >> front, ()):
                    out.append((syn ^ left_syn, left | mask))
        return out


# --- attack driver ----------------------------------------------------------------


class _HashedTargets:
    """Target syndromes, hashed in index order as trials first reach them."""

    def __init__(self, targets: list, hash_fn: Callable[[Any], BitVector], r: int):
        self.targets, self.hash_fn, self.r, self.bits = targets, hash_fn, r, []

    def __iter__(self) -> Iterator[int]:
        yield from self.bits
        for t in self.targets[len(self.bits) :]:
            s = self.hash_fn(t)
            if s.n != self.r:
                raise ValueError("hash output width does not match the matrix")
            self.bits.append(s.bits)
            yield s.bits


def _isd_trial(
    payload: tuple[BitMatrix, Iterable[int], int, int, int],
    child_seed: int,
) -> tuple[int, int] | None:
    """One information-set trial; returns (target index, error bits) or None.

    Targets are scanned in index order against one shared enumerator, and
    each target's window words in enumerator order, so the first hit is the
    lowest target index and then that target's first word.
    """
    h, targets, w, p, l = payload
    front = h.nrows - l
    rng = random.Random(child_seed)
    cols = sorted(rng.sample(range(h.ncols), front))
    try:
        form = ReducedForm(h, cols)
    except SingularSelectionError:
        return None
    enum = WindowEnumerator(form.window_columns(), front, p)
    front_mask = (1 << front) - 1
    need = w - p
    for ti, reduced in enumerate(form.reduce_all(targets)):
        sp = reduced & front_mask
        for syn, e2 in enum.solutions(reduced >> front):
            e1 = sp ^ syn
            if e1.bit_count() == need:
                return ti, form.complete(e1, e2)
    return None


def _search(
    h: BitMatrix,
    targets: Iterable[int],
    w: int,
    params: IsdParams,
    rng: random.Random,
    workers: int,
) -> tuple[tuple[int, int] | None, int]:
    """Run trials until one hits or the budget is spent; h's rank is checked
    once, as a trial cannot tell it from a singular selection."""
    if rank(h) < h.nrows:
        raise ValueError("parity-check matrix is rank deficient")
    trial = partial(_isd_trial, (h, targets, w, params.p, params.l))
    budget = params.max_iterations
    if workers <= 1:
        for idx in range(budget):
            got = trial(rng.getrandbits(64))
            if got is not None:
                return got, idx + 1
        return None, budget
    from concurrent.futures import ProcessPoolExecutor
    block = max(8 * workers, 16)
    done = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while done < budget:
            count = min(block, budget - done)
            seeds = [rng.getrandbits(64) for _ in range(count)]
            for i, got in enumerate(pool.map(trial, seeds)):
                if got is not None:
                    return got, done + i + 1
            done += count
    return None, budget


def generalized_isd(
    h: BitMatrix,
    s: BitVector,
    w: int,
    params: IsdParams,
    rng: random.Random,
    workers: int = 1,
) -> SearchResult:
    """Search for e with ``h e^T = s`` and ``|e| = w``; a None solution in
    the result means the budget ran out, not that no solution exists.
    Raises ValueError when h is rank deficient."""
    n, k = h.ncols, h.ncols - h.nrows
    if s.n != h.nrows:
        raise ValueError("syndrome length mismatch")
    params.check(n, k, w)
    got, used = _search(h, (s.bits,), w, params, rng, workers)
    if got is None:
        return SearchResult(None, used)
    return SearchResult(BitVector(n, got[1]), used)


def prange_attack(
    h: BitMatrix,
    s: BitVector,
    w: int,
    budget: int,
    rng: random.Random,
    workers: int = 1,
) -> SearchResult:
    """Plain information-set decoding: the p = 0, l = 0 specialization."""
    return generalized_isd(h, s, w, IsdParams(0, 0, budget), rng, workers)


def default_doom_targets(q: int) -> list[bytes]:
    return [i.to_bytes(8, "big") for i in range(q)]


def doom_attack(
    h: BitMatrix,
    hash_fn: Callable[[bytes], BitVector],
    w: int,
    params: IsdParams,
    q_limit: int,
    rng: random.Random,
    targets: Sequence[bytes] | None = None,
    workers: int = 1,
) -> SearchResult:
    """Decode any one of q hashed targets.

    Each trial shares one reduction and one window enumeration, memoised per
    syndrome tail, across all target syndromes.  When several targets decode
    in the same trial, the result names the lowest target index and that
    target's first window word in enumerator order, exactly as a scan of the
    targets one at a time would.  With one worker, targets are hashed in
    index order as the trials reach them, so a hash of the wrong width
    raises ValueError when it is first reached, not before the first trial.
    """
    n, k = h.ncols, h.ncols - h.nrows
    params.check(n, k, w)
    if targets is None:
        targets = default_doom_targets(q_limit)
    else:
        targets = list(targets)[:q_limit]
    syndromes = _HashedTargets(targets, hash_fn, h.nrows)
    if workers > 1:  # the workers' payload carries every syndrome
        syndromes = tuple(syndromes)
    got, used = _search(h, syndromes, w, params, rng, workers)
    if got is None:
        return SearchResult(None, used)
    ti, e_bits = got
    solution = DoomSolution.checked(
        h, hash_fn, w, BitVector(n, e_bits), targets[ti]
    )
    return SearchResult(solution, used, target_index=ti)


def plant_instance(
    n: int, k: int, w: int, rng: random.Random
) -> tuple[BitMatrix, BitVector, BitVector]:
    """Random full-rank instance with a known weight-w solution planted."""
    h = random_full_rank(n - k, n, rng)
    e = BitVector.from_support(n, rng.sample(range(n), w))
    return h, mat_vec_mul(h, e), e
