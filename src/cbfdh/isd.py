"""Information-set decoding attacks and their success-rate predictor.

The generalized attack solves on a random size-(n-k-l) column selection S
of h's :class:`cbfdh.f2.SystematicFrame`, the one information-set kernel: a
syndrome reduces to a front part on S, in its low r bits, and an l-bit tail
above them, which is 0 exactly when the syndrome lies in the span of h_S.
The reduced window columns split the same way, into blocks hp (front) and
hpp (tail).  The attack enumerates the weight-p window words solving the
l-bit subsyndrome by a meet-in-the-middle split, and accepts when the
forced part has weight w - p.  The multi-target (DOOM) variant joins all q
syndromes against one window enumeration per trial, whose two halves are
built once, and completes every candidate with one XOR and a popcount.  The
target count sets how a trial shares its work.  With q >= 2^l (and at least
2^l window words) it fills the front syndromes of every tail in one pass and
fetches a window word only on a hit, else it probes each tail it reaches.
With q > r it reduces every target through the selection's byte
tables, else by basis walks.  The selection is the sampler's draw,
unsorted: the order of its columns moves no solution and no tail.  Among
several hits in a trial the lowest target index wins, then that target's
first word in enumerator order.
Targets are hashed once, in index order, into a list that also records each
preimage, and the solved preimage is named from that list; the four-sum
formulation (:mod:`cbfdh.foursum`) builds its sets from the same hashed
targets and window words.

Trials run through :func:`run_trials`, shared with the game harness, on
child seeds drawn in trial order from the caller's rng, so results are
reproducible and independent of the worker count: a parallel run returns
exactly the success with the lowest trial index, as a sequential one would.
"""

from __future__ import annotations

import _signal  # signal's builtin core; signal's enums cost a cold command 1 ms
import math
import os
import random
from contextlib import closing
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import STOP_SIGNALS, stops_blocked, unblock_stops
from ._record import FrozenRecord, set_fields
from .f2 import (
    BitMatrix,
    BitVector,
    SystematicFrame,
    mat_vec_mul,
    random_full_rank,
    sample,
)

__all__ = [
    "IsdParams",
    "SuccessEstimate",
    "SearchResult",
    "DoomSolution",
    "WindowEnumerator",
    "isd_success",
    "generalized_isd",
    "doom_attack",
    "default_doom_targets",
    "plant_instance",
    "run_trials",
]

# the most DOOM targets a run with workers takes: it hashes them all up
# front into the workers' payload, and 2^16 hashes take well under a second
DOOM_WORKERS_MAX_Q = 1 << 16


class IsdParams(FrozenRecord):
    """Window weight p, window extension l, and the trial budget."""

    def __init__(self, p: int, l: int, max_iterations: int = 1000) -> None:
        if p < 0 or l < 0 or max_iterations < 0:
            raise ValueError("parameters must be nonnegative")
        set_fields(self, locals())

    def check(self, n: int, k: int, w: int) -> None:
        if not 0 <= k <= n:
            raise ValueError(f"k = {k} must lie in 0..n = {n}")
        if not 0 <= w <= n:
            raise ValueError(f"w = {w} must lie in 0..n = {n}")
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


class SuccessEstimate(FrozenRecord):
    """Per-iteration success chance; the exact 1-(1-hit)^expected form and
    the min(1, expected * hit) surrogate are both reported."""

    def __init__(
        self, hit_prob: float, hit_prob_log2: float, exact: float,
        surrogate: float, surrogate_log2: float,
    ) -> None:
        set_fields(self, locals())


class SearchResult(FrozenRecord):
    def __init__(
        self, solution: Any, iterations: int, target_index: int | None = None
    ) -> None:
        set_fields(self, locals())

    @property
    def found(self) -> bool:
        return self.solution is not None


class DoomSolution(FrozenRecord):
    """Error vector plus the hash preimage whose syndrome it decodes."""

    def __init__(self, e: BitVector, preimage: Any) -> None:
        set_fields(self, locals())

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


def isd_success(
    n: int, k: int, w: int, p: int = 0, l: int = 0, q: int = 1
) -> SuccessEstimate:
    """Per-iteration success of the generalized attack on q targets.

    The weight split (p on the window, w-p on the selection) must hold for
    some solution.  The expected number of solutions, C(n, w)/2^(n-k) * q,
    is this function's own term: it models q uniformly random syndromes.
    ``attack`` plants a solution, so below the GV weight, where that count
    is far below 1, the prediction is far off: at (n, k, w) = (40, 20, 3)
    it reads about 920 iterations, and planted instances take about 30.
    p = l = 0, q = 1 is plain information-set decoding.
    """
    if q < 1:
        raise ValueError("need at least one target")
    IsdParams(p, l).check(n, k, w)
    total = math.comb(n, w)
    expected_log2 = math.log2(total) - (n - k) + math.log2(q)
    num = math.comb(k + l, p) * math.comb(n - k - l, w - p)
    g = math.gcd(num, total)
    num, den = num // g, total // g  # hit in lowest terms, as a Fraction holds it
    hit_f = num / den
    # the check above keeps hit positive, so its log2 is finite
    hit_log2 = math.log2(num) - math.log2(den)
    surrogate_log2 = min(0.0, expected_log2 + hit_log2)
    surrogate = 2.0**surrogate_log2
    if hit_f >= 1.0 or expected_log2 + hit_log2 > 9:  # certain, or saturated
        exact = 1.0
    elif expected_log2 >= 1024 or hit_f == 0.0:  # past float range: the hit << 1 limit
        exact = -math.expm1(-(2.0 ** (expected_log2 + hit_log2)))
    else:
        exact = -math.expm1(2.0**expected_log2 * math.log1p(-hit_f))
    return SuccessEstimate(hit_f, hit_log2, exact, surrogate, surrogate_log2)


# --- window enumeration ---------------------------------------------------------


def _words(
    cols: Sequence[int], positions: range, weight: int, front: int
) -> list[tuple[int, int, int]]:
    """(tail, front syndrome, mask) of each weight-``weight`` pattern on
    ``positions``, in lexicographic order."""
    front_mask = (1 << front) - 1
    out = []
    for combo in combinations(positions, weight):
        syn = mask = 0
        for i in combo:
            syn ^= cols[i]
            mask |= 1 << i
        out.append((syn >> front, syn & front_mask, mask))
    return out


class WindowEnumerator:
    """All weight-p window words e'' with ``hpp e''^T = tail``, each paired
    with its front syndrome ``hp e''^T``.

    ``cols`` are the reduced window columns
    (:meth:`cbfdh.f2.Selection.window_columns`), hp's bits below ``front``
    and hpp's above.  Meet-in-the-middle join: both halves are built once,
    the left words keyed by their l-bit tail and the right words listed with
    theirs.  One tail costs one XOR and one lookup per right word;
    :meth:`every_tail` instead joins every left word
    with every right word once, for a caller that expects to reach most of
    the 2^l tails.
    """

    def __init__(self, cols: Sequence[int], front: int, p: int):
        window, half = len(cols), len(cols) // 2
        if p > window:
            raise ValueError("window weight exceeds window size")
        # per left weight: the left words by tail, the left words in
        # lexicographic order, and the right words
        self.joins: list[tuple[dict[int, list[tuple[int, int]]], list, list]] = []
        self.size = 0  # the number of window words
        for p_left in range(max(0, p - (window - half)), min(p, half) + 1):
            table: dict[int, list[tuple[int, int]]] = {}
            lefts = _words(cols, range(half), p_left, front)
            for tail, syn, mask in lefts:
                table.setdefault(tail, []).append((syn, mask))
            rights = _words(cols, range(half, window), p - p_left, front)
            self.joins.append((table, lefts, rights))
            self.size += len(lefts) * len(rights)

    def solutions(self, tail: int) -> tuple[tuple[int, int], ...]:
        """(front syndrome, window word) pairs: left weight, then right
        pattern, then left pattern, each in lexicographic order."""
        out: list[tuple[int, int]] = []
        for table, _, rights in self.joins:
            get = table.get
            for right_tail, right_syn, right in rights:
                # a left half with the complementary tail completes the word
                for left_syn, left in get(tail ^ right_tail, ()):
                    out.append((right_syn ^ left_syn, left | right))
        return tuple(out)

    def every_tail(self, l: int) -> list[list[int]]:
        """The front syndromes of ``solutions(tail)``, in its order, for
        each of the 2^l tails, filled in one pass: per left weight, each
        right word in order, then each left word in order, whose tail with
        the right word's picks the list it joins."""
        fronts: list[list[int]] = [[] for _ in range(1 << l)]
        for _, lefts, rights in self.joins:
            for right_tail, right_syn, _ in rights:
                for left_tail, left_syn, _ in lefts:
                    fronts[left_tail ^ right_tail].append(right_syn ^ left_syn)
        return fronts


# --- attack driver ----------------------------------------------------------------


class _HashedTargets:
    """Target syndromes, hashed in index order as trials first reach them:
    every trial resumes one shared iterator past the hashed ones, and
    ``preimages[i]`` records the preimage of the i-th."""

    def __init__(self, preimages: Iterable, hash_fn: Callable[[Any], BitVector], r: int):
        self.pending, self.hash_fn, self.r = iter(preimages), hash_fn, r
        self.preimages, self.bits = [], []

    def __iter__(self) -> Iterator[int]:
        yield from self.bits
        for t in self.pending:
            s = self.hash_fn(t)
            if s.n != self.r:
                raise ValueError("hash output width does not match the matrix")
            self.preimages.append(t)
            self.bits.append(s.bits)
            yield s.bits


def _isd_trial(
    payload: tuple[SystematicFrame, Iterable[int], int, int, int, int],
    child_seed: int,
) -> tuple[int, int] | None:
    """One information-set trial on q targets; returns (target index, error
    bits) or None.

    Targets are scanned in index order against one shared enumerator, and
    each target's window words in enumerator order, so the first hit is the
    lowest target index and then that target's first word.  q picks the
    tail lookup and the reduction, as the module notes say.
    """
    frame, targets, q, w, p, l = payload
    r = len(frame.cols)
    rng = random.Random(child_seed)
    selection = frame.select(sample(rng, len(frame.coords), r - l))
    if selection is None:
        return None
    enum = WindowEnumerator(selection.window_columns(), r, p)
    # a fill spends a list on each tail: worth it when there are at least
    # as many targets to reach the tails and as many words to fill them
    fronts = enum.every_tail(l) if 1 << l <= min(q, enum.size) else None
    tables = selection.byte_tables() if q > r else None  # for 2r basis walks
    front_mask = (1 << r) - 1
    need = w - p
    for ti, s in enumerate(targets):
        if tables is None:
            reduced = selection.reduce(frame.reduce(s))
        else:
            reduced = 0
            for table in tables:
                reduced ^= table[s & 255]
                s >>= 8
        sp, tail = reduced & front_mask, reduced >> r
        if fronts is None:
            for syn, e2 in enum.solutions(tail):
                e1 = sp ^ syn
                if e1.bit_count() == need:
                    return ti, selection.complete(e1, e2)
        else:
            for syn in fronts[tail]:
                if (sp ^ syn).bit_count() == need:
                    # the tail's first word with this front syndrome
                    e2 = enum.solutions(tail)[fronts[tail].index(syn)][1]
                    return ti, selection.complete(sp ^ syn, e2)
    return None


def _worker_signals(owner: int) -> None:
    """Pool initializer, given its owner's pid: a terminal's ^C is for the
    owner to handle, SIGTERM ends a worker at once, whatever handler fork
    passed on, and a worker whose owner died (say, by SIGKILL or a stop,
    neither of which shuts the pool down) exits within a second, also when
    the owner died before this ran.  Forked with the stops blocked, the
    worker unblocks them under these handlers."""
    import multiprocessing
    import threading
    import time

    interrupt, terminate = STOP_SIGNALS
    _signal.signal(interrupt, _signal.SIG_IGN)
    _signal.signal(terminate, _signal.SIG_DFL)
    unblock_stops()
    if multiprocessing.get_start_method(allow_none=True) == "forkserver":
        # the parent is the server, which stays up while any worker holds
        # its alive pipe; the owner holds this worker's sentinel pipe open
        owner_alive = multiprocessing.parent_process().is_alive
    else:
        def owner_alive() -> bool:
            return os.getppid() == owner

    def exit_when_orphaned() -> None:
        while owner_alive():
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def run_trials(
    trial: Callable[[int], Any], count: int, rng: random.Random, workers: int = 1
) -> Iterator[Any]:
    """Yield ``trial(seed)`` for ``count`` seeds ``rng.getrandbits(64)`` in
    trial order, each drawn as its trial starts.  Capped at the CPU count,
    two or more workers make a pool that maps blocks of seeds, from
    max(8 * workers, 16) up to 1024, one block ahead of the block being
    read, so the outputs do not depend on ``workers`` and a caller that
    stops early has drawn at most one block ahead.  Closing the generator
    shuts its pool down."""
    workers = min(workers, os.cpu_count() or 1) if workers > 1 else 1
    if workers <= 1:
        for _ in range(count):
            yield trial(rng.getrandbits(64))
        return
    from concurrent.futures import ProcessPoolExecutor
    block, ahead = max(8 * workers, 16), iter(())
    pool = ProcessPoolExecutor(workers, initializer=partial(_worker_signals, os.getpid()))
    try:
        while count > 0:
            seeds = [rng.getrandbits(64) for _ in range(min(block, count))]
            count -= len(seeds)
            # four tasks per worker, but a task's round trip costs this
            # process about one small trial, so each holds at least 16
            chunk = max(16, len(seeds) // (4 * workers))
            # the pool runs this block while the caller reads the one before;
            # no stop handler may run while a map forks workers or threads
            current, ahead = ahead, stops_blocked(
                partial(pool.map, chunksize=chunk), trial, seeds)
            yield from current
            block = min(2 * block, 1024)
        yield from ahead
    finally:  # an early stop waits only for the tasks workers have taken
        pool.shutdown(cancel_futures=True)


def _search(
    h: BitMatrix,
    targets: Iterable[int],
    q: int,
    w: int,
    params: IsdParams,
    rng: random.Random,
    workers: int,
) -> tuple[tuple[int, int] | None, int]:
    """Run trials until one hits or the budget is spent; h's frame is built
    once, and a rank-deficient h, which has none, is refused before any
    target is hashed, as a trial cannot tell it from a singular selection."""
    if h.frame is None:
        raise ValueError("parity-check matrix is rank deficient")
    if workers > 1:  # the workers' payload carries every syndrome
        targets = tuple(targets)
    trial = partial(_isd_trial, (h.frame, targets, q, w, params.p, params.l))
    budget = params.max_iterations
    with closing(run_trials(trial, budget, rng, workers)) as trials:
        for used, got in enumerate(trials, 1):
            if got is not None:
                return got, used
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
    got, used = _search(h, (s.bits,), 1, w, params, rng, workers)
    if got is None:
        return SearchResult(None, used)
    return SearchResult(BitVector(n, got[1]), used)


def default_doom_targets(q: int) -> Iterator[bytes]:
    """The q preimages ``i.to_bytes(8, "big")``, i < q, made as they are
    reached; ValueError for q above 2^64, the most that 8 bytes can count."""
    if q > 1 << 64:
        raise ValueError(f"q = {q} exceeds 2^64")
    return (i.to_bytes(8, "big") for i in range(q))


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

    Each trial shares one reduction and one window enumeration across all
    target syndromes; q, the targets given or else ``q_limit``, picks how
    (see the module notes).  When several targets decode
    in the same trial, the result names the lowest target index and that
    target's first window word in enumerator order, exactly as a scan of the
    targets one at a time would.  With one worker, targets are hashed in
    index order as the trials reach them, so a hash of the wrong width
    raises ValueError when it is first reached, not before the first trial;
    more workers hash all q up front, and refuse q > ``DOOM_WORKERS_MAX_Q``.
    """
    n, k = h.ncols, h.ncols - h.nrows
    params.check(n, k, w)
    if targets is None:
        targets = default_doom_targets(q_limit)
    else:
        targets = list(targets)[:max(q_limit, 0)]
        q_limit = len(targets)
    if q_limit < 1:
        raise ValueError("need at least one target")
    if workers > 1 and q_limit > DOOM_WORKERS_MAX_Q:
        raise ValueError(f"q = {q_limit} exceeds {DOOM_WORKERS_MAX_Q}, the most for workers")
    hashed = _HashedTargets(targets, hash_fn, h.nrows)
    got, used = _search(h, hashed, q_limit, w, params, rng, workers)
    if got is None:
        return SearchResult(None, used)
    ti, e_bits = got
    solution = DoomSolution.checked(
        h, hash_fn, w, BitVector(n, e_bits), hashed.preimages[ti]
    )
    return SearchResult(solution, used, target_index=ti)


def plant_instance(
    n: int, k: int, w: int, rng: random.Random
) -> tuple[BitMatrix, BitVector, BitVector]:
    """Random full-rank instance with a known weight-w solution planted."""
    h = random_full_rank(n - k, n, rng)
    e = BitVector.from_support(n, sample(rng, n, w))
    return h, mat_vec_mul(h, e), e
