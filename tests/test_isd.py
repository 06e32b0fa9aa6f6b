import concurrent.futures
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from cbfdh import isd
from cbfdh.f2 import (
    BitMatrix,
    BitVector,
    SingularSelectionError,
    front_permutation,
    mat_vec_mul,
    random_full_rank,
    random_matrix,
    sample,
    systematic_form,
)
from cbfdh.hashing import syndrome_hash
from cbfdh.isd import (
    DoomSolution,
    IsdParams,
    SearchResult,
    WindowEnumerator,
    default_doom_targets,
    doom_attack,
    generalized_isd,
    isd_success,
    plant_instance,
    run_trials,
)


def brute_force_search(h: BitMatrix, s: BitVector, w: int) -> BitVector | None:
    for supp in combinations(range(h.ncols), w):
        e = BitVector.from_support(h.ncols, supp)
        if mat_vec_mul(h, e) == s:
            return e
    return None


def count_solutions_mitm(h: BitMatrix, s_bits: int, w: int) -> int:
    """Exact weight-w preimage count by a half-split subsyndrome join."""
    n = h.ncols
    cols = h.columns()
    half = n // 2
    total = 0
    for i in range(max(0, w - (n - half)), min(w, half) + 1):
        table: Counter[int] = Counter()
        for combo in combinations(range(half), i):
            acc = 0
            for j in combo:
                acc ^= cols[j]
            table[acc] += 1
        for combo in combinations(range(half, n), w - i):
            acc = s_bits
            for j in combo:
                acc ^= cols[j]
            total += table.get(acc, 0)
    return total


def test_mitm_counter_matches_enumeration():
    rng = random.Random(1)
    for _ in range(10):
        h = random_full_rank(5, 10, rng)
        s = BitVector.random(5, rng)
        w = rng.randrange(0, 4)
        brute = sum(
            1
            for supp in combinations(range(10), w)
            if mat_vec_mul(h, BitVector.from_support(10, supp)) == s
        )
        assert count_solutions_mitm(h, s.bits, w) == brute


# --- predictors -----------------------------------------------------------------


def test_expected_solution_count_monte_carlo_mean():
    # where the surrogate is below its cap of 1, surrogate / hit is the
    # count C(n, w) / 2^(n - k) that the attack predictor multiplies by
    n, k, w = 24, 12, 8
    est = isd_success(n, k, w)
    assert est.surrogate_log2 < 0.0
    expect = 2.0 ** (est.surrogate_log2 - est.hit_prob_log2)
    rng = random.Random(42)
    total = 0
    runs = 500
    for _ in range(runs):
        h = random_full_rank(n - k, n, rng)
        s = rng.getrandbits(n - k)
        total += count_solutions_mitm(h, s, w)
    mean = total / runs
    assert abs(mean - expect) / expect < 0.10


def test_prange_success_frozen_example():
    got = isd_success(4, 2, 1)  # p = l = 0, q = 1: plain information sets
    assert got.hit_prob == 0.5
    assert got.surrogate == 0.5
    assert abs(got.exact - 0.5) < 1e-12
    # w = 0: every selection hits, and 1/8 of syndromes have the solution
    got = isd_success(6, 3, 0)
    assert (got.hit_prob, got.surrogate_log2) == (1.0, -3.0)


def test_success_estimates_ordering_and_validation():
    for n, k, w, p, l in [(24, 12, 4, 1, 2), (20, 10, 3, 0, 0), (30, 15, 6, 2, 4)]:
        est = isd_success(n, k, w, p, l)
        assert 0 <= est.exact <= est.surrogate <= 1
    with pytest.raises(ValueError):
        isd_success(20, 10, 3, 4, 0)  # p > w
    with pytest.raises(ValueError):
        isd_success(20, 10, 11, 0, 0)  # w - p > n - k - l
    with pytest.raises(ValueError):
        isd_success(20, 10, 3, 1, 2, q=0)
    for k in (12, -1):  # k outside 0..n, named before l or p is checked
        with pytest.raises(ValueError, match=f"k = {k} must lie in 0..n = 10"):
            isd_success(10, k, 3)
    for w in (11, -1):  # and w, named before p or the selection is
        with pytest.raises(ValueError, match=f"w = {w} must lie in 0..n = 10"):
            isd_success(10, 5, w)


def test_doom_success_scales_with_targets():
    base = isd_success(30, 15, 4, 1, 2)
    assert isd_success(30, 15, 4, 1, 2, q=1) == base
    many = isd_success(30, 15, 4, 1, 2, q=16)
    assert many.hit_prob == base.hit_prob
    assert abs(many.surrogate - min(1.0, 16 * base.surrogate)) < 1e-12



def test_isd_success_is_finite_at_surf_size():
    # Prange at the SURF preset: M = 2^2835 solutions, float(hit) underflows
    est = isd_success(13976, 6988, 2668)
    assert est.hit_prob == 0.0
    assert math.isfinite(est.hit_prob_log2)
    assert abs(est.surrogate_log2 - -291.07) < 0.01
    assert est.exact > 0
    assert abs(est.exact - est.surrogate) <= 1e-9 * est.surrogate


@pytest.mark.parametrize("n, k, w, instances, seed", [
    (12, 6, 2, 150, 1), (12, 6, 3, 150, 2), (14, 7, 3, 60, 3),
])
def test_plain_trial_law_matches_exact_enumeration(n, k, w, instances, seed):
    """The per-trial law of a p = l = 0 trial on a planted instance, by
    solving every (n - k)-subset of columns: a subset counts when its
    selection is nonsingular and its one solution has weight w.  A nonsingular
    selection (P_ns) either covers the planted support (hit) or solves to a
    weight-w word by chance, about C(r, w) / 2^r."""
    r = n - k
    p_ns = math.prod(1 - 2.0**-i for i in range(1, r + 1))
    hit = math.comb(r, w) / math.comb(n, w)
    model = p_ns * (hit + (1 - hit) * math.comb(r, w) / 2**r)
    rng = random.Random(seed)
    fractions = []
    for _ in range(instances):
        h, s, _ = plant_instance(n, k, w, rng)
        tau = h.frame.reduce(s.bits)
        accepted = 0
        for cols in combinations(range(n), r):
            selection = h.frame.select(cols)
            if selection is not None:
                x = selection.reduce(tau)
                if x.bit_count() == w:
                    e = BitVector(n, selection.complete(x, 0))
                    assert mat_vec_mul(h, e) == s
                    accepted += 1
        fractions.append(accepted / math.comb(n, r))
    mean = sum(fractions) / instances
    var = sum((f - mean) ** 2 for f in fractions) / (instances - 1)
    assert abs(mean - model) <= 4 * math.sqrt(var / instances)


# --- window enumeration -----------------------------------------------------------


def test_window_enumerator_matches_filtered_enumeration():
    """The words of every tail come in the documented order (left weight,
    then right pattern, then left pattern), which decides the word a DOOM
    hit returns; odd and even windows, every p up to the window size.  The
    every-tail fill lists the same front syndromes in the same order, also
    where words share a tail or a front syndrome and for tails no word
    reaches, and the first index of a front syndrome names the first word
    that has it."""
    rng = random.Random(3)
    front, l = 4, 3
    seen = {"shared tail": 0, "shared front": 0, "unreached tail": 0}
    for window in (7, 8):
        half = window // 2
        # random blocks, then blocks with repeated and zero columns, so that
        # many words meet in one tail and in one front syndrome
        blocks = [(random_matrix(front, window, rng), random_matrix(l, window, rng))]
        hp, hpp = blocks[0]
        blocks.append((
            BitMatrix(front, window, tuple(row & (0b11 << half) for row in hp.rows)),
            BitMatrix(l, window, (hpp.rows[0], hpp.rows[0], 0)),
        ))
        for hp, hpp in blocks:
            for p in range(window + 1):
                enum = WindowEnumerator(hp.vstack(hpp).columns(), front, p)
                fronts = enum.every_tail(l)
                assert len(fronts) == 1 << l
                for tail in range(1 << l):
                    expect = tuple(
                        (mat_vec_mul(hp, e).bits, e.bits)
                        for p_left in range(p + 1)
                        for right in combinations(range(half, window), p - p_left)
                        for left in combinations(range(half), p_left)
                        for e in [BitVector.from_support(window, left + right)]
                        if mat_vec_mul(hpp, e).bits == tail
                    )
                    assert enum.solutions(tail) == expect
                    assert fronts[tail] == [syn for syn, _ in expect]
                    for syn, word in expect:
                        first = next(e for s, e in expect if s == syn)
                        assert enum.solutions(tail)[fronts[tail].index(syn)][1] == first
                    seen["shared tail"] += len(expect) > 1
                    seen["shared front"] += len({s for s, _ in expect}) < len(expect)
                    seen["unreached tail"] += not expect
    assert min(seen.values()) > 0, seen


# --- attacks ----------------------------------------------------------------------


def test_attack_solutions_always_verify():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(10, 15)
        k = n // 2
        w = rng.randrange(1, 4)
        h, s, _ = plant_instance(n, k, w, rng)
        res = generalized_isd(h, s, w, IsdParams(1, 2, 400), rng)
        assert res.found
        assert res.solution.weight() == w
        assert mat_vec_mul(h, res.solution) == s


def test_prange_zero_syndrome_zero_weight():
    rng = random.Random(9)
    h = random_full_rank(6, 12, rng)
    res = generalized_isd(h, BitVector.zeros(6), 0, IsdParams(0, 0, 10), rng)
    assert res.found and res.solution == BitVector.zeros(12)
    assert res.iterations == 1


def test_prange_equals_generalized_at_zero_parameters():
    # the p = l = 0 predictor is Prange's: all w errors off the information set
    for n, k, w in [(4, 2, 1), (14, 7, 3), (24, 12, 4), (30, 15, 15)]:
        est = isd_success(n, k, w)
        hit = Fraction(math.comb(n - k, w), math.comb(n, w))
        assert est.hit_prob == float(hit)
        assert est.hit_prob_log2 == math.log2(hit.numerator) - math.log2(hit.denominator)
        expected_log2 = math.log2(math.comb(n, w)) - (n - k)
        assert est.surrogate_log2 == min(0.0, expected_log2 + est.hit_prob_log2)
    rng = random.Random(11)
    h, s, _ = plant_instance(14, 7, 3, rng)
    assert generalized_isd(h, s, 3, IsdParams(0, 0, 200), random.Random(123)).found


def success_by_fraction(n, k, w, p, l, q):
    """isd_success's fields computed through ``Fraction``: the reference
    its integer path must match bit for bit."""
    hit = Fraction(math.comb(k + l, p) * math.comb(n - k - l, w - p), math.comb(n, w))
    expected_log2 = math.log2(math.comb(n, w)) - (n - k) + math.log2(q)
    hit_f, hit_log2 = float(hit), math.log2(hit.numerator) - math.log2(hit.denominator)
    surrogate_log2 = min(0.0, expected_log2 + hit_log2)
    if hit_f >= 1.0 or expected_log2 + hit_log2 > 9:
        exact = 1.0
    elif expected_log2 >= 1024 or hit_f == 0.0:
        exact = -math.expm1(-(2.0 ** (expected_log2 + hit_log2)))
    else:
        exact = -math.expm1(2.0**expected_log2 * math.log1p(-hit_f))
    return hit_f, hit_log2, exact, 2.0**surrogate_log2, surrogate_log2


def test_success_matches_the_fraction_path_bit_for_bit():
    cases = 0
    for n in (4, 12, 24, 61, 200, 1024, 13976):
        for k in {n // 4, n // 2, 3 * n // 4} - {0}:
            for w in {1, (n - k) // 4, (n - k) // 2, n - k, min(n, n - k + 3)} - {0}:
                for p, l, q in [(0, 0, 1), (1, 0, 3), (2, 2, 1 << 20), (w // 3, (n - k) // 8, 7)]:
                    try:
                        IsdParams(p, l).check(n, k, w)
                    except ValueError:
                        continue
                    est = isd_success(n, k, w, p, l, q)
                    got = (est.hit_prob, est.hit_prob_log2, est.exact,
                           est.surrogate, est.surrogate_log2)
                    assert got == success_by_fraction(n, k, w, p, l, q), (n, k, w, p, l, q)
                    cases += 1
    assert cases > 200, cases


def test_rank_deficient_matrix_raises_before_any_trial():
    rng = random.Random(17)
    full = random_full_rank(6, 12, rng)
    h = BitMatrix(6, 12, full.rows[:-1] + (full.rows[0] ^ full.rows[1],))
    s = mat_vec_mul(h, BitVector.from_support(12, [0, 5]))
    for l in (0, 2):  # with l = 0 every selection is singular
        trial_rng = random.Random(0)
        with pytest.raises(ValueError, match="rank deficient"):
            generalized_isd(h, s, 2, IsdParams(1, l, 50), trial_rng)
        assert trial_rng.getstate() == random.Random(0).getstate()
        with pytest.raises(ValueError, match="rank deficient"):
            doom_attack(
                h, lambda t: syndrome_hash(t, 6), 2, IsdParams(1, l, 50), 4, random.Random(0)
            )
    # workers hash every target up front, but only once h has a frame
    hashed = []

    def counting_hash(t):
        hashed.append(t)
        return syndrome_hash(t, 6)

    trial_rng = random.Random(0)
    with pytest.raises(ValueError, match="rank deficient"):
        doom_attack(h, counting_hash, 2, IsdParams(1, 2, 50), 4, trial_rng, workers=2)
    assert hashed == [] and trial_rng.getstate() == random.Random(0).getstate()


@pytest.mark.parametrize("q_limit, targets", [(0, None), (4, []), (-1, [b"a", b"b"])],
                         ids=["q_limit=0", "no targets", "q_limit=-1"])
def test_doom_refuses_an_empty_target_set_before_any_trial(q_limit, targets):
    h = random_full_rank(6, 12, random.Random(17))
    rng = random.Random(0)
    with pytest.raises(ValueError, match="need at least one target"):
        doom_attack(h, lambda t: syndrome_hash(t, 6), 2, IsdParams(1, 2, 50), q_limit, rng,
                    targets=targets)
    assert rng.getstate() == random.Random(0).getstate()


def test_unsolvable_budget_exhaustion_returns_none():
    # every column of h differs from s, so no weight-1 solution exists
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    s = BitVector.from_bits([1, 1])
    res = generalized_isd(h, s, 1, IsdParams(0, 0, 50), random.Random(0))
    assert not res.found
    assert res.iterations == 50


def test_brute_force_equivalence_small_sample():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(10, 15)
        k = n // 2
        w = rng.randrange(1, 4)
        h = random_full_rank(n - k, n, rng)
        s = BitVector.random(n - k, rng)
        res = generalized_isd(h, s, w, IsdParams(1, 2, 1500), rng)
        brute = brute_force_search(h, s, w)
        assert res.found == (brute is not None)
        if res.found:
            assert mat_vec_mul(h, res.solution) == s
            assert res.solution.weight() == w


def test_window_escapes_singular_supports():
    # every weight-4 solution of this instance sits on a rank-3 column set, so
    # the p = 0 search can never pivot onto one; a width-2 window still can
    h = BitMatrix(4, 8, (132, 212, 112, 167))
    s = BitVector(4, 13)
    assert brute_force_search(h, s, 4) is not None
    plain = generalized_isd(h, s, 4, IsdParams(0, 0, 3000), random.Random(0))
    assert not plain.found
    windowed = generalized_isd(h, s, 4, IsdParams(2, 2, 2000), random.Random(0))
    assert windowed.found
    assert mat_vec_mul(h, windowed.solution) == s
    assert windowed.solution.weight() == 4


def test_worker_pool_matches_sequential():
    rng = random.Random(17)
    h, s, _ = plant_instance(18, 9, 4, rng)
    seq = generalized_isd(h, s, 4, IsdParams(1, 2, 300), random.Random(5), workers=1)
    par = generalized_isd(h, s, 4, IsdParams(1, 2, 300), random.Random(5), workers=2)
    assert seq == par
    assert seq.found
    # returning on the hit closed the runner, which shut its pool down
    assert multiprocessing.active_children() == []


# --- the seeded trial runner ------------------------------------------------------


class CountingRandom(random.Random):
    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("count", [40, 100])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_trials_yields_the_trials_of_the_seeds_in_order(count, workers):
    ref = random.Random(11)
    expected = [ref.getrandbits(64) for _ in range(count)]
    assert list(run_trials(abs, count, random.Random(11), workers)) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_run_trials_draws_at_most_one_block_ahead(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng, ref = CountingRandom(12), random.Random(12)
    block_ends, end, block = [], 0, 16  # max(8 * 2, 16) seeds, doubling to 1024
    while end < 3000:
        end += block
        block_ends.append(min(end, 3000))
        block = min(2 * block, 1024)
    trials = run_trials(abs, 3000, rng, workers)
    for taken in range(1, 2100):
        assert next(trials) == ref.getrandbits(64)
        if workers == 1:
            assert rng.draws == taken
        else:  # the seeds of the block holding this trial and of the next one
            b = next(b for b, e in enumerate(block_ends) if e >= taken)
            assert rng.draws == block_ends[min(b + 1, len(block_ends) - 1)]
    trials.close()
    assert multiprocessing.active_children() == []


def test_run_trials_on_one_cpu_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool, raising=False)
    ref = random.Random(11)
    expected = [ref.getrandbits(64) for _ in range(40)]
    assert list(run_trials(abs, 40, random.Random(11), workers=4)) == expected


# run_trials with workers, where the platform has no signal mask
MASKLESS = """
import _signal, json, os, random
del _signal.pthread_sigmask
os.cpu_count = lambda: 2  # a pool, even on one CPU
from cbfdh.isd import run_trials
print(json.dumps([list(run_trials(abs, 40, random.Random(7), workers=w)) for w in (2, 1)]))
"""


def test_run_trials_with_workers_runs_without_a_signal_mask():
    proc = subprocess.run(
        [sys.executable, "-c", MASKLESS], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-400:]
    pooled, sequential = json.loads(proc.stdout)
    assert pooled == sequential and len(pooled) == 40


# --- multi-target attacks -----------------------------------------------------------


def hash_for(h: BitMatrix):
    return lambda t: syndrome_hash(t, h.nrows)


def test_doom_single_target_degenerates_to_isd():
    rng = random.Random(19)
    h = random_full_rank(10, 20, rng)
    hash_fn = hash_for(h)
    params = IsdParams(1, 2, 500)
    res_doom = doom_attack(h, hash_fn, 5, params, 1, random.Random(7))
    res_isd = generalized_isd(
        h, hash_fn(next(default_doom_targets(1))), 5, params, random.Random(7)
    )
    assert res_doom.found and res_isd.found
    assert res_doom.solution.e == res_isd.solution
    assert res_doom.iterations == res_isd.iterations
    assert res_doom.target_index == 0


def test_doom_with_workers_bounds_q_before_hashing(monkeypatch):
    monkeypatch.setattr(isd, "DOOM_WORKERS_MAX_Q", 8)
    h = random_full_rank(8, 16, random.Random(23))
    hashed = []

    def hash_fn(t):
        hashed.append(t)
        return syndrome_hash(t, h.nrows)

    params = IsdParams(1, 2, 500)
    with pytest.raises(ValueError, match="exceeds 8"):
        doom_attack(h, hash_fn, 5, params, 9, random.Random(5), workers=2)
    with pytest.raises(ValueError, match="exceeds 8"):
        doom_attack(h, hash_fn, 5, params, 2**40, random.Random(5),
                    targets=default_doom_targets(9), workers=2)
    assert hashed == []
    # up to the bound, the workers return what one process does
    pooled = doom_attack(h, hash_fn, 5, params, 8, random.Random(5), workers=2)
    assert pooled == doom_attack(h, hash_fn, 5, params, 8, random.Random(5))
    # one process hashes as the trials reach the targets, with no bound
    assert doom_attack(h, hash_fn, 5, params, 2**40, random.Random(5)).found


def test_doom_solution_validates_on_construction():
    rng = random.Random(23)
    h = random_full_rank(8, 16, rng)
    hash_fn = hash_for(h)
    res = doom_attack(h, hash_fn, 5, IsdParams(1, 2, 500), 8, rng)
    assert res.found
    sol = res.solution
    assert isinstance(sol, DoomSolution)
    assert mat_vec_mul(h, sol.e) == hash_fn(sol.preimage)
    with pytest.raises(ValueError):
        DoomSolution.checked(h, hash_fn, 5, BitVector(sol.e.n, sol.e.bits ^ 1), sol.preimage)


def test_doom_multi_target_gain():
    # per-iteration success must grow roughly linearly in the target count
    rng = random.Random(31)
    h = random_full_rank(18, 36, rng)
    hash_fn = hash_for(h)
    w = 6
    runs = 4000
    hits = {1: 0, 16: 0}
    for q in (1, 16):
        base = random.Random(1000 + q)
        for _ in range(runs):
            res = doom_attack(h, hash_fn, w, IsdParams(0, 0, 1), q, base)
            if res.found:
                hits[q] += 1
    p1 = hits[1] / runs
    p16 = hits[16] / runs
    assert p1 > 0, "tuned instance must keep the single-target rate positive"
    ratio = p16 / p1
    assert 4.0 <= ratio <= 16.0, (p1, p16, ratio)


# --- the multi-target join against a per-target reference ---------------------------


def reference_window_words(hpp: BitMatrix, p: int, tail: int) -> list[int]:
    """Weight-p words with ``hpp e^T = tail`` in meet-in-the-middle order,
    probed afresh for every call."""
    window = hpp.ncols
    cols = hpp.columns()
    half = window // 2
    out = []
    for p_left in range(max(0, p - (window - half)), min(p, half) + 1):
        table: dict[int, list[int]] = {}
        for combo in combinations(range(half), p_left):
            key = mask = 0
            for i in combo:
                key ^= cols[i]
                mask |= 1 << i
            table.setdefault(key, []).append(mask)
        for combo in combinations(range(half, window), p - p_left):
            key, mask = tail, 0
            for i in combo:
                key ^= cols[i]
                mask |= 1 << i
            out.extend(left | mask for left in table.get(key, ()))
    return out


def reference_trial(h, syndromes, w, p, l, child_seed) -> list[tuple[int, int]]:
    """Every target's first hit in one trial, one target at a time, each
    completed by a matrix-vector product."""
    r, n = h.nrows, h.ncols
    cols = sorted(random.Random(child_seed).sample(range(n), r - l))
    try:
        u, hp, hpp = systematic_form(h, cols, l)
    except SingularSelectionError:
        return []
    perm_inv = front_permutation(cols, n).inverse()
    front = r - l
    hits = []
    for ti, s_bits in enumerate(syndromes):
        t = mat_vec_mul(u, BitVector(r, s_bits)).bits
        for e2 in reference_window_words(hpp, p, t >> front):
            e1 = t & ((1 << front) - 1) ^ mat_vec_mul(hp, BitVector(n - front, e2)).bits
            if e1.bit_count() == w - p:
                hits.append((ti, perm_inv.apply_bits(e1 | e2 << front)))
                break
    return hits


def reference_search(h, syndromes, w, p, l, budget, rng):
    """(iterations, hits of the first successful trial)."""
    for idx in range(budget):
        hits = reference_trial(h, syndromes, w, p, l, rng.getrandbits(64))
        if hits:
            return idx + 1, hits
    return budget, []


@pytest.mark.parametrize("q", [1, 8, 64])
def test_doom_join_matches_per_target_reference(q):
    budget = 20
    multi_hit = 0
    for p in range(4):
        for l in range(5):
            for rep in range(2):
                seed = 10_000 * q + 100 * p + 10 * l + rep
                rng = random.Random(seed)
                n = rng.randrange(12, 17)
                k = n // 2
                w = max(1, p + rng.randrange(0, 3))
                h, planted, _ = plant_instance(n, k, w, rng)
                targets = [b"%d/%d" % (seed, j) for j in range(q)]

                def hash_fn(t, h=h, planted=planted, last=targets[-1]):
                    return planted if t == last else syndrome_hash(t, h.nrows)

                syndromes = [hash_fn(t).bits for t in targets]
                params = IsdParams(p, l, budget)
                used, hits = reference_search(
                    h, syndromes, w, p, l, budget, random.Random(seed)
                )
                multi_hit += len(hits) > 1
                expect = (used, *hits[0]) if hits else (used, None, None)

                res = doom_attack(
                    h, hash_fn, w, params, q, random.Random(seed), targets=targets
                )
                got = (
                    res.iterations,
                    res.target_index,
                    res.solution.e.bits if res.found else None,
                )
                assert got == expect, (n, k, w, p, l, seed)

                used, hits = reference_search(
                    h, syndromes[:1], w, p, l, budget, random.Random(seed)
                )
                res = generalized_isd(
                    h, BitVector(h.nrows, syndromes[0]), w, params, random.Random(seed)
                )
                got = (res.iterations, res.solution.bits if res.found else None)
                assert got == (used, hits[0][1] if hits else None), (n, k, w, p, l, seed)
    if q > 1:
        assert multi_hit > 0, "no trial decoded several targets at once"


def per_target_trial(frame, targets, w, p, l, child_seed):
    """One trial as a scan of the targets one at a time, without regard to
    their count: each target reduced by basis walks and probed through the
    ``solutions`` of its tail.  It sorts its draw, which the attack
    does not, so a match also shows that column order does not matter."""
    r = len(frame.cols)
    rng = random.Random(child_seed)
    selection = frame.select(sorted(sample(rng, len(frame.coords), r - l)))
    if selection is None:
        return None
    enum = WindowEnumerator(selection.window_columns(), r, p)
    for ti, s in enumerate(targets):
        reduced = selection.reduce(frame.reduce(s))
        sp = reduced & (1 << r) - 1
        for syn, e2 in enum.solutions(reduced >> r):
            if (sp ^ syn).bit_count() == w - p:
                return ti, selection.complete(sp ^ syn, e2)
    return None


# (l, q) on r = 12: q < 2^l <= r, 2^l <= q <= r, q > r >= 2^l and 2^l > q > r
@pytest.mark.parametrize("l, q", [(3, 5), (2, 8), (3, 40), (4, 14)], ids=(
    "probe-walk", "fill-walk", "fill-tables", "probe-tables",
))
def test_doom_target_count_switches_match_the_per_target_scan(l, q):
    """Whichever work the target count picks, every fill or probe, byte
    tables or walks, a DOOM search returns the trial, target and word of a
    scan of the targets one at a time, with and without a pool.  Four pairs
    of equal columns give many words a twin with the same tail and front
    syndrome, of which the scan takes the first."""
    budget, found = 25, 0
    for rep in range(6):
        seed = 1000 * q + 10 * l + rep
        rng = random.Random(seed)
        p = 1 + rep % 2
        w = p + 1 + rep % 3 // 2
        while True:
            cols = list(random_matrix(12, 24, rng).columns())
            cols[20:] = cols[16:20]
            h = BitMatrix(12, 24, BitMatrix(24, 12, tuple(cols)).columns())
            if h.frame is not None:
                break
        planted = mat_vec_mul(h, BitVector.from_support(24, sample(rng, 24, w)))
        targets = [b"%d/%d" % (seed, j) for j in range(q)]

        def hash_fn(t, h=h, planted=planted, last=targets[-1]):
            return planted if t == last else syndrome_hash(t, h.nrows)

        syndromes = [hash_fn(t).bits for t in targets]
        rng = random.Random(seed)
        expect = (budget, None, None)
        for used in range(1, budget + 1):
            got = per_target_trial(h.frame, syndromes, w, p, l, rng.getrandbits(64))
            if got is not None:
                expect = (used, *got)
                break
        found += expect[1] is not None
        for workers in (1, 2) if rep == 0 else (1,):
            res = doom_attack(
                h, hash_fn, w, IsdParams(p, l, budget), q, random.Random(seed),
                targets=targets, workers=workers,
            )
            got = (res.iterations, res.target_index, res.solution.e.bits if res.found else None)
            assert got == expect, (l, q, seed, workers)
    assert found >= 3, found


def test_doom_worker_pool_matches_sequential():
    rng = random.Random(29)
    h = random_full_rank(12, 24, rng)
    hash_fn = hash_for(h)
    params = IsdParams(2, 3, 200)
    seq = doom_attack(h, hash_fn, 3, params, 32, random.Random(4), workers=1)
    par = doom_attack(h, hash_fn, 3, params, 32, random.Random(4), workers=2)
    assert seq == par
    assert seq.found


def test_doom_hashes_targets_in_order_only_as_far_as_reached():
    h = random_full_rank(12, 24, random.Random(37))
    calls = []

    def counting_hash(t):
        calls.append(t)
        return syndrome_hash(t, h.nrows)

    targets = list(default_doom_targets(256))
    res = doom_attack(h, counting_hash, 3, IsdParams(2, 3, 200), 256, random.Random(4))
    assert res.found
    # the last call is DoomSolution.checked re-hashing the solved preimage
    scanned, recheck = calls[:-1], calls[-1]
    assert recheck == targets[res.target_index]
    assert scanned == targets[: len(scanned)]  # each target once, in index order
    assert res.target_index < len(scanned) < len(targets)


def test_default_doom_targets_are_8_byte_counters():
    # q up to 2^64 runs in bounded memory: test_cli checks it in a subprocess
    assert list(default_doom_targets(3)) == [i.to_bytes(8, "big") for i in range(3)]
    assert next(default_doom_targets(1 << 64)) == bytes(8)
    with pytest.raises(ValueError, match="2\\^64"):
        default_doom_targets((1 << 64) + 1)  # at call time, before any target


@pytest.mark.parametrize("workers", [1, 2])
def test_doom_rejects_a_hash_of_the_wrong_width(workers):
    h = random_full_rank(12, 24, random.Random(41))
    narrow = lambda t: syndrome_hash(t, h.nrows - 1)
    with pytest.raises(ValueError, match="width"):
        doom_attack(h, narrow, 3, IsdParams(2, 3, 200), 8, random.Random(4), workers=workers)
