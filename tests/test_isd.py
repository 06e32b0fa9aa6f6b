import math
import multiprocessing
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from cbfdh.f2 import (
    BitMatrix,
    BitVector,
    SingularSelectionError,
    front_permutation,
    mat_vec_mul,
    random_full_rank,
    random_matrix,
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
    m_solutions,
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


def test_m_solutions_frozen_examples():
    got = m_solutions(4, 2, 1)
    assert got.exact == 1
    assert got.log2 == 0.0
    assert m_solutions(6, 3, 0).exact == Fraction(1, 8)


def test_m_solutions_monte_carlo_mean():
    n, k, w = 24, 12, 8
    expect = float(m_solutions(n, k, w).exact)
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


# --- window enumeration -----------------------------------------------------------


def test_window_enumerator_matches_filtered_enumeration():
    """The words of every tail come in the documented order (left weight,
    then right pattern, then left pattern), which decides the word a DOOM
    hit returns; odd and even windows, every p up to the window size."""
    rng = random.Random(3)
    front, l = 4, 3
    for window in (7, 8):
        half = window // 2
        hp = random_matrix(front, window, rng)
        hpp = random_matrix(l, window, rng)
        for p in range(window + 1):
            enum = WindowEnumerator(hp.vstack(hpp).columns(), front, p)
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
                assert enum.solutions(tail) is enum.solutions(tail)  # memoised


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
        assert est.surrogate_log2 == min(0.0, m_solutions(n, k, w).log2 + est.hit_prob_log2)
    rng = random.Random(11)
    h, s, _ = plant_instance(14, 7, 3, rng)
    assert generalized_isd(h, s, 3, IsdParams(0, 0, 200), random.Random(123)).found


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
