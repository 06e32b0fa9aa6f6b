import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cbfdh.codes import distance_from_uniform, syndrome_counts
from cbfdh.f2 import BitMatrix, BitVector, mat_vec_mul, random_full_rank, rank
from cbfdh.scheme import uuv_code_family


def brute_counts(h: BitMatrix, w: int) -> list[int]:
    """The count vector by enumerating every weight-w support: the oracle
    the column DP is checked against."""
    cols, counts = h.columns(), [0] * (1 << h.nrows)
    for support in combinations(range(h.ncols), w):
        s = 0
        for i in support:
            s ^= cols[i]
        counts[s] += 1
    return counts


# --- code constructions ----------------------------------------------------


def test_uuv_block_layout_frozen_example():
    # the family draws H_U, then H_V, each full rank; at seed 0 they are
    # [1 1] and [1 0]
    h = uuv_code_family(4, 1, 1)(random.Random(0))
    assert h == BitMatrix.from_dense(
        [[1, 1, 0, 0], [1, 0, 1, 0]]
    )
    assert mat_vec_mul(h, BitVector.from_bits([1, 1, 1, 0])).weight() == 0
    assert mat_vec_mul(h, BitVector.from_bits([1, 0, 0, 0])).weight() != 0
    rng = random.Random(21)
    h_u, h_v = random_full_rank(2, 6, rng), random_full_rank(3, 6, rng)
    assert uuv_code_family(12, 4, 3)(random.Random(21)) == (
        h_u.hstack(BitMatrix.zeros(2, 6)).vstack(h_v.hstack(h_v))
    )


def test_uuv_membership_matches_definition():
    rng = random.Random(21)
    family = uuv_code_family(12, 4, 3)
    half, left = 6, (1 << 6) - 1
    for _ in range(10):
        h = family(rng)
        assert rank(h) == 5
        # the components, read off the left half of each block
        h_u = BitMatrix(2, half, tuple(row & left for row in h.rows[:2]))
        h_v = BitMatrix(3, half, tuple(row & left for row in h.rows[2:]))
        assert rank(h_u) == 2 and rank(h_v) == 3
        for bits in range(1 << (2 * half)):
            word = BitVector(2 * half, bits)
            a = word.slice(0, half)
            b = word.slice(half, 2 * half)
            in_def = (
                mat_vec_mul(h_u, a).weight() == 0
                and mat_vec_mul(h_v, a ^ b).weight() == 0
            )
            assert (mat_vec_mul(h, word).weight() == 0) == in_def


def test_uuv_rejects_length_mismatch():
    # an odd length has no halves; a component dimension lies in (0, n/2)
    for n, k_u, k_v in ((13, 2, 2), (12, 0, 2), (12, 2, 6)):
        with pytest.raises(ValueError):
            uuv_code_family(n, k_u, k_v)


# --- syndrome counts ------------------------------------------------------


def test_weight_one_distribution_frozen_example():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert syndrome_counts(h, 1) == [0, 2, 2, 0]


def test_weight_zero_is_point_mass():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert syndrome_counts(h, 0) == [1, 0, 0, 0]
    assert distance_from_uniform(syndrome_counts(h, 0)) == Fraction(3, 4)


def test_distribution_matches_direct_enumeration():
    rng = random.Random(7)
    h = random_full_rank(5, 10, rng)
    for w in range(11):
        counts = syndrome_counts(h, w)
        assert counts == brute_counts(h, w)
        # the same count, syndrome by syndrome, through mat_vec_mul
        for support in combinations(range(10), w):
            counts[mat_vec_mul(h, BitVector.from_support(10, support)).bits] -= 1
        assert not any(counts)


@pytest.mark.parametrize("family, w", [
    (lambda rng: random_full_rank(6, 12, rng), 4),
    (lambda rng: random_full_rank(8, 16, rng), 3),
    (lambda rng: random_full_rank(10, 20, rng), 5),
    (lambda rng: random_full_rank(12, 24, rng), 4),
    (uuv_code_family(12, 3, 3), 4),
    (uuv_code_family(16, 4, 3), 3),
    (uuv_code_family(20, 5, 4), 4),
    (uuv_code_family(24, 6, 5), 4),
], ids=(
    "random-12-6-4", "random-16-8-3", "random-20-10-5", "random-24-12-4",
    "uuv-12-3-3-4", "uuv-16-4-3-3", "uuv-20-5-4-4", "uuv-24-6-5-4",
))
def test_column_dp_equals_enumeration(family, w):
    # every shape has C(n, w) <= 2^20; the exact distances agree as well
    h = family(random.Random(31))
    counts = syndrome_counts(h, w)
    assert counts == brute_counts(h, w)
    total, size = math.comb(h.ncols, w), 1 << h.nrows
    brute = sum(abs(Fraction(c, total) - Fraction(1, size)) for c in counts) / 2
    assert distance_from_uniform(counts) == brute


def test_distance_past_enumeration_lies_under_the_collision_bound():
    # C(48, 9) = 1.7e9 supports; the distance obeys
    # rho <= sqrt(2^r * CP - 1) / 2 with CP the collision probability
    h = random_full_rank(14, 48, random.Random(48))
    counts = syndrome_counts(h, 9)
    total = sum(counts)
    assert total == math.comb(48, 9)
    rho = distance_from_uniform(counts)
    excess = Fraction(sum(c * c for c in counts) << 14, total * total) - 1
    assert 0 < rho and 4 * rho * rho <= excess


def test_distribution_monte_carlo_consistency():
    rng = random.Random(2024)
    h = random_full_rank(5, 10, rng)
    exact = syndrome_counts(h, 2)
    draws = 100_000
    counts = [0] * (1 << 5)
    for _ in range(draws):
        supp = rng.sample(range(10), 2)
        counts[mat_vec_mul(h, BitVector.from_support(10, supp)).bits] += 1
    for outcome in range(1 << 5):
        p = exact[outcome] / math.comb(10, 2)
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(counts[outcome] / draws - p) <= 3 * sigma + 1e-9


def test_table_size_guard():
    # (w + 1) * 2^r entries are refused before any is allocated
    rng = random.Random(3)
    with pytest.raises(ValueError, match="2\\^21-entry guard"):
        syndrome_counts(random_full_rank(20, 24, rng), 2)
    with pytest.raises(ValueError, match="weight outside"):
        syndrome_counts(random_full_rank(6, 12, rng), 13)


# --- distance from uniform --------------------------------------------------


def test_stat_distance_frozen_examples():
    assert distance_from_uniform([1, 3]) == Fraction(1, 4)
    assert distance_from_uniform([5, 5]) == 0
    assert distance_from_uniform([0, 0, 0, 7]) == Fraction(3, 4)


def test_stat_distance_brute_force_large_support():
    rng = random.Random(17)
    size = 1 << 16
    counts = [rng.randrange(1, 8) for _ in range(size)]
    total = sum(counts)
    brute = sum(abs(Fraction(c, total) - Fraction(1, size)) for c in counts) / 2
    assert distance_from_uniform(counts) == brute
