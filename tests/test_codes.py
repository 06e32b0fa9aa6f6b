import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfdh import codes
from cbfdh.codes import (
    DiscreteDistribution,
    product_distance_bound,
    stat_distance,
    syndrome_weight_distribution,
)
from cbfdh.f2 import BitMatrix, BitVector, mat_vec_mul, random_full_rank, rank
from cbfdh.scheme import uuv_code_family


def enumerate_words(h: BitMatrix, predicate) -> list[BitVector]:
    return [
        v
        for bits in range(1 << h.ncols)
        for v in [BitVector(h.ncols, bits)]
        if predicate(v)
    ]


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


# --- syndrome weight distribution -------------------------------------------


def test_weight_one_distribution_frozen_example():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    dist = syndrome_weight_distribution(h, 1)
    assert dist == DiscreteDistribution(
        2, {0b01: Fraction(1, 2), 0b10: Fraction(1, 2)}
    )


def test_weight_zero_is_point_mass():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    dist = syndrome_weight_distribution(h, 0)
    assert dist == DiscreteDistribution.point(2, 0)


def test_distribution_matches_direct_enumeration():
    rng = random.Random(7)
    h = random_full_rank(5, 10, rng)
    w = 3
    dist = syndrome_weight_distribution(h, w)
    counts: dict[int, int] = {}
    for supp in combinations(range(10), w):
        s = mat_vec_mul(h, BitVector.from_support(10, supp)).bits
        counts[s] = counts.get(s, 0) + 1
    assert dist == DiscreteDistribution.from_counts(5, counts)
    assert sum(dist.mass.values()) == 1


def test_distribution_monte_carlo_consistency():
    rng = random.Random(2024)
    h = random_full_rank(5, 10, rng)
    exact = syndrome_weight_distribution(h, 2)
    draws = 100_000
    counts: dict[int, int] = {}
    for _ in range(draws):
        supp = rng.sample(range(10), 2)
        s = mat_vec_mul(h, BitVector.from_support(10, supp)).bits
        counts[s] = counts.get(s, 0) + 1
    for outcome in range(1 << 5):
        p = float(exact.prob(outcome))
        freq = counts.get(outcome, 0) / draws
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(freq - p) <= 3 * sigma + 1e-9


def test_enumeration_guard(monkeypatch):
    rng = random.Random(3)
    h = random_full_rank(6, 12, rng)
    monkeypatch.setattr(codes, "MAX_PATTERNS", 10)
    with pytest.raises(ValueError, match="enumeration guard"):
        syndrome_weight_distribution(h, 3)


# --- discrete distributions and distances ------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(1, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        DiscreteDistribution(1, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        DiscreteDistribution(1, {2: Fraction(1)})


def test_stat_distance_frozen_examples():
    d0 = DiscreteDistribution(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    d1 = DiscreteDistribution(1, {0: Fraction(1, 4), 1: Fraction(3, 4)})
    assert stat_distance(d0, d1) == Fraction(1, 4)
    assert stat_distance(d0, d0) == 0
    a = DiscreteDistribution.point(2, 0)
    b = DiscreteDistribution.point(2, 3)
    assert stat_distance(a, b) == 1


def test_stat_distance_domain_mismatch():
    with pytest.raises(ValueError):
        stat_distance(DiscreteDistribution.point(1, 0), DiscreteDistribution.point(2, 0))


def test_stat_distance_brute_force_large_support():
    rng = random.Random(17)
    bits = 16
    n = 1 << bits
    counts0 = {x: rng.randrange(1, 8) for x in range(n)}
    counts1 = {x: rng.randrange(1, 8) for x in range(n)}
    d0 = DiscreteDistribution.from_counts(bits, counts0)
    d1 = DiscreteDistribution.from_counts(bits, counts1)
    t0, t1 = sum(counts0.values()), sum(counts1.values())
    brute = (
        sum(abs(Fraction(counts0[x], t0) - Fraction(counts1[x], t1)) for x in range(n))
        / 2
    )
    assert stat_distance(d0, d1) == brute


@settings(max_examples=30)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=2),
    st.lists(st.integers(1, 9), min_size=2, max_size=2),
    st.lists(st.integers(1, 9), min_size=4, max_size=4),
    st.lists(st.integers(1, 9), min_size=4, max_size=4),
)
def test_product_bound_dominates_true_product_distance(c0, c1, d0, d1):
    p0 = DiscreteDistribution.from_counts(1, dict(enumerate(c0)))
    p1 = DiscreteDistribution.from_counts(1, dict(enumerate(c1)))
    q0 = DiscreteDistribution.from_counts(2, dict(enumerate(d0)))
    q1 = DiscreteDistribution.from_counts(2, dict(enumerate(d1)))
    true = (
        sum(
            abs(p0.prob(x) * q0.prob(y) - p1.prob(x) * q1.prob(y))
            for x, y in product(range(2), range(4))
        )
        / 2
    )
    assert true <= product_distance_bound([(p0, p1), (q0, q1)])


def test_mixture_and_export():
    u = DiscreteDistribution.uniform(2)
    p = DiscreteDistribution.point(2, 1)
    mix = p.mixture(u, Fraction(1, 2))
    assert mix.prob(1) == Fraction(1, 2) + Fraction(1, 8)
    assert mix.prob(0) == Fraction(1, 8)
    text = mix.to_text()
    lines = text.strip().splitlines()
    assert len(lines) == 4
    head, prob = lines[0].split()
    assert head == "00"
    assert float(prob) == 0.125
