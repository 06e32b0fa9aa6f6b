import hashlib
import math
import random
import time
from itertools import combinations

import pytest

from cbfdh.f2 import BitVector
from cbfdh.hashing import (
    FdhHash,
    rank_weight_pattern,
    syndrome_hash,
    unrank_weight_pattern,
)


def test_syndrome_hash_matches_direct_shake():
    payload = b"message-bytes"
    raw = hashlib.shake_256(b"\x01" + payload).digest(2)
    got = syndrome_hash(payload, 13)
    # first 13 bits of the stream, MSB-first within bytes
    expect = [(raw[i >> 3] >> (7 - (i & 7))) & 1 for i in range(13)]
    assert [got.get(i) for i in range(13)] == expect


def test_syndrome_hash_truncation_changes_with_width():
    a = syndrome_hash(b"x", 8)
    b = syndrome_hash(b"x", 16)
    assert b.slice(0, 8) == a


def test_fdh_hash_is_deterministic_and_salt_sensitive():
    h = FdhHash(12)
    salt0 = BitVector.from_support(16, [0, 5])
    salt1 = BitVector.from_support(16, [0, 6])
    assert h(b"m", salt0) == h(b"m", salt0)
    assert h(b"m", salt0) != h(b"m", salt1) or h(b"n", salt0) != h(b"m", salt0)
    # the payload is message then salt bytes
    assert h(b"m", salt0) == syndrome_hash(b"m" + salt0.to_bytes(), 12)


def test_unrank_enumerates_lexicographic_supports():
    n, w = 7, 3
    expected = [
        BitVector.from_support(n, supp) for supp in combinations(range(n), w)
    ]
    got = [unrank_weight_pattern(i, n, w) for i in range(math.comb(n, w))]
    assert got == expected


def test_rank_inverts_unrank():
    n, w = 9, 4
    for i in range(math.comb(n, w)):
        assert rank_weight_pattern(unrank_weight_pattern(i, n, w), w) == i


def test_unrank_bounds():
    with pytest.raises(ValueError):
        unrank_weight_pattern(math.comb(6, 2), 6, 2)
    with pytest.raises(ValueError):
        unrank_weight_pattern(-1, 6, 2)


def unrank_by_comb(index, n, w):
    """The stepwise unranking loop that calls math.comb at each step: the
    reference the incremental binomial is checked against."""
    support = []
    pos = 0
    for picked in range(w):
        remaining = w - picked
        while True:
            block = math.comb(n - pos - 1, remaining - 1)
            if index < block:
                break
            index -= block
            pos += 1
        support.append(pos)
        pos += 1
    return BitVector.from_support(n, support)


def test_unrank_matches_the_comb_loop():
    for n in range(13):
        for w in range(n + 1):
            for i in range(math.comb(n, w)):
                assert unrank_weight_pattern(i, n, w) == unrank_by_comb(i, n, w), (i, n, w)
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 201)
        w = rng.randrange(n + 1)
        i = rng.randrange(math.comb(n, w))
        v = unrank_weight_pattern(i, n, w)
        assert v == unrank_by_comb(i, n, w), (i, n, w)
        assert rank_weight_pattern(v, w) == i


def rank_by_comb(v, w):
    """The ranking loop that calls math.comb for each skipped position: the
    reference the incremental binomial is checked against."""
    index, prev, remaining = 0, -1, w
    for pos in v.support():
        for skipped in range(prev + 1, pos):
            index += math.comb(v.n - skipped - 1, remaining - 1)
        prev, remaining = pos, remaining - 1
    return index


def test_rank_matches_the_comb_loop():
    for n in range(13):
        for w in range(n + 1):
            for support in combinations(range(n), w):
                v = BitVector.from_support(n, support)
                assert rank_weight_pattern(v, w) == rank_by_comb(v, w), (support, n)
    rng = random.Random(16)
    for _ in range(2000):
        w = rng.randrange(25)
        v = BitVector.from_support(24, rng.sample(range(24), w))
        assert rank_weight_pattern(v, w) == rank_by_comb(v, w), v
    with pytest.raises(ValueError, match="weight mismatch"):
        rank_weight_pattern(BitVector.from_support(6, [1, 4]), 3)


def test_rank_round_trip_at_the_surf_length_is_fast():
    """O(n) big-int steps each way: well under 0.5 s of CPU at n = 13,976
    (about 0.09 s on one core of a 2-vCPU machine, Python 3.11.7)."""
    n, w = 13976, 2668
    index = random.Random(17).randrange(math.comb(n, w))
    start = time.process_time()
    assert rank_weight_pattern(unrank_weight_pattern(index, n, w), w) == index
    assert time.process_time() - start < 0.5


def test_unrank_at_the_surf_length():
    n, w = 13976, 2668
    total = math.comb(n, w)
    assert unrank_weight_pattern(0, n, w).support() == tuple(range(w))
    assert unrank_weight_pattern(total - 1, n, w).support() == tuple(range(n - w, n))
    assert unrank_weight_pattern(random.Random(15).randrange(total), n, w).weight() == w
