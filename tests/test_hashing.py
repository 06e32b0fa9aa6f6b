import hashlib
import math
import random
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


def test_unrank_at_the_surf_length():
    n, w = 13976, 2668
    total = math.comb(n, w)
    assert unrank_weight_pattern(0, n, w).support() == tuple(range(w))
    assert unrank_weight_pattern(total - 1, n, w).support() == tuple(range(n - w, n))
    assert unrank_weight_pattern(random.Random(15).randrange(total), n, w).weight() == w
