import hashlib
import math
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
