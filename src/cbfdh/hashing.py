"""SHAKE-256 syndrome oracle and constant-weight word (un)ranking.

The syndrome oracle hashes a prefix byte (0x01) plus the raw payload and
reads the first ``out_bits`` bits, most significant bit first within each
byte.  Weight-w words are (un)ranked lexicographically by support;
``mod_bias`` is the exact bias of reducing a uniform chunk modulo C(n, w).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .f2 import BitVector, _bytes_to_bits

__all__ = [
    "SYNDROME_PREFIX",
    "syndrome_hash",
    "FdhHash",
    "unrank_weight_pattern",
    "rank_weight_pattern",
    "mod_bias",
]

SYNDROME_PREFIX = b"\x01"


def syndrome_hash(payload: bytes, out_bits: int) -> BitVector:
    """First ``out_bits`` bits of SHAKE-256 over the syndrome-domain input."""
    data = hashlib.shake_256(SYNDROME_PREFIX + payload).digest((out_bits + 7) // 8)
    # the payload is masked to out_bits, so it fits without a range check
    return BitVector._unchecked(out_bits, _bytes_to_bits(data, out_bits))


class FdhHash:
    """Message hashing for the signature scheme: (m, salt) -> syndrome."""

    def __init__(self, out_bits: int):
        if out_bits <= 0:
            raise ValueError("output width must be positive")
        self.out_bits = out_bits

    def __call__(self, message: bytes, salt: BitVector) -> BitVector:
        return syndrome_hash(message + salt.to_bytes(), self.out_bits)


def unrank_weight_pattern(index: int, n: int, w: int) -> BitVector:
    """The ``index``-th weight-w word of length n in lexicographic support
    order (supports sorted ascending, compared as tuples)."""
    total = math.comb(n, w)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, C({n},{w}))")
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


def rank_weight_pattern(v: BitVector, w: int) -> int:
    """Inverse of :func:`unrank_weight_pattern`."""
    if v.weight() != w:
        raise ValueError("weight mismatch")
    index = 0
    prev = -1
    remaining = w
    for picked, pos in enumerate(v.support()):
        for skipped in range(prev + 1, pos):
            index += math.comb(v.n - skipped - 1, remaining - 1)
        prev = pos
        remaining -= 1
    return index


def mod_bias(sample_bits: int, modulus: int) -> Fraction:
    """Exact total-variation distance of (uniform B-bit value mod m) from
    uniform on [0, m)."""
    if modulus <= 0 or sample_bits < 0:
        raise ValueError("bad arguments")
    space = 1 << sample_bits
    q, r = divmod(space, modulus)
    heavy = Fraction(q + 1, space) - Fraction(1, modulus)
    light = Fraction(1, modulus) - Fraction(q, space)
    return (r * heavy + (modulus - r) * light) / 2

