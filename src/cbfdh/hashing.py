"""SHAKE-256 syndrome oracle and constant-weight word (un)ranking.

The syndrome oracle hashes a prefix byte (0x01) plus the raw payload and
reads the first ``out_bits`` bits, most significant bit first within each
byte.  Weight-w words are (un)ranked lexicographically by support.
"""

from __future__ import annotations

import hashlib
import math

from .f2 import _REV, BitVector

__all__ = [
    "SYNDROME_PREFIX",
    "syndrome_hash",
    "FdhHash",
    "unrank_weight_pattern",
    "rank_weight_pattern",
]

SYNDROME_PREFIX = b"\x01"


def syndrome_hash(payload: bytes, out_bits: int) -> BitVector:
    """First ``out_bits`` bits of SHAKE-256 over the syndrome-domain input."""
    data = hashlib.shake_256(SYNDROME_PREFIX + payload).digest((out_bits + 7) // 8)
    # the mask drops the padding bits of the digest's last byte
    bits = int.from_bytes(data.translate(_REV), "little") & ((1 << out_bits) - 1)
    return BitVector(out_bits, bits)


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
    order (supports sorted ascending, compared as tuples).  The count
    C(n - pos - 1, remaining - 1) of words that pick position pos next is
    carried from step to step by one multiply and one exact divide, so a
    call takes O(n) big-int steps."""
    total = math.comb(n, w)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, C({n},{w}))")
    bits = pos = 0
    remaining = w
    block = math.comb(n - 1, w - 1) if w else 0
    while remaining:
        m = n - pos - 1  # block = C(m, remaining - 1)
        if index < block:  # pick pos: C(m - 1, remaining - 2)
            bits |= 1 << pos
            remaining -= 1
            if remaining:
                block = block * remaining // m
        else:  # skip pos: C(m - 1, remaining - 1)
            index -= block
            block = block * (m - remaining + 1) // m
        pos += 1
    return BitVector(n, bits)


def rank_weight_pattern(v: BitVector, w: int) -> int:
    """Inverse of :func:`unrank_weight_pattern`, carrying the same count
    from step to step, so a call takes O(n) big-int steps."""
    if v.weight() != w:
        raise ValueError("weight mismatch")
    n, bits = v.n, v.bits
    index = pos = 0
    remaining = w
    block = math.comb(n - 1, w - 1) if w else 0
    while remaining:
        m = n - pos - 1  # block = C(m, remaining - 1)
        if bits >> pos & 1:  # picked pos: C(m - 1, remaining - 2)
            remaining -= 1
            if remaining:
                block = block * remaining // m
        else:  # skipped pos, past the block of words that pick it
            index += block
            block = block * (m - remaining + 1) // m
        pos += 1
    return index

