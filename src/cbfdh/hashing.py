"""SHAKE-256 hash oracles.

Two domain-separated oracles share one wire convention: the XOF input is a
single prefix byte (0x01 for the syndrome oracle, 0x02 for the weight-pattern
oracle) followed by the raw payload, and output bits are read most
significant bit first within each byte.

The syndrome oracle truncates the stream to exactly ``out_bits`` bits.  The
weight-pattern oracle reads one branch bit, then decodes a constant-weight
word by lexicographic unranking of an index drawn from the remaining stream;
the index is either rejection-sampled (exactly uniform) or a single chunk
reduced modulo C(n, w), whose bias is exactly computable.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .f2 import BitVector, _bytes_to_bits

__all__ = [
    "SYNDROME_PREFIX",
    "PATTERN_PREFIX",
    "syndrome_hash",
    "FdhHash",
    "unrank_weight_pattern",
    "rank_weight_pattern",
    "WeightPatternHash",
    "mod_bias",
]

SYNDROME_PREFIX = b"\x01"
PATTERN_PREFIX = b"\x02"


class _BitStream:
    """MSB-first bit reader over a SHAKE XOF, squeezing bytes on demand."""

    def __init__(self, prefix: bytes, payload: bytes):
        self._xof = hashlib.shake_256(prefix + payload)
        self._buf = b""
        self._pos = 0

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        need = (end + 7) // 8
        if need > len(self._buf):
            self._buf = self._xof.digest(max(need, 2 * len(self._buf), 32))
        out = 0
        for i in range(self._pos, end):
            out = out << 1 | (self._buf[i >> 3] >> (7 - (i & 7)) & 1)
        self._pos = end
        return out


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


class WeightPatternHash:
    """(m, salt) -> (branch bit, weight-w word), deterministic from the XOF.

    With ``exact=True`` the pattern index is rejection sampled from
    ceil(log2 C(n, w))-bit chunks, so the word is exactly uniform.  With
    ``exact=False`` a single chunk is reduced modulo C(n, w); the induced
    bias is reported by :attr:`bias`.
    """

    def __init__(self, n: int, w: int, exact: bool = True):
        if not 0 <= w <= n:
            raise ValueError("weight outside [0, n]")
        self.n = n
        self.w = w
        self.exact = exact
        self.count = math.comb(n, w)
        self.index_bits = max(1, self.count.bit_length())

    @property
    def bias(self) -> Fraction:
        return Fraction(0) if self.exact else mod_bias(self.index_bits, self.count)

    def __call__(self, message: bytes, salt: BitVector) -> tuple[int, BitVector]:
        stream = _BitStream(PATTERN_PREFIX, message + salt.to_bytes())
        branch = stream.read(1)
        if self.exact:
            while True:
                index = stream.read(self.index_bits)
                if index < self.count:
                    break
        else:
            index = stream.read(self.index_bits) % self.count
        return branch, unrank_weight_pattern(index, self.n, self.w)
