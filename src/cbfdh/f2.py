"""Dense linear algebra over GF(2) on bit-packed integers.

Vectors and matrix rows are Python ints used as bitsets: bit ``i`` of the
payload is coordinate ``i`` (0-based).  All row operations are therefore
single wide XORs.  Hex and byte conversions at the wire boundary use
big-endian bit order within bytes, so coordinate 0 is the most significant
bit of byte 0 and rows pad on the right up to a whole byte.

Values are immutable after construction; every operation returns a fresh
object, which keeps sharing across worker processes safe.  Two kernels
solve on a column selection: :class:`ReducedForm` row-reduces h on any
selection (ISD/DOOM, four-sum), :class:`SquareSolver` solves a square one
from column syndromes (the signer).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BitVector",
    "BitMatrix",
    "Permutation",
    "SingularSelectionError",
    "ReducedForm",
    "SquareSolver",
    "mat_vec_mul",
    "mat_mul",
    "rank",
    "inverse",
    "systematic_form",
    "front_permutation",
    "random_permutation",
    "random_matrix",
    "random_nonsingular",
]


class SingularSelectionError(ValueError):
    """The selected columns do not reduce to an identity block."""


def _pack_positions(n: int, positions: Iterable[int]) -> int:
    bits = 0
    for i in positions:
        if not 0 <= i < n:
            raise ValueError(f"position {i} outside [0, {n})")
        if bits >> i & 1:
            raise ValueError(f"duplicate position {i}")
        bits |= 1 << i
    return bits


# _REV[b] is byte b with its bit order reversed: it maps the wire's
# big-endian bit order within a byte to the payload's little-endian one.
_REV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _bits_to_bytes(bits: int, n: int) -> bytes:
    nbytes = (n + 7) // 8
    return (bits & ((1 << n) - 1)).to_bytes(nbytes, "little").translate(_REV)


def _bytes_to_bits(data: bytes, n: int) -> int:
    nbytes = (n + 7) // 8
    if len(data) < nbytes:
        raise ValueError(f"{len(data)} bytes cannot hold {n} bits")
    return int.from_bytes(data[:nbytes].translate(_REV), "little") & ((1 << n) - 1)


def _columns(rows: Iterable[int], width: int) -> list[int]:
    """Transpose by bit scan: bit r of entry j is bit j of ``rows[r]``, for
    rows of at most ``width`` bits."""
    cols = [0] * width
    for r, bits in enumerate(rows):
        while bits:
            low = bits & -bits
            cols[low.bit_length() - 1] |= 1 << r
            bits ^= low
    return cols


@dataclass(frozen=True)
class BitVector:
    """Immutable vector over GF(2), length ``n``, payload ``bits``."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("payload does not fit the stated length")

    @classmethod
    def _unchecked(cls, n: int, bits: int) -> "BitVector":
        """``cls(n, bits)`` at half the cost, for bits that fit n by construction."""
        v = object.__new__(cls)
        fields = v.__dict__
        fields["n"] = n
        fields["bits"] = bits
        return v

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, positions: Iterable[int]) -> "BitVector":
        return cls(n, _pack_positions(n, positions))

    @classmethod
    def from_bits(cls, values: Sequence[int]) -> "BitVector":
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            bits |= v << i
        return cls(len(values), bits)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitVector":
        return cls(n, rng.getrandbits(n) if n else 0)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitVector":
        return cls(n, _bytes_to_bits(data, n))

    @classmethod
    def from_hex(cls, text: str, n: int) -> "BitVector":
        return cls.from_bytes(bytes.fromhex(text.strip()), n)

    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.bits >> i & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def flip(self, i: int) -> "BitVector":
        if not 0 <= i < self.n:
            raise IndexError(i)
        return BitVector(self.n, self.bits ^ (1 << i))

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.n:
            raise IndexError((start, stop))
        mask = (1 << (stop - start)) - 1
        return BitVector(stop - start, self.bits >> start & mask)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.n + other.n, self.bits | other.bits << self.n)

    def to_bytes(self) -> bytes:
        return _bits_to_bytes(self.bits, self.n)

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class BitMatrix:
    """Immutable row-major matrix over GF(2); each row is a packed int."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative shape")
        if len(self.rows) != self.nrows:
            raise ValueError("row count does not match shape")
        limit = 1 << self.ncols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError("row payload does not fit the stated width")

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        rows = tuple(BitVector.from_bits(row).bits for row in entries)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(nrows, ncols, (0,) * nrows)

    def columns(self) -> tuple[int, ...]:
        """Column payloads: bit ``r`` of column ``j`` is entry (r, j)."""
        return tuple(_columns(self.rows, self.ncols))

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.ncols, self.nrows, self.columns())

    def permute_cols(self, perm: "Permutation") -> "BitMatrix":
        if perm.n != self.ncols:
            raise ValueError("permutation size does not match column count")
        return BitMatrix(
            self.nrows, self.ncols, tuple(perm.apply_bits(r) for r in self.rows)
        )

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        rows = tuple(
            a | b << self.ncols for a, b in zip(self.rows, other.rows)
        )
        return BitMatrix(self.nrows, self.ncols + other.ncols, rows)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return BitMatrix(
            self.nrows + other.nrows, self.ncols, self.rows + other.rows
        )

    def to_text(self) -> str:
        """Serialize as a header line ``rows cols`` then one hex row per line."""
        lines = [f"{self.nrows} {self.ncols}"]
        for r in self.rows:
            lines.append(_bits_to_bytes(r, self.ncols).hex())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        try:
            nrows, ncols = (int(tok) for tok in lines[0].split())
        except Exception as exc:
            raise ValueError(f"bad matrix header: {lines[0]!r}") from exc
        if len(lines) != 1 + nrows:
            raise ValueError(f"expected {nrows} rows, found {len(lines) - 1}")
        rows = tuple(
            _bytes_to_bits(bytes.fromhex(ln.strip()), ncols) for ln in lines[1:]
        )
        return cls(nrows, ncols, rows)


@dataclass(frozen=True)
class Permutation:
    """Permutation of ``n`` coordinates; ``images[i]`` is where ``i`` lands."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images are not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.images)

    def apply_bits(self, bits: int) -> int:
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << self.images[low.bit_length() - 1]
            bits ^= low
        return out

    def apply(self, v: BitVector) -> BitVector:
        """Row-vector action: coordinate ``i`` of ``v`` moves to ``images[i]``."""
        if v.n != self.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.apply_bits(v.bits))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def matrix(self) -> BitMatrix:
        """The matrix P with ``v.apply == v @ P`` for row vectors."""
        return BitMatrix(
            self.n, self.n, tuple(1 << j for j in self.images)
        )


def front_permutation(cols: Sequence[int], n: int) -> Permutation:
    """Permutation sending ``cols[j]`` to position ``j``.

    The remaining coordinates keep their relative order behind the moved
    block, e.g. cols (2, 0) on four coordinates (a, b, c, d) -> (c, a, b, d).
    """
    seen = _pack_positions(n, cols)
    images = [0] * n
    for j, c in enumerate(cols):
        images[c] = j
    nxt = len(cols)
    for i in range(n):
        if not seen >> i & 1:
            images[i] = nxt
            nxt += 1
    return Permutation(tuple(images))


def random_permutation(n: int, rng: random.Random) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def mat_vec_mul(m: BitMatrix, v: BitVector) -> BitVector:
    """Syndrome map ``v -> m @ v^T`` (``v`` read as a column on the right)."""
    if m.ncols != v.n:
        raise ValueError(f"shape mismatch: {m.ncols} columns vs length {v.n}")
    bits = 0
    for i, row in enumerate(m.rows):
        bits |= ((row & v.bits).bit_count() & 1) << i
    return BitVector(m.nrows, bits)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} vs {b.nrows}")
    out = []
    for bits in a.rows:
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= b.rows[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return BitMatrix(a.nrows, b.ncols, tuple(out))


def rank(m: BitMatrix) -> int:
    rows = [r for r in m.rows if r]
    rk = 0
    while rows:
        pivot = rows.pop()
        rk += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rk


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix: U of its reduction on every column.
    Raises ValueError (SingularSelectionError) when singular."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    n = m.nrows
    return BitMatrix(n, n, tuple(row >> n for row in ReducedForm(m, range(n)).rows))


def random_matrix(nrows: int, ncols: int, rng: random.Random) -> BitMatrix:
    return BitMatrix(
        nrows,
        ncols,
        tuple(rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows)),
    )


def random_nonsingular(n: int, rng: random.Random) -> BitMatrix:
    """Uniform nonsingular n x n matrix by rejection (density > 0.28)."""
    return random_full_rank(n, n, rng)


def random_full_rank(nrows: int, ncols: int, rng: random.Random) -> BitMatrix:
    while True:
        m = random_matrix(nrows, ncols, rng)
        if rank(m) == min(nrows, ncols):
            return m


class SquareSolver:
    """``h_S x^T = t^T`` for a square selection S = ``cols`` of an r-row h,
    from h's column syndromes (:meth:`BitMatrix.columns`) alone.

    The selected columns enter, in ``cols`` order, an XOR basis keyed by
    leading bit; each basis vector carries a tag of the selected columns it
    combines (bit j for ``cols[j]``).  A column that reduces to zero makes
    the selection singular (SingularSelectionError) at the cost of one
    insertion.  h_S has a unique inverse, so ``solve(s ^ h e)`` is bit for
    bit ``ReducedForm(h, cols).reduce(s, e)``.
    """

    __slots__ = ("vecs", "tags")

    def __init__(self, columns: Sequence[int], cols: Sequence[int]):
        self.vecs = vecs = [0] * len(cols)  # [b]: the vector with leading bit b
        self.tags = tags = [0] * len(cols)
        for j, c in enumerate(cols):
            v, tag = columns[c], 1 << j
            while v:
                top = v.bit_length() - 1
                if not vecs[top]:
                    vecs[top], tags[top] = v, tag
                    break
                v ^= vecs[top]
                tag ^= tags[top]
            else:
                raise SingularSelectionError(f"column selection singular at column {j}")

    def solve(self, t: int) -> int:
        """The x with ``h_S x^T = t^T``; bit j is the coefficient of ``cols[j]``."""
        vecs, tags, x = self.vecs, self.tags, 0
        while t:
            top = t.bit_length() - 1
            t ^= vecs[top]
            x ^= tags[top]
        return x


class ReducedForm:
    """``h`` row-reduced on a column selection, in place on its own columns:
    the kernel of ISD/DOOM and four-sum (the signer uses SquareSolver).

    U is the nonsingular r x r matrix for which ``U h`` holds the identity
    on the selection (front row j has its 1 at ``cols[j]``) and zeros there
    in the r - len(cols) bottom rows.  Row i of ``U h`` keeps h's positions,
    with row i of U in the bits from n up; the window is the non-selected
    columns, ascending.  The pivot for ``cols[j]`` is the first row >= j
    holding it, as in :func:`systematic_form`, so U and both blocks equal
    its output.  Back substitution waits until every pivot is found, so a
    singular selection (SingularSelectionError) costs about half a reduction.
    """

    __slots__ = ("n", "cols", "window", "rows")

    def __init__(self, h: BitMatrix, cols: Sequence[int]):
        n, r, f = h.ncols, h.nrows, len(cols)
        selected = set(cols)
        if f > r or len(selected) != f or f and not (min(cols) >= 0 and max(cols) < n):
            raise ValueError(f"need at most {r} distinct positions in [0, {n})")
        work = [row | 1 << n + i for i, row in enumerate(h.rows)]
        for j, c in enumerate(cols):
            bit = 1 << c
            for i in range(j, r):
                if work[i] & bit:
                    break
            else:
                raise SingularSelectionError(f"column selection singular at pivot {j}")
            work[i], work[j] = work[j], work[i]
            pivot = work[j]
            # rows j+1..i lack the bit: they were skipped, or hold old row j
            for k in range(i + 1, r):
                if work[k] & bit:
                    work[k] ^= pivot
        for j in range(f - 1, 0, -1):
            pivot, bit = work[j], 1 << cols[j]
            for k in range(j):
                if work[k] & bit:
                    work[k] ^= pivot
        self.n = n
        self.cols = tuple(cols)
        self.window = tuple(c for c in range(n) if c not in selected)
        self.rows = work

    def window_columns(self) -> tuple[int, ...]:
        """r-bit syndromes of the window columns of ``U h``: bit i of entry t
        is row i at the t-th non-selected column.  One bit-scan transpose of
        the rows' low n bits reads them all."""
        mask = (1 << self.n) - 1
        cols = _columns([row & mask for row in self.rows], self.n)
        return tuple(cols[c] for c in self.window)

    def reduce(self, s: int, e: int = 0) -> int:
        """``U (s^T + h e^T)``: the reduced syndrome ``U s^T``, less what the
        error bits ``e`` (on h's positions) already cover.  One parity per
        row; nothing is transposed."""
        mask = e | s << self.n
        out = 0
        for i, row in enumerate(self.rows):
            if (row & mask).bit_count() & 1:
                out |= 1 << i
        return out

    def reduce_all(self, syndromes: Iterable[int]) -> Iterator[int]:
        """``U s^T`` for each syndrome, lazily: r parities each for the first
        r, then one lookup per byte of s in XOR tables of the columns of U,
        built when the (r + 1)-th syndrome is reached.  U's columns are read
        off the rows' high bits by one bit-scan transpose."""
        n, r = self.n, len(self.rows)
        syndromes = iter(syndromes)
        yield from map(self.reduce, islice(syndromes, r))
        tables: list[list[int]] = []  # [k][b]: U (b << 8k)^T
        for s in syndromes:
            if not tables:
                tables = [[0] for _ in range(0, r, 8)]
                for i, col in enumerate(_columns([row >> n for row in self.rows], r)):
                    tables[i >> 3] += [x ^ col for x in tables[i >> 3]]
            out = 0
            for table in tables:
                out ^= table[s & 255]
                s >>= 8
            yield out

    def complete(self, front_bits: int, window_word: int) -> int:
        """The error on h's positions: front bit j goes to ``cols[j]``,
        window bit t to the t-th non-selected column."""
        out = 0
        for positions, bits in ((self.cols, front_bits), (self.window, window_word)):
            while bits:
                low = bits & -bits
                out |= 1 << positions[low.bit_length() - 1]
                bits ^= low
        return out


def systematic_form(
    h: BitMatrix, cols: Sequence[int], l: int | None = None
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Row-reduce ``h`` so the selected columns become an identity block.

    With the selection moved to the front (:func:`front_permutation`),
    returns (U, hp, hpp) with ``U @ h_perm == [[I, hp], [0, hpp]]``: hp has
    len(cols) rows and hpp has l = r - len(cols) rows (checked when given).
    The blocks are read off :class:`ReducedForm`, which never permutes.
    Raises SingularSelectionError for a singular selection (resample it)
    and ValueError when ``h`` itself is rank deficient (seen via hpp).
    """
    r, n = h.nrows, h.ncols
    front = len(cols)
    if l is None:
        l = r - front
    if l != r - front or l < 0:
        raise ValueError(f"need len(cols) == nrows - l, got {front} != {r} - {l}")
    form = ReducedForm(h, cols)
    block = BitMatrix(n - front, r, form.window_columns()).transpose()
    hp = BitMatrix(front, n - front, block.rows[:front])
    hpp = BitMatrix(l, n - front, block.rows[front:])
    if rank(hpp) < l:
        raise ValueError("parity-check matrix is rank deficient")
    return BitMatrix(r, r, tuple(row >> n for row in form.rows)), hp, hpp
