"""Dense linear algebra over GF(2) on bit-packed integers.

Vectors and matrix rows are Python ints used as bitsets: bit ``i`` of the
payload is coordinate ``i`` (0-based).  All row operations are therefore
single wide XORs.  Hex and byte conversions at the wire boundary use
big-endian bit order within bytes, so coordinate 0 is the most significant
bit of byte 0 and rows pad on the right up to a whole byte.

Values are immutable after construction: vectors, matrices and
permutations are :class:`cbfdh._record.FrozenRecord` classes, whose
constructors check their fields and set them with ``object.__setattr__``
and which refuse any later attribute assignment.  Every operation returns
a fresh object, which keeps sharing across worker processes safe.  A
matrix computes its column syndromes and its :class:`SystematicFrame` once,
on first use, into its instance ``__dict__`` (:func:`functools.cached_property`),
and keeps them out of equality, hashing and pickles.

One kernel solves on a column selection, square or not: the
:class:`SystematicFrame` of a matrix, its first information set with every
column written in that basis, built once per matrix.  Each selection it
solves eliminates only its columns outside that set, for the signer,
ISD/DOOM, four-sum and :func:`inverse` alike, and keeps its basis in lists
indexed by leading bit.  :func:`systematic_form` is the independent
row-reduction reference the kernel is checked against, and :func:`sample`
draws the selections from a plan cached per shape.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ._record import FrozenRecord, set_field

__all__ = [
    "BitVector",
    "BitMatrix",
    "Permutation",
    "SingularSelectionError",
    "SystematicFrame",
    "Selection",
    "mat_vec_mul",
    "mat_mul",
    "rank",
    "inverse",
    "systematic_form",
    "front_permutation",
    "random_permutation",
    "sample",
    "random_matrix",
    "random_full_rank",
]


class SingularSelectionError(ValueError):
    """The selected columns are linearly dependent."""


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


class BitVector(FrozenRecord):
    """Immutable vector over GF(2), length ``n``, payload ``bits``."""

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError("payload does not fit the stated length")
        set_field(self, "n", n)
        set_field(self, "bits", bits)

    @classmethod
    def _unchecked(cls, n: int, bits: int) -> "BitVector":
        """``cls(n, bits)`` without the checks, for bits that fit n by
        construction: it writes the fields straight into ``__dict__``."""
        v = object.__new__(cls)
        fields = v.__dict__
        fields["n"] = n
        fields["bits"] = bits
        return v

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

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

    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.bits >> i & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.n:
            raise IndexError((start, stop))
        mask = (1 << (stop - start)) - 1
        return BitVector(stop - start, self.bits >> start & mask)

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


class BitMatrix(FrozenRecord):
    """Immutable row-major matrix over GF(2); each row is a packed int."""

    def __init__(self, nrows: int, ncols: int, rows: tuple[int, ...]) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("negative shape")
        if len(rows) != nrows:
            raise ValueError("row count does not match shape")
        limit = 1 << ncols
        for r in rows:
            if not 0 <= r < limit:
                raise ValueError("row payload does not fit the stated width")
        set_field(self, "nrows", nrows)
        set_field(self, "ncols", ncols)
        set_field(self, "rows", rows)

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
        """Column payloads: bit ``r`` of column ``j`` is entry (r, j), read
        off by one bit scan of the rows on the first call."""
        return self._columns

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        cols = [0] * self.ncols
        for r, bits in enumerate(self.rows):
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= 1 << r
                bits ^= low
        return tuple(cols)

    @cached_property
    def frame(self) -> SystematicFrame | None:
        """The matrix in the coordinates of its first information set, built
        on first use; None when the matrix is rank deficient."""
        try:
            return SystematicFrame(self.columns(), self.nrows)
        except SingularSelectionError:
            return None

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


class Permutation(FrozenRecord):
    """Permutation of ``n`` coordinates; ``images[i]`` is where ``i`` lands."""

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a permutation of 0..n-1")
        set_field(self, "images", images)

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
    """Inverse of a square matrix: its frame's reference set is every
    column, so the frame's coordinates of ``1 << i`` are column i of the
    inverse.  Raises ValueError (SingularSelectionError) when singular."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    frame, n = m.frame, m.nrows
    if frame is None:
        raise SingularSelectionError("the matrix is singular")
    return BitMatrix(n, n, tuple(frame.reduce(1 << i) for i in range(n))).transpose()


# (n, k) -> the plan of sample(rng, n, k): None for CPython's set branch,
# else its pool branch's (m, bit width, m - 1) per draw and the pool to copy
_SAMPLE_PLANS: dict[tuple[int, int], tuple | None] = {}


def sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)`` by the same ``getrandbits`` calls, without
    its sequence check and per-draw ``_randbelow`` call: CPython's pool
    branch when n is at most ``setsize``, else its set branch.  The branch,
    each pool draw's bit width and the pool come from a plan built on the
    first call per (n, k); a refused (n, k) raises ValueError and keeps no
    plan."""
    try:
        plan = _SAMPLE_PLANS[n, k]
    except KeyError:
        size = max(n, 0)  # len(range(n))
        if not 0 <= k <= size:
            raise ValueError("Sample larger than population or is negative") from None
        setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        plan = None
        if size <= setsize:
            draws = tuple((m, m.bit_length(), m - 1) for m in range(size, size - k, -1))
            plan = draws, list(range(size))
        _SAMPLE_PLANS[n, k] = plan
    getrandbits = rng.getrandbits
    if plan is None:
        bits, selected = n.bit_length(), {}  # a dict keeps the draw order
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected[j] = None
        return list(selected)
    draws, pool = plan
    pool, out = pool.copy(), []
    for m, bits, last in draws:
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        out.append(pool[j])
        pool[j] = pool[last]
    return out


def random_matrix(nrows: int, ncols: int, rng: random.Random) -> BitMatrix:
    return BitMatrix(
        nrows,
        ncols,
        tuple(rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows)),
    )


def random_full_rank(nrows: int, ncols: int, rng: random.Random) -> BitMatrix:
    """Uniform full-rank matrix (nrows <= ncols), with the frame that tested it."""
    if nrows > ncols:
        raise ValueError("a full-rank matrix needs nrows <= ncols")
    while True:
        m = random_matrix(nrows, ncols, rng)
        if m.frame is not None:
            return m


class SystematicFrame:
    """An r-row h of rank r in the coordinates of its reference information
    set I0 = ``cols``, the first r independent columns in index order, so
    building the frame draws nothing: the one information-set kernel, under
    the signer, ISD/DOOM, four-sum and :func:`inverse`.

    One greedy pass over h's column syndromes (:meth:`BitMatrix.columns`)
    builds an XOR basis of I0 keyed by leading bit, each vector tagged with
    the reference columns it combines, so ``reduce(t)`` is h_{I0}^{-1} t.
    The pass also records ``coords[c]``, column c of h_{I0}^{-1} h, which is
    ``units[c] = 1 << i`` for c = ``cols[i]`` (``units`` is 0 off I0).
    Raises SingularSelectionError when h is rank deficient.

    :meth:`select` solves on a selection S of f <= r columns without redoing
    the elimination of I0 (Canteaut-Chabaud): a selected reference column
    pivots on its own coordinate bit, so only the m columns of S outside I0
    enter an XOR basis, on the coordinate bits of the unselected reference
    columns (the free bits).  S is singular exactly when one of them reduces
    to 0.  The l = r - f free bits that no column pivots on complete the
    basis as the tail.  Like the frame's, that basis is two lists indexed by
    leading bit: keys (free bits) and tags (the x and tail bits they add).
    """

    __slots__ = ("cols", "coords", "units", "vecs", "tags", "positions")

    def __init__(self, columns: Sequence[int], r: int):
        self.vecs = vecs = [0] * r  # [b]: the vector with leading bit b
        self.tags = tags = [0] * r
        ref, coords, units = [], [], []
        for c, v in enumerate(columns):
            x = unit = 0  # column c = v + the reference columns of x
            while v:
                top = v.bit_length() - 1
                if not vecs[top]:  # c is the next reference column
                    unit = 1 << len(ref)
                    vecs[top], tags[top] = v, x ^ unit
                    x = unit
                    ref.append(c)
                    break
                v ^= vecs[top]
                x ^= tags[top]
            coords.append(x)
            units.append(unit)
        if len(ref) < r:
            raise SingularSelectionError("the matrix is rank deficient")
        self.cols, self.coords, self.units = tuple(ref), tuple(coords), tuple(units)
        self.positions = frozenset(range(len(columns)))

    def reduce(self, t: int) -> int:
        """The coordinates of t: bit i is the coefficient of ``cols[i]``."""
        vecs, tags, x = self.vecs, self.tags, 0
        while t:
            top = t.bit_length() - 1
            t ^= vecs[top]
            x ^= tags[top]
        return x

    def select(self, cols: Sequence[int]) -> Selection | None:
        """The solver on the f <= r distinct columns ``cols``, or None when
        they are linearly dependent."""
        units, coords = self.units, self.coords
        r = len(self.cols)
        chosen = 0  # the selected bits of I0
        for c in cols:
            chosen |= units[c]
        free = chosen ^ (1 << r) - 1
        # [b]: the basis vector with leading free bit b, as its key (its
        # free bits) and its tag (its chosen bits, then the free bit its
        # column pivots on, with the tail above bit r)
        keys, tags, pivots = [0] * r, [0] * r, []
        for c in cols:
            if units[c]:
                continue
            a = coords[c]
            key, x = a & free, a & chosen
            while key:
                top = key.bit_length() - 1
                if not keys[top]:
                    keys[top], tags[top] = key, x | 1 << top
                    pivots.append(top)
                    break
                key ^= keys[top]
                x ^= tags[top]
            else:
                return None
        if len(cols) < r:  # the free bits no column pivots on: tail bits r, r + 1, ...
            tail = r
            for b in range(r):
                if free >> b & 1 and not keys[b]:
                    keys[b], tags[b] = 1 << b, 1 << tail
                    tail += 1
        window = tuple(sorted(self.positions.difference(cols)))
        return Selection(self, keys, tags, pivots, chosen, free, tuple(cols), window)


class Selection:
    """``h_S x^T = t^T`` on a column selection S = ``cols`` of a
    :class:`SystematicFrame`.  Bit i of x is the coefficient of the column
    of S that reduces to ``1 << i``: the reference column ``frame.cols[i]``
    when S holds it, else the column outside I0 that pivots on free bit i
    (``pivots`` lists those bits in the order of S).  ``keys`` and ``tags``
    hold the basis by leading free bit, as :meth:`SystematicFrame.select`
    builds it.  The window is the non-selected columns, ascending."""

    __slots__ = ("frame", "keys", "tags", "pivots", "chosen", "free", "cols", "window", "_front")

    def __init__(
        self, frame: SystematicFrame, keys: list[int], tags: list[int],
        pivots: list[int], chosen: int, free: int, cols: tuple[int, ...],
        window: tuple[int, ...],
    ):
        self.frame, self.keys, self.tags, self.pivots = frame, keys, tags, pivots
        self.chosen, self.free, self.cols, self.window = chosen, free, cols, window
        self._front = None

    def reduce(self, tau: int) -> int:
        """``x | tail << r`` for the coordinates tau of t
        (:meth:`SystematicFrame.reduce`): the l-bit tail is 0 exactly when t
        lies in the span of h_S, and then x is the unique solution, of the
        weight of the error on S."""
        keys, tags = self.keys, self.tags
        key, x = tau & self.free, tau & self.chosen
        while key:
            top = key.bit_length() - 1
            key ^= keys[top]
            x ^= tags[top]
        return x

    def window_columns(self) -> tuple[int, ...]:
        """The reduced window columns: entry t is the reduction of the t-th
        non-selected column."""
        return tuple(map(self.reduce, map(self.frame.coords.__getitem__, self.window)))

    def reduce_all(self, syndromes: Iterable[int]) -> Iterator[int]:
        """``reduce(frame.reduce(s))`` of each syndrome s, lazily: basis walks
        for the first r, then one lookup per byte of s in XOR tables of the
        reductions of the unit vectors, built when the (r + 1)-th syndrome is
        reached."""
        frame, reduce = self.frame, self.reduce
        r = len(frame.cols)
        syndromes = iter(syndromes)
        yield from map(reduce, map(frame.reduce, islice(syndromes, r)))
        tables: list[list[int]] = []  # [k][b]: the reduction of b << 8k
        for s in syndromes:
            if not tables:
                tables = [[0] for _ in range(0, r, 8)]
                for i in range(r):
                    col = reduce(frame.reduce(1 << i))
                    tables[i >> 3] += [x ^ col for x in tables[i >> 3]]
            out = 0
            for table in tables:
                out ^= table[s & 255]
                s >>= 8
            yield out

    def complete(self, front_bits: int, window_word: int) -> int:
        """The error on h's positions: bit i of x goes to the selected column
        that reduces to ``1 << i``, window bit t to the t-th non-selected
        column."""
        if self._front is None:  # built on the first call: the signer makes one
            units = self.frame.units
            self._front = list(self.frame.cols)
            for c, top in zip([c for c in self.cols if not units[c]], self.pivots):
                self._front[top] = c
        out, front, window = 0, self._front, self.window
        while front_bits:
            low = front_bits & -front_bits
            out |= 1 << front[low.bit_length() - 1]
            front_bits ^= low
        while window_word:
            low = window_word & -window_word
            out |= 1 << window[low.bit_length() - 1]
            window_word ^= low
        return out


def systematic_form(
    h: BitMatrix, cols: Sequence[int], l: int | None = None
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Row-reduce ``h`` so the selected columns become an identity block:
    the reference the information-set kernel is checked against.

    Moves the selection to the front (:func:`front_permutation`), then runs
    Gauss-Jordan with the pivot for column j taken from the first row at or
    below j.  Returns (U, hp, hpp) with ``U @ h_perm == [[I, hp], [0, hpp]]``:
    hp has len(cols) rows and hpp has l = r - len(cols) rows (checked when
    given).  Raises SingularSelectionError for a singular selection
    (resample it) and ValueError when ``h`` itself is rank deficient (seen
    via hpp).
    """
    r, n = h.nrows, h.ncols
    front = len(cols)
    if l is None:
        l = r - front
    if l != r - front or l < 0:
        raise ValueError(f"need len(cols) == nrows - l, got {front} != {r} - {l}")
    perm = front_permutation(cols, n)
    work = [perm.apply_bits(row) | 1 << n + i for i, row in enumerate(h.rows)]
    for j in range(front):
        pivot = next((i for i in range(j, r) if work[i] >> j & 1), None)
        if pivot is None:
            raise SingularSelectionError(f"column selection singular at pivot {j}")
        work[j], work[pivot] = work[pivot], work[j]
        for i in range(r):
            if i != j and work[i] >> j & 1:
                work[i] ^= work[j]
    mask = (1 << n - front) - 1
    hp = BitMatrix(front, n - front, tuple(row >> front & mask for row in work[:front]))
    hpp = BitMatrix(l, n - front, tuple(row >> front & mask for row in work[front:]))
    if rank(hpp) < l:
        raise ValueError("parity-check matrix is rank deficient")
    return BitMatrix(r, r, tuple(row >> n for row in work)), hp, hpp
