import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfdh.f2 import (
    BitMatrix,
    BitVector,
    Permutation,
    SingularSelectionError,
    SystematicFrame,
    front_permutation,
    inverse,
    mat_mul,
    mat_vec_mul,
    random_full_rank,
    random_matrix,
    random_permutation,
    rank,
    systematic_form,
)
from cbfdh.foursum import build_foursum_instance, solve_foursum
from cbfdh.hashing import syndrome_hash


def brute_rank(m: BitMatrix) -> int:
    """Independent rank oracle: count the row space by enumeration."""
    span = {0}
    for r in m.rows:
        span |= {v ^ r for v in span}
    size = len(span)
    return size.bit_length() - 1


# --- BitVector -------------------------------------------------------------


def test_vector_wire_order_is_msb_first():
    v = BitVector.from_bits([1, 0, 1, 1, 0, 0, 1, 0])
    assert v.to_bytes() == bytes([0b10110010])
    assert v.to_hex() == "b2"


def test_vector_pads_to_whole_bytes():
    v = BitVector.from_bits([1, 0, 1, 0])
    assert v.to_bytes() == bytes([0b10100000])
    assert BitVector.from_hex(v.to_hex(), 4) == v


def bitwise_to_bytes(bits: int, n: int) -> bytes:
    """Reference packing: coordinate i to bit 7 - i % 8 of byte i // 8."""
    out = bytearray((n + 7) // 8)
    for i in range(n):
        if bits >> i & 1:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def bitwise_from_bytes(data: bytes, n: int) -> int:
    return sum(1 << i for i in range(n) if data[i >> 3] >> (7 - (i & 7)) & 1)


@given(st.integers(0, 200), st.data())
def test_byte_conversions_match_bitwise_reference(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    assert BitVector(n, bits).to_bytes() == bitwise_to_bytes(bits, n)
    # the hex of any ceil(n/8) bytes reads back bit for bit when its
    # padding bits past n are 0, and is refused otherwise
    nbytes = (n + 7) // 8
    raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
    expected = bitwise_from_bytes(raw, n)
    if bitwise_to_bytes(expected, n) == raw:
        assert BitVector.from_hex(raw.hex(), n).bits == expected
    else:
        with pytest.raises(ValueError, match="in bare lowercase hex"):
            BitVector.from_hex(raw.hex(), n)
    extra = data.draw(st.binary(min_size=1, max_size=3))
    for wrong in ([raw + extra, raw[:-1]] if nbytes else [extra]):
        with pytest.raises(ValueError, match="in bare lowercase hex"):
            BitVector.from_hex(wrong.hex(), n)


def test_vector_basics():
    v = BitVector.from_support(6, [1, 4])
    assert v.weight() == 2
    assert v.support() == (1, 4)
    assert v.get(4) == 1 and v.get(0) == 0
    assert v.slice(1, 5) == BitVector.from_bits([1, 0, 0, 1])
    with pytest.raises(ValueError):
        BitVector(3, 8)
    with pytest.raises(ValueError):
        BitVector.from_support(3, [0, 0])


@given(st.integers(1, 64), st.randoms(use_true_random=False))
def test_vector_xor_properties(n, rg):
    a = BitVector.random(n, rg)
    b = BitVector.random(n, rg)
    assert (a ^ b) ^ b == a
    assert (a ^ a).weight() == 0
    assert (a ^ b).weight() % 2 == (a.weight() + b.weight()) % 2


# --- matrices --------------------------------------------------------------


def test_mat_vec_mul_hand_example():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    e = BitVector.from_bits([1, 1, 0, 0])
    assert mat_vec_mul(h, e) == BitVector.from_bits([1, 1])


def test_mat_vec_mul_zero_matrix():
    h = BitMatrix.zeros(3, 5)
    e = BitVector.from_support(5, [0, 2, 4])
    assert mat_vec_mul(h, e) == BitVector.zeros(3)


def test_mat_vec_mul_shape_mismatch():
    h = BitMatrix.zeros(3, 5)
    with pytest.raises(ValueError):
        mat_vec_mul(h, BitVector.zeros(4))


def test_matrix_text_round_trip_frozen():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert h.to_text() == "2 4\na0\n50\n"
    assert BitMatrix.from_text(h.to_text()) == h


def test_matrix_text_rejects_bad_header():
    with pytest.raises(ValueError):
        BitMatrix.from_text("two four\nf0\n")
    with pytest.raises(ValueError):
        BitMatrix.from_text("2 4\na0\n")
    # only the header to_text writes: no leading zero, sign, other digits
    # or spacing
    for header in ("02 4", "2 04", "+2 4", "\u0662 \u0664", "2  4", "2\t4", "2 4 1"):
        with pytest.raises(ValueError, match="bad matrix header"):
            BitMatrix.from_text(f"{header}\na0\n50\n")
    assert BitMatrix.from_text("2 4\na0\n50\n").to_text() == "2 4\na0\n50\n"


def test_declared_width_allocates_nothing():
    # a row is checked with one shift, a hex field by its length first
    assert BitMatrix(0, 1 << 60, ()).ncols == 1 << 60
    with pytest.raises(ValueError, match="does not fit"):
        BitMatrix(1, 4, (-1,))
    with pytest.raises(ValueError, match="not a 1152921504606846976-bit field"):
        BitVector.from_hex("a0", 1 << 60)


@pytest.mark.parametrize("row", [
    "c3a1", "c3a000", "c3", "C3A0", "c3 a0", "c3\ta0", "c 3a0",
], ids=("padding-bit", "extra-byte", "short", "uppercase", "space", "tab", "split-byte"))
def test_hex_fields_are_read_strictly(row):
    # a 12-bit row is two bytes whose low four bits are padding: only the
    # spelling to_hex writes is read back
    with pytest.raises(ValueError, match="not a 12-bit field in bare|non-hexadecimal"):
        BitMatrix.from_text(f"2 12\n{row}\n5050\n")
    with pytest.raises(ValueError, match="not a 12-bit field in bare|non-hexadecimal"):
        BitVector.from_hex(row, 12)
    v = BitVector.from_hex("c3a0", 12)
    assert v == BitVector.from_bits([1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0])
    assert v.to_hex() == "c3a0"


def test_columns_and_transpose():
    h = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert h.columns() == (0b01, 0b11, 0b10)
    transpose = BitMatrix(h.ncols, h.nrows, h.columns())
    assert transpose == BitMatrix.from_dense([[1, 0], [1, 1], [0, 1]])


def bitwise_columns(m: BitMatrix) -> tuple[int, ...]:
    """Columns read off one set bit per step."""
    cols = [0] * m.ncols
    for r, bits in enumerate(m.rows):
        while bits:
            low = bits & -bits
            cols[low.bit_length() - 1] |= 1 << r
            bits ^= low
    return tuple(cols)


def test_columns_match_the_bitwise_transpose():
    rng = random.Random(14)
    shapes = [(0, 5), (0, 0), (6, 0), (1, 1)]
    shapes += [(nrows, ncols) for nrows in (1, 7, 8, 9, 13, 20) for ncols in range(1, 71)]
    for nrows, ncols in shapes:
        ones = BitMatrix(nrows, ncols, ((1 << ncols) - 1,) * nrows)
        for m in (random_matrix(nrows, ncols, rng), ones):
            assert m.columns() == bitwise_columns(m), (nrows, ncols)
            assert BitMatrix(ncols, nrows, m.columns()).columns() == m.rows


def test_caches_are_invisible():
    rng = random.Random(12)
    for _ in range(20):
        m = random_full_rank(6, 14, rng)
        assert m.columns() and m.frame is not None
        assert {"_columns", "frame"} <= set(vars(m))
        fresh = BitMatrix(m.nrows, m.ncols, m.rows)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert BitMatrix.from_text(m.to_text()) == m
        assert m.to_text() == fresh.to_text()
        # the pickle carries the fields only, and the copy rebuilds its caches
        assert pickle.dumps(m) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and "frame" not in vars(copy) and "_columns" not in vars(copy)
        assert copy.columns() == m.columns() and copy.frame.coords == m.frame.coords
        perm = random_permutation(m.ncols, rng)
        for derived in (m.permute_cols(perm), m.hstack(m)):
            assert "frame" not in vars(derived) and "_columns" not in vars(derived)
        assert m.permute_cols(perm).columns() == tuple(
            m.columns()[i] for i in perm.inverse().images
        )
        assert m.hstack(m).columns() == m.columns() * 2


def test_mat_vec_matches_column_xor():
    rng = random.Random(11)
    h = random_matrix(5, 9, rng)
    cols = h.columns()
    for _ in range(20):
        e = BitVector.random(9, rng)
        acc = 0
        for i in e.support():
            acc ^= cols[i]
        assert mat_vec_mul(h, e).bits == acc


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
def test_mat_mul_associativity(a, b, c, rg):
    m1 = random_matrix(a, b, rg)
    m2 = random_matrix(b, c, rg)
    v = BitVector.random(c, rg)
    assert mat_vec_mul(mat_mul(m1, m2), v) == mat_vec_mul(m1, mat_vec_mul(m2, v))


# --- rank and inverse ------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
def test_rank_matches_row_space_enumeration(r, c, rg):
    m = random_matrix(r, c, rg)
    assert rank(m) == brute_rank(m)


def test_rank_on_zero_repeated_and_early_dependent_rows():
    rng = random.Random(13)
    for _ in range(200):
        c = rng.randrange(1, 9)
        rows = [rng.getrandbits(c) for _ in range(rng.randrange(1, 7))]
        i = rng.randrange(len(rows))
        cases = (
            rows[:i] + [0] + rows[i:],  # a zero row
            rows[:i + 1] + [rows[i]] + rows[i + 1:],  # a repeated row
            rows[:2] + [rows[0] ^ rows[1 % len(rows)]] + rows[2:],  # dependent early
            [0] * len(rows),
        )
        for case in cases:
            m = BitMatrix(len(case), c, tuple(case))
            assert rank(m) == brute_rank(m), case
    assert rank(BitMatrix.zeros(0, 5)) == 0 and rank(BitMatrix.zeros(3, 0)) == 0


def test_inverse_round_trip():
    rng = random.Random(5)
    for n in range(41):
        m = random_full_rank(n, n, rng)
        inv = inverse(m)
        assert mat_mul(m, inv) == BitMatrix.identity(n) == mat_mul(inv, m), n
        assert "frame" not in vars(m)


def test_inverse_of_every_three_by_three_matrix():
    nonsingular = 0
    for bits in range(1 << 9):
        m = BitMatrix(3, 3, (bits & 7, bits >> 3 & 7, bits >> 6))
        if brute_rank(m) < 3:
            with pytest.raises(SingularSelectionError):
                inverse(m)
            continue
        nonsingular += 1
        inv = inverse(m)
        assert mat_mul(m, inv) == BitMatrix.identity(3) == mat_mul(inv, m), m
    assert nonsingular == 168  # |GL(3, 2)|


def test_inverse_matches_gauss_jordan_reference():
    # systematic_form on every column of m reduces m to I, so its U is m^-1
    rng = random.Random(15)
    for r in range(1, 25):
        for _ in range(6):
            m = random_full_rank(r, r, rng)
            assert inverse(m) == systematic_form(m, range(r))[0], m
        rows = random_matrix(r, r, rng).rows  # its first row repeated last
        singular = BitMatrix(r, r, rows[:-1] + rows[:1] if r > 1 else (0,))
        for solve in (inverse, lambda m: systematic_form(m, range(r))):
            with pytest.raises(SingularSelectionError):
                solve(singular)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(BitMatrix.from_dense([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="not square"):
        inverse(BitMatrix.zeros(2, 3))


def test_random_nonsingular_dim_one_is_forced():
    assert random_full_rank(1, 1, random.Random(0)) == BitMatrix.from_dense([[1]])


def test_random_full_rank_draws_as_random_matrix_and_builds_no_frame():
    rng, ref = random.Random(8), random.Random(8)
    for r, n in ((0, 3), (1, 1), (4, 4), (5, 5), (6, 12), (20, 40)):
        m = random_full_rank(r, n, rng)
        expected = random_matrix(r, n, ref)
        while expected.frame is None:  # the rejection rule it had with frames
            expected = random_matrix(r, n, ref)
        assert m == expected
        assert "frame" not in vars(m) and "_columns" not in vars(m)
    assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError, match="nrows <= ncols"):
        random_full_rank(3, 2, rng)


# --- permutations ----------------------------------------------------------


def test_front_permutation_moves_selected_columns_first():
    # columns 2 then 0 move to the front: (a, b, c, d) -> (c, a, b, d)
    perm = front_permutation([2, 0], 4)
    v = BitVector.from_bits([1, 0, 0, 1])  # a=1, b=0, c=0, d=1
    assert perm.apply(v) == BitVector.from_bits([0, 1, 0, 1])
    labels = ["a", "b", "c", "d"]
    moved = [None] * 4
    for i, lab in enumerate(labels):
        moved[perm.images[i]] = lab
    assert moved == ["c", "a", "b", "d"]


def test_permutation_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        perm = random_permutation(12, rng)
        v = BitVector.random(12, rng)
        assert perm.inverse().apply(perm.apply(v)) == v
        assert perm.apply(v).weight() == v.weight()


def test_permute_cols_consistent_with_vector_action():
    rng = random.Random(6)
    h = random_matrix(4, 8, rng)
    perm = random_permutation(8, rng)
    hp = h.permute_cols(perm)
    for _ in range(10):
        e = BitVector.random(8, rng)
        assert mat_vec_mul(hp, perm.apply(e)) == mat_vec_mul(h, e)


# --- systematic form -------------------------------------------------------


def reassemble(u, h, cols, l):
    """Check oracle: recompute U @ H_perm block structure directly."""
    perm = front_permutation(cols, h.ncols)
    return mat_mul(u, h.permute_cols(perm)), perm


def test_systematic_form_blocks():
    rng = random.Random(9)
    for _ in range(25):
        h = random_full_rank(6, 12, rng)
        l = rng.choice([0, 1, 2])
        while True:
            cols = sorted(rng.sample(range(12), 6 - l))
            try:
                u, hp, hpp = systematic_form(h, cols, l)
                break
            except SingularSelectionError:
                continue
        prod, _ = reassemble(u, h, cols, l)
        front = 6 - l
        for i in range(front):
            expect = (1 << i) | (hp.rows[i] << front)
            assert prod.rows[i] == expect
        for i in range(l):
            assert prod.rows[front + i] == hpp.rows[i] << front
        assert rank(u) == 6


def test_systematic_form_zero_column_is_singular_selection():
    h = BitMatrix.from_dense(
        [[0, 1, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 0, 1]]
    )
    with pytest.raises(SingularSelectionError):
        systematic_form(h, [0, 1, 2], 0)


def test_systematic_form_rejects_rank_deficient_matrix():
    # row 2 = row 0 + row 1, selection itself reduces fine
    h = BitMatrix.from_dense(
        [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]]
    )
    with pytest.raises(ValueError):
        systematic_form(h, [0, 1], 1)


def test_systematic_form_size_contract():
    h = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        systematic_form(h, [0], 0)


# --- column basis -----------------------------------------------------------


def span_of(columns):
    """Every XOR of a subset of ``columns``, by enumeration."""
    span = {0}
    for c in columns:
        span |= {v ^ c for v in span}
    return span


def test_systematic_form_matches_hand_reduction():
    # cols (2, 0): h_perm = [[1, 1, 0], [1, 0, 1]]; swap nothing, clear
    # row 1 at column 0, then row 0 at column 1
    h = BitMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
    u, hp, hpp = systematic_form(h, [2, 0], 0)
    assert u == BitMatrix.from_dense([[0, 1], [1, 1]])
    assert hp == BitMatrix.from_dense([[1], [1]])
    assert hpp == BitMatrix(0, 1, ())


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_column_basis_matches_reference(l):
    rng = random.Random(40 + l)
    seen = {"singular": 0, "rank deficient": 0, "full rank": 0, "tail 0": 0, "tail set": 0}
    for _ in range(150):
        r = rng.randrange(max(l, 1), 8)
        n = r + rng.randrange(1, 8)
        h = random_matrix(r, n, rng)
        front, window = r - l, n - (r - l)
        cols = rng.sample(range(n), front)
        if rng.random() < 0.5:
            cols.sort()
        columns = h.columns()
        try:
            u, hp, hpp = systematic_form(h, cols, l)
        except SingularSelectionError:
            seen["singular"] += 1
            assert h.frame is None or h.frame.select(cols) is None
            continue
        except ValueError as exc:
            # a rank-deficient h has no frame to select from
            assert "rank deficient" in str(exc)
            seen["rank deficient"] += 1
            assert h.frame is None
            continue
        seen["full rank"] += 1
        selection = h.frame.select(cols)
        reduce = lambda t: selection.reduce(h.frame.reduce(t))  # of a syndrome t
        perm = front_permutation(cols, n)
        assert selection.window == tuple(sorted(set(range(n)) - set(cols)))
        reduced_window = selection.window_columns()
        assert reduced_window == tuple(reduce(columns[c]) for c in selection.window)
        # each selected column reduces to its own bit of x, below r
        units = [reduce(columns[c]) for c in cols]
        for c, unit in zip(cols, units):
            assert unit < 1 << r and unit.bit_count() == 1
            assert selection.complete(unit, 0) == 1 << c
        span = span_of(columns[c] for c in cols)
        for _ in range(4):
            e2 = rng.getrandbits(window)
            if rng.random() < 0.5:  # s + h e2 in the span of h_S
                e1 = perm.inverse().apply_bits(rng.getrandbits(front))
                s = mat_vec_mul(h, BitVector(n, e1 | selection.complete(0, e2))).bits
            else:
                s = rng.getrandbits(r)
            t = s ^ mat_vec_mul(h, BitVector(n, selection.complete(0, e2))).bits
            got = reduce(t)
            x, tail = got & ((1 << r) - 1), got >> r
            assert tail < 1 << l
            # the window word's reduced columns close the gap to the target
            acc = reduce(s)
            for i in range(window):
                if e2 >> i & 1:
                    acc ^= reduced_window[i]
            assert acc == got
            seen["tail 0" if tail == 0 else "tail set"] += 1
            assert (tail == 0) == (t in span)
            if tail == 0:
                assert mat_vec_mul(h, BitVector(n, selection.complete(x, 0))).bits == t
            us = mat_vec_mul(u, BitVector(r, s)).bits
            e2_vec = BitVector(window, e2)
            assert (tail == 0) == (us >> front == mat_vec_mul(hpp, e2_vec).bits)
            if tail == 0:
                e1 = us & ((1 << front) - 1) ^ mat_vec_mul(hp, e2_vec).bits
                assert selection.complete(x, 0) == perm.inverse().apply_bits(e1)
            front_bits, word = rng.getrandbits(front), rng.getrandbits(window)
            x = 0
            for j, unit in enumerate(units):
                if front_bits >> j & 1:
                    x ^= unit
            expect = perm.inverse().apply_bits(front_bits | word << front)
            assert selection.complete(x, word) == expect
    assert seen["singular"] and seen["full rank"], seen
    assert seen["tail 0"] and (seen["tail set"] or not l), seen
    if l:
        assert seen["rank deficient"], seen


def test_byte_tables_match_the_basis_walks():
    rng = random.Random(8)
    # r = 1, 8 and 16 are where a byte table starts or ends
    for r in (1, 3, 8, 9, 16, 20):
        h = random_full_rank(r, 2 * r, rng)
        while True:
            cols = rng.sample(range(2 * r), r - 1)
            selection = h.frame.select(cols)
            if selection is not None:
                break
        u, _, _ = systematic_form(h, cols, 1)
        perm = front_permutation(cols, 2 * r)
        tables = selection.byte_tables()

        def from_the_tables(s):
            out = 0
            for table in tables:
                out ^= table[s & 255]
                s >>= 8
            return out

        for _ in range(5 * r):
            s = rng.getrandbits(r)
            reduced = selection.reduce(h.frame.reduce(s))
            assert from_the_tables(s) == reduced
            us = mat_vec_mul(u, BitVector(r, s)).bits
            assert (reduced >> r) == us >> r - 1  # the one tail bit
            if not reduced >> r:
                x = perm.inverse().apply_bits(us)
                assert selection.complete(reduced, 0) == x


def test_square_column_basis_matches_reference():
    rng = random.Random(9)
    seen = {"singular": 0, "solved": 0}
    for case in range(300):
        r = rng.randrange(1, 21)
        n = r + rng.randrange(0, 21)
        h = random_matrix(r, n, rng)
        if case % 5 == 0 and r > 1:  # a rank-deficient h: every selection is singular
            h = BitMatrix(r, n, h.rows[:-1] + (h.rows[0] ^ h.rows[-2],))
        cols = rng.sample(range(n), r)
        if rng.random() < 0.5:
            cols.sort()
        try:
            u, _, _ = systematic_form(h, cols, 0)
        except SingularSelectionError:
            seen["singular"] += 1
            assert h.frame is None or h.frame.select(cols) is None, case
            continue
        seen["solved"] += 1
        selection = h.frame.select(cols)
        back = front_permutation(cols, n).inverse()
        for _ in range(4):
            s, e = rng.getrandbits(r), rng.getrandbits(n)
            t = s ^ mat_vec_mul(h, BitVector(n, e)).bits
            x = selection.reduce(h.frame.reduce(t))
            want = mat_vec_mul(u, BitVector(r, t)).bits
            assert x < 1 << r and x.bit_count() == want.bit_count(), case
            assert selection.complete(x, 0) == back.apply_bits(want), case
    assert min(seen.values()) >= 50, seen


def frame_cases():
    """(case, h, rng): r from 1 to 20, a third of the windows 22 columns or
    wider (where the decoder's seeds take the sampler's set branch), and a
    fifth of the matrices rank deficient."""
    for case in range(600):
        rng = random.Random(1400 + case)
        r = 1 + case % 20
        n = r + (rng.randrange(22, 40) if case % 3 == 0 else rng.randrange(0, 22))
        h = random_matrix(r, n, rng)
        if case % 5 == 0 and r > 1:  # a rank-deficient h
            h = BitMatrix(r, n, h.rows[:-1] + (h.rows[0] ^ h.rows[-2],))
        yield case, h, rng


def check_selection(h, cols, rng, case):
    """h.frame.select(cols) against systematic_form on f = len(cols)
    columns: None exactly when singular, else the tail of a target is 0
    exactly when the reference's is, and then x is its solution."""
    r, n = h.nrows, h.ncols
    front = len(cols)
    selection = h.frame.select(cols)
    try:
        u, _, _ = systematic_form(h, cols, r - front)
    except SingularSelectionError:
        assert selection is None, case
        return "singular"
    assert selection is not None and selection.window == tuple(
        c for c in range(n) if c not in cols
    ), case
    back = front_permutation(cols, n).inverse()
    for _ in range(4):
        t = rng.getrandbits(r)
        got = selection.reduce(h.frame.reduce(t))
        want = mat_vec_mul(u, BitVector(r, t)).bits
        assert (got >> r == 0) == (want >> front == 0), case
        x, e1 = got & ((1 << r) - 1), want & ((1 << front) - 1)
        if want >> front == 0:
            assert selection.complete(x, 0) == back.apply_bits(e1), case
            assert x.bit_count() == e1.bit_count(), case
    return "solved"


def test_frame_matches_column_basis():
    seen = Counter()
    for case, h, rng in frame_cases():
        r, n = h.nrows, h.ncols
        columns = h.columns()
        frame = h.frame
        if rank(h) < r:
            seen["rank deficient"] += 1
            assert frame is None, case
            with pytest.raises(SingularSelectionError):
                SystematicFrame(columns, r)
            with pytest.raises(SingularSelectionError):
                systematic_form(h, rng.sample(range(n), r), 0)
            continue
        # the first r independent columns in index order, and the
        # coordinates of every column in their basis
        prefix_rank = [rank(BitMatrix(c, r, columns[:c])) for c in range(n + 1)]
        assert frame.cols == tuple(c for c in range(n) if prefix_rank[c + 1] > prefix_rank[c])
        u, _, _ = systematic_form(h, frame.cols, 0)
        for t in (rng.getrandbits(r) for _ in range(4)):
            assert frame.reduce(t) == mat_vec_mul(u, BitVector(r, t)).bits, case
        for c, a in enumerate(frame.coords):
            acc = 0
            for i, ref in enumerate(frame.cols):
                if a >> i & 1:
                    acc ^= columns[ref]
            assert acc == columns[c], case
        for _ in range(8):
            cols = rng.sample(range(n), r)
            if rng.random() < 0.5:
                cols.sort()
            if check_selection(h, cols, rng, case) == "singular":
                seen["singular"] += 1
                continue
            seen["solved"] += 1
            seen["solved, window >= 22"] += n - r >= 22
            seen["solved, r = 20"] += r == 20
        # all of I0 (no outside columns) or part of it, and none of it
        inside = rng.sample(frame.cols, rng.randrange(1, r + 1))
        assert check_selection(h, inside, rng, case) == "solved", case
        seen["all of I0" if len(inside) == r else "part of I0"] += 1
        outside = [c for c in range(n) if c not in frame.cols]
        if outside:
            cols = rng.sample(outside, rng.randrange(1, min(r, len(outside)) + 1))
            seen["none of I0, " + check_selection(h, cols, rng, case)] += 1
    assert min(seen.values()) >= 40, seen


def test_kernel_outputs_are_pinned():
    """The kernel's words at fixed seeds, as literals: reductions with their
    tails, reduced window columns and completions at the DOOM shape
    (n = 40, r = 20, l = 4) and on a square selection (l = 0).  A
    budget-capped four-sum join reads the tail coordinates, so its output
    pins their numbering too."""
    pinned = {
        (1901, 4): (
            [35, 24, 27, 0, 20, 36, 18, 12, 22, 1, 16, 13, 2, 15, 34, 30],
            [744859, 471713, 1029917, 272876],
            [0xA3FE42, 0xA83805, 0x19C02, 0x17F440],
            [0x100000, 0x200000, 0x339063, 0x138044, 0x400000, 0x800000,
             0x209A03, 0x848440, 0x2AC45, 0x364A63, 0x470463, 0x7FC821,
             0x53B064, 0x133001, 0x6E3604, 0xD18E24, 0xD3665, 0x3BE025,
             0xAF7C25, 0x672E63, 0xE5D227, 0x4A4E06, 0x2FF220, 0xC4EE21],
            {(344795, 7252159): 0x65E49D05FB, (235983, 15037738): 0xE893B399DF},
        ),
        (1902, 0): (
            [4, 16, 7, 12, 26, 30, 21, 32, 24, 29, 11, 13, 2, 10, 39, 31, 17, 35, 6, 0],
            [1010662, 125742, 291864, 624078],
            [0x7B20, 0xD5D28, 0x80C19, 0xF4A91],
            [0x50B42, 0xED109, 0x73521, 0x3E727, 0x6CD76, 0x84E6E, 0x60403,
             0x72989, 0x213E8, 0xC9CAB, 0xFC691, 0x977C0, 0x1AAE3, 0x671C1,
             0x8ED6F, 0xD39E4, 0x5B927, 0xA1074, 0x604EF, 0x979E1],
            {(493022, 1017185): 0xFE606BC4D6, (263001, 435588): 0x3A694C0071},
        ),
    }
    n, r = 40, 20
    for (seed, l), (cols, targets, words, window, completions) in pinned.items():
        rng = random.Random(seed)
        h = random_full_rank(r, n, rng)
        while True:  # the first nonsingular selection
            picked = rng.sample(range(n), r - l)
            selection = h.frame.select(picked)
            if selection is not None:
                break
        assert picked == cols
        assert [rng.getrandbits(r) for _ in targets] == targets
        assert [selection.reduce(h.frame.reduce(t)) for t in targets] == words
        assert list(selection.window_columns()) == window
        for x, y in completions:
            assert (x, y) == (rng.getrandbits(r), rng.getrandbits(n - r + l))
            assert selection.complete(x, y) == completions[x, y]

    zero = b"\x00" * 8
    capped = {
        (1923, 10): [(1, 512, 65536, zero), (2, 256, 65536, zero)],
        (1926, 8): [(1, 2048, 65536, zero)],
    }
    for (seed, w), found in capped.items():
        rng = random.Random(seed)
        h = random_full_rank(r, n, rng)
        cols = sorted(rng.sample(range(n), r - 4))
        inst = build_foursum_instance(h, lambda t: syndrome_hash(t, r), cols, 3, 4, w)
        assert solve_foursum(inst, budget=3) == found, seed
