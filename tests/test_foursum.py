import math
import random
from itertools import combinations, product

import pytest

from cbfdh.f2 import (
    BitVector,
    SingularSelectionError,
    front_permutation,
    mat_vec_mul,
    random_full_rank,
)
from cbfdh.foursum import (
    FourSumInstance,
    build_foursum_instance,
    lift_foursum_solution,
    snap_foursum_params,
    solve_foursum,
)
from cbfdh.hashing import syndrome_hash
from cbfdh.isd import DoomSolution


def make_instance(n, k, l, p, w, rng, hash_width=None):
    """Random full-rank instance with a workable column selection."""
    r = n - k
    h = random_full_rank(r, n, rng)
    hash_fn = lambda t: syndrome_hash(t, hash_width or r)
    for _ in range(100):
        cols = sorted(rng.sample(range(n), r - l))
        try:
            return build_foursum_instance(h, hash_fn, cols, p, l, w, None)
        except SingularSelectionError:
            continue
        except ValueError as exc:
            if "rank deficient" in str(exc):
                continue
            raise
    raise AssertionError("no workable selection found")


def brute_solutions(inst: FourSumInstance):
    """Independent oracle: enumerate every weight-w error vector for every
    preimage and keep those whose window part puts weight p/3 on each third."""
    n = inst.h.ncols
    front = len(inst.cols)
    third = inst.window // 3
    p3 = inst.p // 3
    perm = front_permutation(inst.cols, n)
    third_mask = (1 << third) - 1
    found = set()
    for preimage in inst.v4:
        s = inst.hash_fn(preimage)
        for supp in combinations(range(n), inst.w):
            e = BitVector.from_support(n, supp)
            if mat_vec_mul(inst.h, e) != s:
                continue
            z = perm.apply_bits(e.bits)
            m = z >> front
            v1 = m & third_mask
            v2 = (m >> third) & third_mask
            v3 = (m >> (2 * third)) & third_mask
            if (
                v1.bit_count() == p3
                and v2.bit_count() == p3
                and v3.bit_count() == p3
            ):
                found.add((v1 << 0, v2 << third, v3 << (2 * third), preimage))
    return found


def test_snap_params():
    assert snap_foursum_params(10, 2, 3) == (2, 3)
    assert snap_foursum_params(7, 2, 2) == (2, 3)
    assert snap_foursum_params(12, 3, 4) == (0, 3)
    assert snap_foursum_params(6, 1, 1) == (0, 0)
    k, l, p = 100, 13, 10
    sl, sp = snap_foursum_params(k, l, p)
    assert sl % 2 == 0 and (k + sl) % 3 == 0 and sp % 3 == 0
    with pytest.raises(ValueError):
        snap_foursum_params(10, -1, 3)


def test_set_sizes_and_shapes():
    rng = random.Random(2)
    # window k + l = 12 with p = 3: each third holds C(4,1) = 4 masks
    inst = make_instance(20, 10, 2, 3, 6, rng)
    assert inst.window == 12
    assert len(inst.v1) == len(inst.v2) == len(inst.v3) == len(inst.v4) == 4
    third = inst.window // 3
    for mask in inst.v1:
        assert mask.bit_count() == 1 and mask < (1 << third)
    for mask in inst.v2:
        assert mask.bit_count() == 1 and (mask >> third) < (1 << third)
    for mask in inst.v3:
        assert mask.bit_count() == 1 and mask >= (1 << (2 * third))
    # the f4 map lands in the l-bit group and is cached
    for a in inst.v4:
        val = inst.f4(a)
        assert 0 <= val < (1 << inst.l)
        assert inst.f4(a) == val


def test_build_validations():
    rng = random.Random(3)
    h = random_full_rank(10, 20, rng)
    hash_fn = lambda t: syndrome_hash(t, 10)
    cols8 = sorted(rng.sample(range(20), 8))
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols8, 3, 1, 6)  # odd l
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols8[:7], 3, 2, 6)  # wrong selection size
    cols9 = sorted(rng.sample(range(20), 9))  # window 11, not a multiple of 3
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols9, 3, 1, 6)
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols8, 2, 2, 6)  # p not a multiple of 3
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols8, 6, 2, 3)  # p > w
    with pytest.raises(ValueError):
        build_foursum_instance(h, hash_fn, cols8, 3, 2, 6, preimages=[b"a"])


def test_build_rejects_a_hash_of_the_wrong_width():
    # every preimage is hashed when the instance is built, not at first f4
    with pytest.raises(ValueError, match="width"):
        make_instance(20, 10, 2, 3, 6, random.Random(2), hash_width=9)


def test_build_foursum_instance_rejects_bad_selections():
    h = random_full_rank(3, 6, random.Random(1))
    hash_fn = lambda t: syndrome_hash(t, 3)
    for cols in ([0, 0], [0, 6], [-1, 2], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="distinct positions"):
            build_foursum_instance(h, hash_fn, cols, 0, 0, 1)


def test_matches_brute_force_on_tiny_instances():
    rng = random.Random(11)
    total = 0
    nonempty = 0
    for trial in range(50):
        if trial % 2 == 0:
            inst = make_instance(14, 4, 2, 3, 7, rng)  # window 6, two masks per third
        else:
            inst = make_instance(16, 7, 2, 3, 7, rng)  # window 9, three masks per third
        got = set(solve_foursum(inst))
        want = brute_solutions(inst)
        assert got == want
        total += len(got)
        nonempty += bool(got)
    assert total > 0 and nonempty >= 5


def test_solutions_lift_to_checked_decodings():
    rng = random.Random(17)
    lifted = 0
    for _ in range(20):
        inst = make_instance(16, 7, 2, 3, 7, rng)
        for sol in solve_foursum(inst):
            out = lift_foursum_solution(inst, sol)
            assert isinstance(out, DoomSolution)
            assert out.e.weight() == inst.w
            assert mat_vec_mul(inst.h, out.e) == inst.hash_fn(out.preimage)
            assert out.preimage == sol[3]
            lifted += 1
    assert lifted > 0


def test_lift_rejects_malformed_tuples():
    rng = random.Random(19)
    inst = None
    sols = []
    while not sols:
        inst = make_instance(14, 4, 2, 3, 7, rng)
        sols = solve_foursum(inst)
    v1, v2, v3, preimage = sols[0]
    with pytest.raises(ValueError):
        lift_foursum_solution(inst, (1 << inst.window, v2, v3, preimage))
    with pytest.raises(ValueError):
        lift_foursum_solution(inst, (v1, v2, v3, b"not a member"))
    # swap in a different third-1 mask: membership holds, the sum is broken
    other_v1 = next(m for m in inst.v1 if m != v1)
    if inst.window_syndrome(other_v1 ^ v2 ^ v3) != inst.f4(preimage):
        with pytest.raises(ValueError, match="sum to zero"):
            lift_foursum_solution(inst, (other_v1, v2, v3, preimage))


def test_lift_rejects_wrong_weight_quadruple():
    # scan for a quadruple whose subsyndromes match but whose completion
    # misses the target weight; it must be refused before any lift
    rng = random.Random(23)
    for _ in range(50):
        inst = make_instance(14, 4, 2, 3, 7, rng)
        for v1, v2, v3, a in product(inst.v1, inst.v2, inst.v3, inst.v4):
            matches = inst.window_syndrome(v1 ^ v2 ^ v3) == inst.f4(a)
            if matches and not inst.g(v1, v2, v3, a):
                with pytest.raises(ValueError, match="target weight"):
                    lift_foursum_solution(inst, (v1, v2, v3, a))
                return
    raise AssertionError("no weight-missing quadruple found in 50 instances")


def test_budget_caps_collision_expansion():
    rng = random.Random(29)
    inst = None
    sols = []
    while not sols:
        inst = make_instance(16, 7, 2, 3, 7, rng)
        sols = solve_foursum(inst)
    assert solve_foursum(inst, budget=0) == []
    assert solve_foursum(inst, budget=10**9) == sols
    # partial budgets only ever return a prefix of the full run
    for budget in (1, 3, 7):
        part = solve_foursum(inst, budget=budget)
        assert part == sols[: len(part)]


def test_custom_preimages_and_snap_interplay():
    rng = random.Random(31)
    k, l0, p0 = 10, 1, 2
    l, p = snap_foursum_params(k, l0, p0)
    assert (k + l) % 3 == 0 and l % 2 == 0 and p % 3 == 0
    n = 20
    r = n - k
    h = random_full_rank(r, n, rng)
    hash_fn = lambda t: syndrome_hash(t, r)
    third = (k + l) // 3
    size = math.comb(third, p // 3)
    names = [f"target-{i}".encode() for i in range(size + 3)]
    for _ in range(100):
        cols = sorted(rng.sample(range(n), r - l))
        try:
            inst = build_foursum_instance(h, hash_fn, cols, p, l, 6, names)
            break
        except (SingularSelectionError, ValueError):
            continue
    assert inst.v4 == tuple(names[:size])
    for sol in solve_foursum(inst):
        assert sol[3] in inst.v4
