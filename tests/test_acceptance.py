"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s or in failure
output) and enforces the pinned tolerance and runtime budget for its
criterion.  Everything here goes through public package interfaces only.
"""

import itertools
import math
import random
import time

from cbfdh.cli import main
from cbfdh.codes import distance_from_uniform, syndrome_counts
from cbfdh.exponents import (
    RatePoint,
    doom_quantum_exponent,
    entropy,
    entropy_inv,
    gv_relative_weight,
    prange_exponent_classical,
    prange_exponent_quantum,
)
from cbfdh.f2 import BitVector, mat_vec_mul, random_full_rank
from cbfdh.foursum import build_foursum_instance, lift_foursum_solution, solve_foursum
from cbfdh.hashing import FdhHash, syndrome_hash
from cbfdh.isd import IsdParams, generalized_isd, isd_success, plant_instance
from cbfdh.reduction import (
    GameConfig,
    LazyOracle,
    OmniscientAdversary,
    ZOracle,
    extract_doom_solution,
    run_game,
    sign_without_secret,
)
from cbfdh.scheme import (
    SchemeParams,
    Signature,
    keygen,
    random_code_family,
    sign,
    verify,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exponent_regression():
    t0 = time.monotonic()
    lo = RatePoint(0.5, 0.11)
    hi = RatePoint(0.5, 0.190899)
    got = (
        prange_exponent_classical(lo),
        prange_exponent_classical(hi),
        prange_exponent_quantum(lo),
        prange_exponent_quantum(hi),
        doom_quantum_exponent(lo).exponent,
        doom_quantum_exponent(hi).exponent,
    )
    want_tol = (
        (0.1199, 5e-4),
        (0.02029, 5e-4),
        (0.059958, 5e-4),
        (0.010139, 5e-4),
        (0.056683, 1e-3),
        (0.009159, 1e-3),
    )
    errs = [abs(g - w) for g, (w, _) in zip(got, want_tol)]
    ok = all(e <= tol for e, (_, tol) in zip(errs, want_tol))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    report(
        1,
        ok,
        f"six exponents {tuple(f'{g:.6f}' for g in got)}, "
        f"max error {max(errs):.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_gv_consistency():
    t0 = time.monotonic()
    lo_x, hi_x = 0.0, 0.5
    for _ in range(80):  # independent bisection oracle for h^{-1}(1/2)
        mid = (lo_x + hi_x) / 2
        if entropy(mid) < 0.5:
            lo_x = mid
        else:
            hi_x = mid
    bisected = (lo_x + hi_x) / 2
    inv = entropy_inv(0.5)
    gv = 13976 * gv_relative_weight(6988 / 13976)
    ok = (
        abs(inv - 0.110028) <= 1e-5
        and abs(inv - bisected) <= 1e-9
        and abs(gv - 1538) < 1
        and 2668 > gv
    )
    elapsed = time.monotonic() - t0
    report(
        2,
        ok and elapsed < 10,
        f"entropy_inv(0.5)={inv:.8f} (bisection {bisected:.8f}), "
        f"d_GV(13976,6988)={gv:.1f} < 2668, {elapsed:.2f}s",
    )


def test_criterion_3_scheme_round_trip():
    t0 = time.monotonic()
    n, k = 24, 12
    w = math.ceil(n * gv_relative_weight(k / n)) + 4
    params = SchemeParams(n=n, k=k, w=w, lam=16, lam0=24)
    rng = random.Random(300)
    keypair = keygen(params, random_code_family(n, k), rng)
    hash_fn = FdhHash(params.n_k)
    accepts = rejects = 0
    signatures = []
    for i in range(100):
        message = f"round-trip {i}".encode()
        sig = sign(keypair, message, hash_fn, rng)
        accepts += verify(keypair.public, message, sig, hash_fn)
        signatures.append((message, sig))
    for i in range(50):
        message, sig = signatures[i]
        flipped = BitVector(n, sig.e.bits ^ 1 << rng.randrange(n))
        tampered = Signature(flipped, sig.salt)
        rejects += not verify(keypair.public, message, tampered, hash_fn)
    elapsed = time.monotonic() - t0
    ok = accepts == 100 and rejects == 50 and elapsed < 5
    report(
        3,
        ok,
        f"w={w}, {accepts}/100 accepted, {rejects}/50 tampers rejected, "
        f"{elapsed:.2f}s",
    )


def _brute_solvable(h, s, w):
    n = h.ncols
    return any(
        mat_vec_mul(h, BitVector.from_support(n, combo)) == s
        for combo in itertools.combinations(range(n), w)
    )


def test_criterion_4_isd_brute_force_equivalence():
    t0 = time.monotonic()
    agreements = solvable_count = 0
    for i in range(200):
        rng = random.Random(9000 + i)
        n = rng.randrange(10, 15)
        k = rng.randrange(2, n // 2 + 1)
        w = rng.randrange(1, 4)
        h = random_full_rank(n - k, n, rng)
        s = BitVector.random(n - k, rng)
        expected = _brute_solvable(h, s, w)
        # several window shapes: plain Prange alone can be structurally
        # blocked on instances whose solution supports are all singular
        found = None
        for p, l in ((2, 2), (1, 2), (0, 0)):
            if p > w or w - p > n - k - l or p > k + l:
                continue
            res = generalized_isd(h, s, w, IsdParams(p, l, 1000), rng)
            if res.found:
                found = res.solution
                break
        if (found is not None) == expected:
            agreements += 1
        if found is not None:
            solvable_count += 1
            assert found.weight() == w
            assert mat_vec_mul(h, found) == s
    elapsed = time.monotonic() - t0
    ok = agreements == 200 and elapsed < 60
    report(
        4,
        ok,
        f"{agreements}/200 solvability agreements "
        f"({solvable_count} solvable, all validated), {elapsed:.2f}s",
    )


def test_criterion_5_predictor_calibration():
    t0 = time.monotonic()
    configs = (
        (24, 12, 3, 0, 0, 500),
        (24, 12, 4, 1, 2, 600),
        (20, 10, 4, 2, 2, 700),
    )
    details = []
    ok = True
    for n, k, w, p, l, seed in configs:
        predicted = isd_success(n, k, w, p, l).hit_prob
        hits = 0
        iterations = 10_000
        for i in range(iterations):
            rng = random.Random(seed * 1_000_003 + i)
            h, s, _ = plant_instance(n, k, w, rng)
            hits += generalized_isd(h, s, w, IsdParams(p, l, 1), rng).found
        empirical = hits / iterations
        ratio = empirical / float(predicted)
        ok = ok and (1 / 3) <= ratio <= 3
        details.append(f"({n},{k},{w},p={p},l={l}): ratio {ratio:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report(5, ok, f"{'; '.join(details)}, {elapsed:.2f}s")


def _foursum_instance(index):
    # alternate window sizes 6 and 9, keeping k + l <= 9 and p = 3
    rng = random.Random(4000 + index)
    if index % 2 == 0:
        n, k, l, w = 14, 4, 2, 7
    else:
        n, k, l, w = 16, 7, 2, 7
    hash_fn = lambda t: syndrome_hash(b"accept:" + t, n - k)
    while True:
        h = random_full_rank(n - k, n, rng)
        cols = tuple(sorted(rng.sample(range(n), n - k - l)))
        try:
            return build_foursum_instance(h, hash_fn, cols, 3, l, w)
        except ValueError:
            continue


def test_criterion_6_foursum_oracle_equivalence():
    t0 = time.monotonic()
    total = 0
    for index in range(50):
        inst = _foursum_instance(index)
        brute = set()
        for v1 in inst.v1:
            for v2 in inst.v2:
                for v3 in inst.v3:
                    for v4 in inst.v4:
                        sums = (
                            inst.window_syndrome(v1)
                            ^ inst.window_syndrome(v2)
                            ^ inst.window_syndrome(v3)
                        ) == inst.f4(v4)
                        if sums and inst.g(v1, v2, v3, v4):
                            brute.add((v1, v2, v3, v4))
        solved = set(solve_foursum(inst))
        assert solved == brute
        for quad in solved:
            solution = lift_foursum_solution(inst, quad)
            assert solution.e.weight() == inst.w
            assert mat_vec_mul(inst.h, solution.e) == inst.hash_fn(solution.preimage)
        total += len(solved)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    report(6, ok, f"50 instances, {total} solutions matched and lifted, {elapsed:.2f}s")


def toy_params():
    return SchemeParams(n=12, k=6, w=4, lam=8, lam0=24)


def test_criterion_7_reduction_simulation():
    t0 = time.monotonic()
    params = toy_params()
    config = GameConfig(params)
    adversary = OmniscientAdversary(params)
    trials = 2000
    stats4 = run_game(4, adversary, config, trials, random.Random(101))
    f4 = stats4.successes[4] / trials
    stats5 = run_game(
        5, adversary, config, trials, random.Random(102), keep_transcripts=True
    )
    f5 = stats5.successes[5] / trials
    wins = [t for t in stats5.transcripts if t.win]
    extracted = sum(1 for t in wins if extract_doom_solution(t) is not None)
    ratio = f5 / f4
    elapsed = time.monotonic() - t0
    ok = 0.4 <= ratio <= 0.6 and extracted == len(wins) and elapsed < 120
    report(
        7,
        ok,
        f"freq(S5)/freq(S4) = {f5:.4f}/{f4:.4f} = {ratio:.4f} over {trials} "
        f"trials, {extracted}/{len(wins)} wins extracted, {elapsed:.2f}s",
    )


def test_criterion_8_z_oracle_distance_and_surf_report(capsys):
    t0 = time.monotonic()
    n, k, w = 10, 5, 3
    rng = random.Random(800)
    h_pub = random_full_rank(n - k, n, rng)
    counts = syndrome_counts(h_pub, w)
    total, size = sum(counts), 1 << (n - k)
    rho = distance_from_uniform(counts)
    # the Z oracle's half mixture of uniform and the key's law
    mixture = [total + size * c for c in counts]
    exact_identity = distance_from_uniform(mixture) == rho / 2

    code = main(["bound", "--preset", "surf"])
    out = capsys.readouterr().out
    term_count = out.count("term=")
    surfaced = "2^-235" in out and "-223.4210" in out and "-227.28" in out
    elapsed = time.monotonic() - t0
    ok = exact_identity and code == 0 and term_count == 5 and surfaced
    report(
        8,
        ok and elapsed < 30,
        f"mixture distance = rho/2 = {float(rho) / 2:.6f} exactly, "
        f"surf report: {term_count} terms, discrepancy surfaced={surfaced}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_9_mean_j_calls():
    t0 = time.monotonic()
    params = toy_params()
    rng = random.Random(900)
    h_pub = random_full_rank(params.n_k, params.n, rng)
    h = LazyOracle.uniform(params.n_k, random.Random(rng.getrandbits(64)))
    z = ZOracle(h_pub, h, params.w, params.lam0, rng)
    runs = 10_000
    before = len(z.j.table)
    for i in range(runs):
        sign_without_secret(z, f"criterion-9 {i}".encode(), rng)
    mean = (len(z.j.table) - before) / runs
    elapsed = time.monotonic() - t0
    ok = 1.9 <= mean <= 2.1 and elapsed < 60
    report(9, ok, f"mean J-calls {mean:.4f} over {runs} runs, {elapsed:.2f}s")
