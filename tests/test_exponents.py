import hashlib
import math
import random
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from cbfdh import exponents
from cbfdh.exponents import (
    RatePoint,
    doom_quantum_exponent,
    doom_quantum_objective,
    entropy,
    entropy_inv,
    gv_relative_weight,
    prange_exponent_classical,
    prange_exponent_quantum,
)


def test_entropy_endpoints_and_midpoint():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0
    with pytest.raises(ValueError):
        entropy(-0.1)
    with pytest.raises(ValueError):
        entropy(1.1)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_entropy_symmetry(x):
    assert abs(entropy(x) - entropy(1 - x)) < 1e-12


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_entropy_inverse_round_trip(y):
    x = entropy_inv(y)
    assert 0 <= x <= 0.5
    assert abs(entropy(x) - y) < 1e-9


def test_entropy_inv_zero_is_exact():
    assert entropy_inv(0.0) == 0.0


def test_entropy_inv_half_matches_independent_solver():
    # independent oracle: bracketing root finder on h(x) - 1/2
    oracle = brentq(lambda x: entropy(x) - 0.5, 1e-12, 0.5, xtol=1e-13)
    assert abs(entropy_inv(0.5) - oracle) < 1e-10
    assert abs(entropy_inv(0.5) - 0.110028) < 1e-5


def test_entropy_inv_matches_brentq_sweep():
    # independent oracle: scipy's bracketing root finder on h(x) - y
    for i in range(1, 991):
        y = i / 1000
        oracle = brentq(lambda x: entropy(x) - y, 0.0, 0.5, xtol=1e-15)
        assert abs(entropy_inv(y) - oracle) <= 1e-12, y


def test_entropy_inv_at_the_ends():
    # where h is flat, the root is pinned by h(x) = y rather than by x
    for y in (1 - 1e-12, 1.0):
        assert abs(entropy(entropy_inv(y)) - y) <= 1e-12, y
    # at y = 1e-300 the root is about 1e-303; the answer is bisection's,
    # the midpoint 2^-41 of the first cell, within the tolerance in x but
    # about 2e-11 from y in h, so only x is checked here
    assert entropy_inv(1e-300) <= exponents.ENTROPY_TOL


def bisection_inverse(y):
    """h^{-1}(y) by bisection of [0, 1/2] to ENTROPY_TOL, written out
    here so that the tests hold an inverse of their own."""
    lo, hi = 0.0, 0.5
    while hi - lo > exponents.ENTROPY_TOL:
        mid = (lo + hi) / 2
        if entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_entropy_inv_returns_the_bisection_float():
    """The echo of ``exponents --rate`` prints the GV weight in full, so
    entropy_inv must return this float to the bit: across the range, in the
    first cell, near 1 where h is flat, and at values of h on the cell
    edges themselves."""
    rng = random.Random(7)
    cells = [rng.randrange(1, 2**39) * 2.0**-40 for _ in range(300)]
    ys = [
        *(rng.random() for _ in range(1500)),
        *(10 ** -rng.uniform(11, 40) for _ in range(100)),
        *(1 - 10 ** -rng.uniform(0, 16) for _ in range(300)),
        *(entropy(edge) for edge in cells),
        *(math.nextafter(entropy(edge), 1.0) for edge in cells),
        5e-324, 1e-300, 0.5, 1 - 1e-12, 1.0,
    ]
    for y in ys:
        assert entropy_inv(y) == bisection_inverse(y), y


def test_gv_bound_values():
    assert abs(gv_relative_weight(0.5) - 0.1100278644) < 1e-9
    d_gv = 13976 * gv_relative_weight(6988 / 13976)
    assert abs(d_gv - 1537.7494) < 1e-3
    # the reference parameter set decodes clearly above the GV distance
    assert 2668 > d_gv


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint(0.0, 0.1)
    with pytest.raises(ValueError):
        RatePoint(0.5, 0.26)  # above (1-R)/2
    RatePoint(0.5, 0.25)


def test_prange_exponents_reference_values():
    low = RatePoint(0.5, 0.11)
    high = RatePoint(0.5, 0.190899)
    assert abs(prange_exponent_classical(low) - 0.1199) < 5e-4
    assert abs(prange_exponent_classical(high) - 0.02029) < 5e-4
    assert abs(prange_exponent_quantum(low) - 0.059958) < 5e-4
    assert abs(prange_exponent_quantum(high) - 0.010139) < 5e-4


def balance_residual(rate, res):
    """How far the argmin misses the balance constraint beta = (5/8) *
    lambda: |(R + lambda)/3 * h(pi / (R + lambda)) - (5/8) * lambda|."""
    win = rate + res.lambda_rel
    return abs(win / 3 * entropy(res.pi_rel / win) - 5 / 8 * res.lambda_rel)


def test_doom_quantum_reference_values():
    low = doom_quantum_exponent(RatePoint(0.5, 0.11))
    high = doom_quantum_exponent(RatePoint(0.5, 0.190899))
    assert abs(low.exponent - 0.056683) < 1e-3
    assert abs(high.exponent - 0.009159) < 1e-3
    assert balance_residual(0.5, low) < 1e-15
    assert balance_residual(0.5, high) < 1e-15


# doom_quantum_exponent at 6 decimals as bisection-based entropy_inv gave
# them: a GV-relative weight below (unique-solution regime) and above
# (many-solutions regime) the GV weight at seven rates, plus the two rows of
# the exponents command
PINNED_DOOM_EXPONENTS = [
    (0.05, 0.221477, "0.102521"),
    (0.05, 0.432651, "0.002628"),
    (0.2, 0.145802, "0.124907"),
    (0.2, 0.337202, "0.006681"),
    (0.35, 0.099994, "0.122129"),
    (0.35, 0.261663, "0.008235"),
    (0.5, 0.066017, "0.107410"),
    (0.5, 0.194011, "0.008261"),
    (0.5, 0.11, "0.056684"),
    (0.5, 0.190899, "0.009191"),
    (0.65, 0.039472, "0.084162"),
    (0.65, 0.131315, "0.007097"),
    (0.8, 0.018675, "0.053549"),
    (0.8, 0.07245, "0.004873"),
    (0.95, 0.003364, "0.015198"),
    (0.95, 0.017243, "0.001511"),
]


@pytest.mark.parametrize("rate, omega, pinned", PINNED_DOOM_EXPONENTS)
def test_doom_quantum_exponent_pinned(rate, omega, pinned):
    assert f"{doom_quantum_exponent(RatePoint(rate, omega)).exponent:.6f}" == pinned


def test_doom_objective_at_zero_matches_quantum_prange():
    pt = RatePoint(0.5, 0.13)
    got = doom_quantum_objective(pt, 0.0)
    assert got is not None
    assert got[1:] == (0.0, 0.0)
    assert abs(got[0] - prange_exponent_quantum(pt)) < 1e-9


def test_closed_form_window_extension_matches_the_inversion():
    """lambda(tau) from the objective's closed form solves the balance
    constraint as inverting h did: at five rates and tau over (0, 1/2],
    wherever lambda < 1 - R, bisection_inverse(15/8 * lambda / (R +
    lambda)) gives tau back within ENTROPY_TOL where h is steep enough to
    pin it (tau <= 0.4), and h(tau) within 1e-11 everywhere."""
    checked = 0
    for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
        for i in range(1, 501):
            tau = i / 1000
            h = entropy(tau)
            lam = 8 * rate * h / (15 - 8 * h)
            if not lam < 1 - rate:
                continue
            # lambda and pi do not depend on omega; this one splits the
            # weight feasibly, though it may lie above RatePoint's (1 - R)/2
            pi, rest = (rate + lam) * tau, 1 - rate - lam
            pt = types.SimpleNamespace(rate=rate, omega=pi + rest / 2)
            _, lambda_rel, pi_rel = doom_quantum_objective(pt, tau)
            assert pi_rel == (rate + lambda_rel) * tau
            inverted = bisection_inverse(15 / 8 * lambda_rel / (rate + lambda_rel))
            if tau <= 0.4:
                assert abs(inverted - tau) <= exponents.ENTROPY_TOL, (rate, tau)
            assert abs(entropy(inverted) - h) < 1e-11, (rate, tau)
            checked += 1
    assert checked > 1400


def test_doom_balance_residual_is_rounding_only():
    for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
        for frac in (0.0, 0.1, 0.35, 0.5, 0.85, 1.0):
            pt = RatePoint(rate, (1 - rate) / 2 * frac)
            res = doom_quantum_exponent(pt)
            assert balance_residual(rate, res) < 1e-15, (rate, frac)


def test_doom_at_zero_weight_is_quantum_prange():
    # only lambda = 0 is feasible: the window must carry weight 0
    for rate in (0.1, 0.5, 0.9):
        pt = RatePoint(rate, 0.0)
        res = doom_quantum_exponent(pt)
        assert res.lambda_rel == 0.0
        assert abs(res.exponent - prange_exponent_quantum(pt)) < 1e-12


def test_doom_never_exceeds_quantum_prange():
    # tau = 0 is quantum Prange, and the search keeps it unless it finds
    # better, so the bound holds exactly
    gv = gv_relative_weight(0.5)
    points = [(0.5, gv + (0.25 - gv) * (i + 0.5) / 12) for i in range(12)]
    points += [
        (i / 100, (1 - i / 100) / 2 * frac)
        for i in range(1, 100)
        for frac in (0.0, 0.1, 0.35, 0.5, 0.85, 1.0)
    ]
    for rate, omega in points:
        pt = RatePoint(rate, omega)
        res = doom_quantum_exponent(pt)
        assert res.exponent <= prange_exponent_quantum(pt), (rate, omega)


def sweep_points():
    """The 198 points of the sweep: rates 0.01..0.99, each at 0.35 and 0.85
    of the top weight (1 - R)/2."""
    return [
        RatePoint(i / 100, (1 - i / 100) / 2 * frac)
        for i in range(1, 100)
        for frac in (0.35, 0.85)
    ]


def test_doom_objective_is_unimodal_on_a_feasible_run_from_zero():
    """The property that makes one golden-section search enough: on a
    1,001-point tau scan of [0, 1/2] the finite values form one run that
    starts at tau = 0 and never falls once it has risen, and the search
    finds at least the scan's minimum."""
    points = sweep_points() + [
        RatePoint(rate, omega)
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9)
        for omega in (0.0, (1 - rate) / 2)
    ]
    for pt in points:
        scan = [doom_quantum_objective(pt, i / 2000) for i in range(1001)]
        values = [got[0] for got in scan if got is not None]
        feasible = [got is not None for got in scan]
        assert feasible == [True] * len(values) + [False] * (1001 - len(values)), pt
        steps = [b - a for a, b in zip(values, values[1:])]
        risen = next((i for i, d in enumerate(steps) if d > 0), len(steps))
        assert all(d >= 0 for d in steps[risen:]), pt
        assert doom_quantum_exponent(pt).exponent <= min(values) + 1e-12, pt


@pytest.mark.parametrize("omega", [0.190899, 0.0])
def test_doom_exponent_call_budget(monkeypatch, omega):
    calls = []
    objective = exponents.doom_quantum_objective

    def counting(pt, tau):
        calls.append(tau)
        return objective(pt, tau)

    monkeypatch.setattr(exponents, "doom_quantum_objective", counting)
    doom_quantum_exponent(RatePoint(0.5, omega))
    assert 0 < len(calls) <= 64


def test_exponent_table_runtime_budget():
    start = time.time()
    for omega in (0.11, 0.190899):
        pt = RatePoint(0.5, omega)
        prange_exponent_classical(pt)
        prange_exponent_quantum(pt)
        doom_quantum_exponent(pt)
    assert time.time() - start < 10.0


def test_exponent_continuity_in_omega():
    r = 0.5
    prev = None
    for i in range(40):
        omega = 0.12 + i * 0.003
        val = doom_quantum_exponent(RatePoint(r, omega)).exponent
        if prev is not None:
            assert abs(val - prev) < 0.01
        prev = val


def test_golden_section_finds_parabola_minimum():
    x = exponents._golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-12)
    assert abs(x - 0.3) < 1e-9


def test_golden_section_finds_kink():
    c = 0.123456789
    x = exponents._golden_section(lambda x: abs(x - c), 0.1, 0.2, 1e-12)
    assert abs(x - c) < 2e-12


def test_golden_section_closes_on_the_finite_side():
    # the minimum sits on the edge of the feasible region, as the penalised
    # objective's does where the weight split stops being feasible
    edge = 0.4
    left = exponents._golden_section(
        lambda x: -x if x <= edge else math.inf, 0.3, 0.5, 1e-12)
    right = exponents._golden_section(
        lambda x: x if x >= edge else math.inf, 0.3, 0.5, 1e-12)
    assert edge - 1e-12 <= left <= edge
    assert edge <= right <= edge + 1e-12


def test_golden_section_all_inf_bracket_stays_inside():
    calls = []

    def infeasible(x):
        calls.append(x)
        return math.inf

    x = exponents._golden_section(infeasible, 0.2, 0.3, 1e-12)
    assert 0.2 <= x <= 0.3
    assert all(0.2 <= c <= 0.3 for c in calls)
    assert len(calls) < 100


# SHA-256 of the 198 exponents of the sweep below at six decimals, joined by
# newlines in sweep order, as the lambda-grid objective printed them
SWEEP_DIGEST = "3619767cf3caa94c289e1b1d4b9de74fd541af84eeaba3856380cc7f53e46ebd"


def grid_and_brent_exponent(pt):
    """The exponent by a 1e-3 tau grid over [0, 1/2], then scipy's bounded
    Brent on the best grid point +- 2 steps; the grid point stands when
    Brent does worse."""

    def penalized(tau):
        got = doom_quantum_objective(pt, tau)
        return got[0] if got is not None else math.inf

    step = 1e-3
    best_val, best_tau = min((penalized(i * step), i * step) for i in range(501))
    res = minimize_scalar(
        penalized, method="bounded", options={"xatol": 1e-12},
        bounds=(max(0.0, best_tau - 2 * step), min(0.5, best_tau + 2 * step)))
    return min(best_val, penalized(float(res.x)))


def test_golden_section_polish_matches_scipy_bounded_brent():
    """At every rate 0.01..0.99, at two weights each, the exponent found by
    one golden-section search lies within 1e-9 of the one a grid and
    scipy's bounded Brent find (the independent oracle) and is never worse
    than it by more than 1e-12; the six decimals printed at these 198
    points are pinned by SWEEP_DIGEST.  (Brent alone on [0, 1/2] is no
    oracle: with the infeasible region as inf it misses the minimum at 104
    of these points.)"""
    printed = []
    for pt in sweep_points():
        ours = doom_quantum_exponent(pt).exponent
        oracle = grid_and_brent_exponent(pt)
        assert abs(ours - oracle) < 1e-9, (pt.rate, pt.omega)
        assert ours <= oracle + 1e-12, (pt.rate, pt.omega)
        printed.append(f"{ours:.6f}")
    digest = hashlib.sha256("\n".join(printed).encode()).hexdigest()
    assert digest == SWEEP_DIGEST
