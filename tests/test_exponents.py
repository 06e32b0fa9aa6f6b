import functools
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


def test_doom_quantum_reference_values():
    low = doom_quantum_exponent(RatePoint(0.5, 0.11))
    high = doom_quantum_exponent(RatePoint(0.5, 0.190899))
    assert abs(low.exponent - 0.056683) < 1e-3
    assert abs(high.exponent - 0.009159) < 1e-3
    assert low.residual < 1e-15
    assert high.residual < 1e-15


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
            assert doom_quantum_exponent(pt).residual < 1e-15, (rate, frac)


def test_doom_at_zero_weight_is_quantum_prange():
    # only lambda = 0 is feasible: the window must carry weight 0
    for rate in (0.1, 0.5, 0.9):
        pt = RatePoint(rate, 0.0)
        res = doom_quantum_exponent(pt)
        assert res.lambda_rel == 0.0
        assert abs(res.exponent - prange_exponent_quantum(pt)) < 1e-12


def test_doom_never_exceeds_quantum_prange():
    r = 0.5
    gv = gv_relative_weight(r)
    top = (1 - r) / 2
    for i in range(12):
        omega = gv + (top - gv) * (i + 0.5) / 12
        pt = RatePoint(r, omega)
        res = doom_quantum_exponent(pt)
        assert res.exponent <= prange_exponent_quantum(pt) + 1e-9


def test_doom_grid_halving_stability(monkeypatch):
    pt = RatePoint(0.5, 0.17)
    a = doom_quantum_exponent(pt).exponent
    monkeypatch.setattr(exponents, "GRID_STEP", exponents.GRID_STEP / 2)
    b = doom_quantum_exponent(pt).exponent
    assert abs(a - b) < 1e-6


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


def test_golden_section_polish_matches_scipy_bounded_brent(monkeypatch):
    """At every rate 0.01..0.99, at two weights each, the exponent polished
    by golden-section search lies within 1e-9 of the one polished by scipy's
    bounded Brent (the independent oracle) on the same bracket and is never
    worse than it by more than 1e-12; the six decimals printed at these 198
    points are pinned by SWEEP_DIGEST.  (The two polishes need not print
    the same decimals: at (0.25, 0.31875) the minimum lies 3.5e-12 below the
    rounding boundary 0.0057035.)"""
    search = exponents._golden_section

    def scipy_bounded(func, lo, hi, xatol):
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        return float(res.x)

    # the objective is pure: the oracle's run reads the grid values of ours
    objective = functools.lru_cache(maxsize=None)(exponents.doom_quantum_objective)
    monkeypatch.setattr(exponents, "doom_quantum_objective", objective)
    printed = []
    for i in range(1, 100):
        rate = i / 100
        for frac in (0.35, 0.85):
            pt = RatePoint(rate, (1 - rate) / 2 * frac)
            ours = exponents.doom_quantum_exponent(pt).exponent
            monkeypatch.setattr(exponents, "_golden_section", scipy_bounded)
            oracle = exponents.doom_quantum_exponent(pt).exponent
            monkeypatch.setattr(exponents, "_golden_section", search)
            objective.cache_clear()
            assert abs(ours - oracle) < 1e-9, (rate, pt.omega)
            assert ours <= oracle + 1e-12, (rate, pt.omega)
            printed.append(f"{ours:.6f}")
    digest = hashlib.sha256("\n".join(printed).encode()).hexdigest()
    assert digest == SWEEP_DIGEST
