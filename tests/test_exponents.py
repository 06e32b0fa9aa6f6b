import math
import time

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
    gv_bound,
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


def test_entropy_inv_half_matches_independent_solver():
    # independent oracle: bracketing root finder on h(x) - 1/2
    oracle = brentq(lambda x: entropy(x) - 0.5, 1e-12, 0.5, xtol=1e-13)
    assert abs(entropy_inv(0.5) - oracle) < 1e-10
    assert abs(entropy_inv(0.5) - 0.110028) < 1e-5


def test_gv_bound_values():
    assert abs(gv_relative_weight(0.5) - 0.1100278644) < 1e-9
    assert abs(gv_bound(13976, 6988) - 1537.7494) < 1e-3
    # the reference parameter set decodes clearly above the GV distance
    assert 2668 > gv_bound(13976, 6988)
    with pytest.raises(ValueError):
        gv_bound(10, 0)


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
    assert low.residual < 1e-9
    assert high.residual < 1e-9


def test_doom_objective_at_zero_matches_quantum_prange():
    pt = RatePoint(0.5, 0.13)
    got = doom_quantum_objective(pt, 0.0)
    assert got is not None
    assert abs(got[0] - prange_exponent_quantum(pt)) < 1e-9


def test_doom_never_exceeds_quantum_prange():
    r = 0.5
    gv = gv_relative_weight(r)
    top = (1 - r) / 2
    for i in range(12):
        omega = gv + (top - gv) * (i + 0.5) / 12
        pt = RatePoint(r, omega)
        res = doom_quantum_exponent(pt)
        assert res.exponent <= prange_exponent_quantum(pt) + 1e-9


def test_doom_grid_halving_stability():
    pt = RatePoint(0.5, 0.17)
    a = doom_quantum_exponent(pt, grid_step=1e-3).exponent
    b = doom_quantum_exponent(pt, grid_step=5e-4).exponent
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


# an all-inf penalty window gives inf - inf in scipy's parabola; both sides
# then take the golden step, so the warning is expected
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fminbound_port_matches_scipy_bounded_brent(monkeypatch):
    """The pure-Python polish is exact: over a grid of rate points,
    doom_quantum_exponent returns the same floats (or raises the same
    error) as with scipy's bounded Brent, the independent oracle."""

    def scipy_fminbound(func, lo, hi, xatol):
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        return float(res.x)

    port = exponents._fminbound
    objective = exponents.doom_quantum_objective

    def outcome(pt, fminbound):
        monkeypatch.setattr(exponents, "_fminbound", fminbound)
        try:
            return exponents.doom_quantum_exponent(pt)
        except ValueError as err:
            return str(err)

    infeasible = 0
    for i in range(1, 100):
        rate = i / 100
        for j in range(21):
            pt = RatePoint(rate, (1 - rate) / 2 * (j / 20))
            # the objective is pure: the second run reads the first's values
            memo = {}

            def memo_objective(pt_, lam):
                if lam not in memo:
                    memo[lam] = objective(pt_, lam)
                return memo[lam]

            monkeypatch.setattr(exponents, "doom_quantum_objective", memo_objective)
            ours = outcome(pt, port)
            oracle = outcome(pt, scipy_fminbound)
            assert ours == oracle, (rate, pt.omega)
            infeasible += isinstance(ours, str)
    assert infeasible == 99  # omega = 0 has no feasible window weight
