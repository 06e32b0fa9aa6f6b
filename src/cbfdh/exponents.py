"""Asymptotic security exponents for syndrome decoding at rate R and
relative weight omega.

All costs are base-2 exponents per code length n, using the standard
entropy approximation log2 C(an, bn) ~ n * a * h(b/a).  The multi-target
quantum exponent models a quantum-walk search whose window enumeration is
pinned to the group size of a four-set sum subroutine: with
beta = log2(window set size)/n, the balance constraint is beta = (5/8) *
lambda_rel, the walk costs (6/5) * beta, and a Grover factor halves the
(capped) per-iteration success exponent.  doom_quantum_exponent minimises
that cost over lambda_rel: a grid search, then a golden-section polish
around the best grid point.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord, set_field

GRID_STEP = 1e-3  # lambda grid step of doom_quantum_exponent, before its polish
ENTROPY_TOL = 1e-12  # absolute tolerance of entropy_inv's bisection

__all__ = [
    "RatePoint",
    "ExponentResult",
    "entropy",
    "entropy_inv",
    "gv_relative_weight",
    "prange_exponent_classical",
    "prange_exponent_quantum",
    "doom_quantum_objective",
    "doom_quantum_exponent",
]


class RatePoint(FrozenRecord):
    """Asymptotic operating point: rate R and relative weight omega."""

    def __init__(self, rate: float, omega: float) -> None:
        if not 0 < rate < 1:
            raise ValueError("rate must lie in (0, 1)")
        if not 0 <= omega <= (1 - rate) / 2:
            raise ValueError("relative weight must lie in [0, (1-R)/2]")
        set_field(self, "rate", rate)
        set_field(self, "omega", omega)


class ExponentResult(FrozenRecord):
    """Minimized exponent with the optimizer's argmin and diagnostics."""

    def __init__(
        self, exponent: float, lambda_rel: float, pi_rel: float, residual: float
    ) -> None:
        set_field(self, "exponent", exponent)
        set_field(self, "lambda_rel", lambda_rel)
        set_field(self, "pi_rel", pi_rel)
        set_field(self, "residual", residual)


def entropy(x: float) -> float:
    """Binary entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def entropy_inv(y: float) -> float:
    """Inverse of h on [0, 1/2] by bisection to ENTROPY_TOL; h^{-1}(0) = 0."""
    if not 0 <= y <= 1:
        raise ValueError(f"entropy value {y} outside [0, 1]")
    if y == 0:
        return 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > ENTROPY_TOL:
        mid = (lo + hi) / 2
        if entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def gv_relative_weight(rate: float) -> float:
    """Gilbert-Varshamov relative weight h^{-1}(1 - R)."""
    if not 0 < rate < 1:
        raise ValueError("rate must lie in (0, 1)")
    return entropy_inv(1 - rate)


def prange_exponent_classical(pt: RatePoint) -> float:
    """Per-bit cost exponent of plain information-set decoding:
    (1 - R) * (1 - h(omega / (1 - R)))."""
    rest = 1 - pt.rate
    return rest * (1 - entropy(pt.omega / rest))


def prange_exponent_quantum(pt: RatePoint) -> float:
    """Grover-accelerated information-set decoding: half the classical cost."""
    return prange_exponent_classical(pt) / 2


def doom_quantum_objective(pt: RatePoint, lambda_rel: float) -> tuple[float, float] | None:
    """Objective value and window weight pi at a given lambda_rel.

    lambda_rel is the window extension l/n.  The window holds R + lambda_rel
    of the coordinates, the set-size exponent is beta = ((R + lambda) / 3) *
    h(pi / (R + lambda)) with pi the relative window weight, and pi is pinned
    by the balance constraint beta = (5/8) * lambda (solved by bisection).
    Returns None when the constraint or weight split is infeasible.
    """
    r, omega = pt.rate, pt.omega
    if not 0 <= lambda_rel < 1 - r:
        return None
    win = r + lambda_rel
    rest = 1 - r - lambda_rel
    target = 15 / 8 * lambda_rel / win  # h(pi / win) needed for balance
    if target > 1:
        return None
    pi = win * entropy_inv(target)
    if pi > omega or omega - pi > rest:
        return None
    beta = 5 / 8 * lambda_rel
    # per-iteration success exponent, capped at 0 (probabilities <= 1):
    # C(win*n, pi*n) * C(rest*n, (omega-pi)*n) * 2^{beta*n} / 2^{(1-R)*n}
    p_exp = (
        win * entropy(pi / win)
        + (rest * entropy((omega - pi) / rest) if rest > 0 else 0.0)
        + beta
        - (1 - r)
    )
    value = 6 / 5 * beta - min(0.0, p_exp) / 2
    return value, pi


def _golden_section(func, lo: float, hi: float, xatol: float) -> float:
    """Golden-section search for a minimum of ``func`` on [lo, hi].

    Shrinks the bracket by 1/phi per evaluation until it is at most
    ``xatol`` wide and returns the better of the two interior points.  An
    ``inf`` value counts as worse than any finite one, so a bracket that is
    infeasible on one side closes in on the feasible side.
    """
    shrink = (math.sqrt(5.0) - 1) / 2
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = func(c), func(d)
    while hi - lo > xatol:
        if fc <= fd:  # a minimum lies in [lo, d]
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = func(c)
        else:  # a minimum lies in [c, hi]
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = func(d)
    return c if fc <= fd else d


def doom_quantum_exponent(pt: RatePoint) -> ExponentResult:
    """Minimize the multi-target quantum decoding exponent over lambda_rel.

    A grid of step about GRID_STEP over [0, 1 - R), then a golden-section
    polish on the best grid point +- 2 steps; the grid point stands when the
    polish does worse.  The grid holds lambda = 0, where the objective is
    quantum Prange, so every rate point is feasible.  The residual reports
    how tightly the balance constraint beta = (5/8) * lambda holds at the
    reported argmin.
    """
    r = pt.rate

    def penalized(lam: float) -> float:
        got = doom_quantum_objective(pt, lam)
        return got[0] if got is not None else math.inf

    grid_n = max(2, int(round((1 - r) / GRID_STEP)))
    grid = [i * (1 - r) / grid_n for i in range(grid_n)]
    best_val, best_lam = min((penalized(lam), lam) for lam in grid)
    step = (1 - r) / grid_n
    lo = max(0.0, best_lam - 2 * step)
    hi = min((1 - r) * (1 - 1e-12), best_lam + 2 * step)
    lam = _golden_section(penalized, lo, hi, 1e-12)
    if penalized(lam) > best_val:
        lam = best_lam
    value, pi = doom_quantum_objective(pt, lam)
    win = r + lam
    beta_check = win / 3 * entropy(pi / win)
    return ExponentResult(
        exponent=value,
        lambda_rel=lam,
        pi_rel=pi,
        residual=abs(beta_check - 5 / 8 * lam),
    )
