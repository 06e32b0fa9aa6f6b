"""Asymptotic security exponents for syndrome decoding at rate R and
relative weight omega.

All costs are base-2 exponents per code length n, using the standard
entropy approximation log2 C(an, bn) ~ n * a * h(b/a).  The multi-target
quantum exponent models a quantum-walk search whose window enumeration is
pinned to the group size of a four-set sum subroutine: with
beta = log2(window set size)/n, the balance constraint is beta = (5/8) *
lambda_rel, the walk costs (6/5) * beta, and a Grover factor halves the
(capped) per-iteration success exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RatePoint",
    "ExponentResult",
    "entropy",
    "entropy_inv",
    "gv_relative_weight",
    "gv_bound",
    "prange_exponent_classical",
    "prange_exponent_quantum",
    "doom_quantum_objective",
    "doom_quantum_exponent",
]


@dataclass(frozen=True)
class RatePoint:
    """Asymptotic operating point: rate R and relative weight omega."""

    rate: float
    omega: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < 1:
            raise ValueError("rate must lie in (0, 1)")
        if not 0 <= self.omega <= (1 - self.rate) / 2:
            raise ValueError("relative weight must lie in [0, (1-R)/2]")


@dataclass(frozen=True)
class ExponentResult:
    """Minimized exponent with the optimizer's argmin and diagnostics."""

    exponent: float
    lambda_rel: float
    pi_rel: float
    residual: float


def entropy(x: float) -> float:
    """Binary entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def entropy_inv(y: float, tol: float = 1e-12) -> float:
    """Inverse of h on [0, 1/2] by bisection to absolute tolerance."""
    if not 0 <= y <= 1:
        raise ValueError(f"entropy value {y} outside [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
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


def gv_bound(n: int, k: int) -> float:
    """Gilbert-Varshamov distance n * h^{-1}(1 - k/n), as a real number."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    return n * gv_relative_weight(k / n)


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


def _fminbound(func, lo: float, hi: float, xatol: float) -> float:
    """Brent's bounded minimisation of ``func`` on [lo, hi].

    A step-for-step port of scipy's ``minimize_scalar(method="bounded")``
    (same constants, steps, float operation order and 500-evaluation cap),
    so it returns the same argmin to the last bit.  Its step sign is
    np.sign(d) + (d == 0), i.e. +1 at zero.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def doom_quantum_exponent(pt: RatePoint, grid_step: float = 1e-3) -> ExponentResult:
    """Minimize the multi-target quantum decoding exponent over lambda_rel.

    Coarse grid over [0, 1 - R) followed by a bounded scalar polish around
    the best grid point.  The residual reports how tightly the balance
    constraint beta = (5/8) * lambda holds at the reported argmin.
    """
    r = pt.rate
    grid_n = max(2, int(round((1 - r) / grid_step)))
    best_lam, best_val = None, math.inf
    for i in range(grid_n):
        lam = i * (1 - r) / grid_n
        got = doom_quantum_objective(pt, lam)
        if got is not None and got[0] < best_val:
            best_val, best_lam = got[0], lam
    if best_lam is None:
        raise ValueError("no feasible lambda for this rate point")
    step = (1 - r) / grid_n
    lo = max(0.0, best_lam - 2 * step)
    hi = min((1 - r) * (1 - 1e-12), best_lam + 2 * step)

    def penalized(lam: float) -> float:
        got = doom_quantum_objective(pt, lam)
        return got[0] if got is not None else math.inf

    lam = _fminbound(penalized, lo, hi, 1e-12)
    got = doom_quantum_objective(pt, lam)
    if got is None or got[0] > best_val:
        lam = best_lam
        got = doom_quantum_objective(pt, lam)
    assert got is not None
    value, pi = got
    win = r + lam
    beta_check = win / 3 * entropy(pi / win) if win else 0.0
    return ExponentResult(
        exponent=value,
        lambda_rel=lam,
        pi_rel=pi,
        residual=abs(beta_check - 5 / 8 * lam),
    )
