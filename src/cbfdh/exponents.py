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

Theorem 1's loss bound lives here too: :func:`theorem1_bound_log2`, its
side-condition check, and the SURF parameter preset it is evaluated at.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord, set_fields

GRID_STEP = 1e-3  # lambda grid step of doom_quantum_exponent, before its polish
ENTROPY_TOL = 1e-12  # absolute tolerance of entropy_inv in x
# [0, 1/2] halved until a cell is at most ENTROPY_TOL wide: 2^39 of 2^-40
_CELLS = 2 ** math.ceil(math.log2(0.5 / ENTROPY_TOL))
_CELL = 0.5 / _CELLS

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
    "ReductionBound",
    "theorem1_bound_log2",
    "ConditionItem",
]


class RatePoint(FrozenRecord):
    """Asymptotic operating point: rate R and relative weight omega."""

    def __init__(self, rate: float, omega: float) -> None:
        if not 0 < rate < 1:
            raise ValueError("rate must lie in (0, 1)")
        if not 0 <= omega <= (1 - rate) / 2:
            raise ValueError("relative weight must lie in [0, (1-R)/2]")
        set_fields(self, locals())


class ExponentResult(FrozenRecord):
    """Minimized exponent with the optimizer's argmin and diagnostics."""

    def __init__(
        self, exponent: float, lambda_rel: float, pi_rel: float, residual: float
    ) -> None:
        set_fields(self, locals())


def entropy(x: float) -> float:
    """Binary entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def entropy_inv(y: float) -> float:
    """Inverse of h on [0, 1/2]; h^{-1}(0) = 0.

    Returns what bisection of [0, 1/2] to ENTROPY_TOL returns, the midpoint
    of the root's cell, but finds the root by Newton steps on h(x) - y.
    They start below it, at Topsoe's bound h(x) <= (4x(1-x))^(1/ln 4),
    bisect the bracket whenever a step leaves it, and stop at a step of at
    most ENTROPY_TOL.  Bisection then runs only within the smallest of its
    brackets that holds the root with a margin 20 times the rounding error
    of h: none where h is steep, all of [0, 1/2] where h is flat near 1/2.
    """
    if not 0 <= y <= 1:
        raise ValueError(f"entropy value {y} outside [0, 1]")
    if y == 0:
        return 0.0
    lo, hi = 0.0, 0.5
    u = y ** math.log(4)
    x = u / (2 + 2 * math.sqrt(1 - u))
    while hi - lo > ENTROPY_TOL:
        if not lo < x < hi:
            x = (lo + hi) / 2
        lx, lx1 = math.log2(x), math.log2(1 - x)
        f = -x * lx - (1 - x) * lx1 - y  # h(x) - y, as entropy() rounds h
        if f < 0:
            lo = x
        else:
            hi = x
        step = f / (lx1 - lx)
        x -= step
        if abs(step) <= ENTROPY_TOL:
            break
    reach = 1e-14 / (lx1 - lx) + abs(step)
    a = max(int((x - reach) / _CELL), 0)
    b = min(int((x + reach) / _CELL), _CELLS - 1)
    s = (a ^ b).bit_length()  # bisection's bracket of 2^s cells holding both
    lo, hi = (a >> s << s) * _CELL, ((a >> s) + 1 << s) * _CELL
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


# --- the Theorem 1 loss bound ------------------------------------------------------

ZHANDRY_CONSTANT = 8 * math.pi / math.sqrt(3)

# SURF's parameters at lambda = 128, its estimate's bound inputs and oracle-swap term
SURF_PRESET = {
    "n": 13976,
    "k": 6988,
    "k_u": 4320,
    "k_v": 2668,
    "w": 2668,
    "lam": 128,
    "eps_doom": "2^-128",
    "dist": "0",
    "exp_rho_pub": "2^-838.56",
    "rho_sign": "0",
    "q_hash": "2^128",
    "q_sign": "2^64",
    "zhandry_reference_log2": -235,
}


def _log2_sum(terms: list[float]) -> float:
    finite = [t for t in terms if t != -math.inf]
    if not finite:
        return -math.inf
    top = max(finite)
    return top + math.log2(sum(2.0 ** (t - top) for t in finite))


class ConditionItem(FrozenRecord):
    def __init__(
        self, index: int, label: str, value_log2: float, threshold_log2: float,
        passed: bool,
    ) -> None:
        set_fields(self, locals())


class ReductionBound(FrozenRecord):
    """The master forgery bound as five log2-domain terms plus their sum.

    Terms: doubled multi-target decoding success, key-distinguishing
    advantage, the q^(3/2) oracle-swap cost (``zhandry_preconstant`` before
    its 8 pi / sqrt 3 factor), accumulated signing leakage and the
    salt-birthday floor.  ``condition_item`` tags each term with the
    side-condition item it must satisfy (None: hardness assumption or
    parameter choice, not a side condition)."""

    CONDITION_ITEMS: dict[str, int | None] = {
        "doom_term": None,
        "distinguisher_term": 3,
        "zhandry_term": 1,
        "signing_term": 2,
        "birthday_term": None,
    }

    def __init__(
        self, doom_term: float, distinguisher_term: float,
        zhandry_preconstant: float, zhandry_term: float, signing_term: float,
        birthday_term: float, total: float,
    ) -> None:
        set_fields(self, locals())

    def terms(self) -> list[tuple[str, float, int | None]]:
        """(name, log2 value, side-condition item) in bound order."""
        return [
            (name, getattr(self, name), item)
            for name, item in self.CONDITION_ITEMS.items()
        ]

    def side_conditions(self) -> tuple[ConditionItem, ConditionItem]:
        """Items 1 and 2: the oracle-swap and signing terms against Theorem
        1's threshold 2^(-lam/2), half the birthday term's exponent."""
        thr = self.birthday_term / 2
        return (
            ConditionItem(
                1, "oracle-swap term small", self.zhandry_term, thr,
                self.zhandry_term <= thr,
            ),
            ConditionItem(
                2, "signing leakage small", self.signing_term, thr,
                self.signing_term <= thr,
            ),
        )


def theorem1_bound_log2(
    log2_eps_doom: float,
    log2_dist: float,
    log2_exp_rho_pub: float,
    log2_rho_sign: float,
    log2_q_hash: float,
    log2_q_sign: float,
    lam: float,
) -> ReductionBound:
    """Master bound on forgery success from its five ingredients, each
    given in log2 form (-inf for an exact zero) so that cryptographic sizes
    do not underflow: 2*eps_doom + dist + (8 pi / sqrt 3) q_hash^(3/2)
    sqrt(E[rho_pub]) + q_sign*rho_sign + 2^-lam, term by term, and the
    oracle-swap pre-constant q_hash^(3/2) sqrt(E[rho_pub]) evaluated once.

    Raises ValueError unless each probability is at most 2^0, each query
    count is 0 or a finite count of at least 1 and lam is nonnegative; NaN
    fails every check.
    """
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    for name, value in (
        ("eps_doom", log2_eps_doom),
        ("dist", log2_dist),
        ("exp_rho_pub", log2_exp_rho_pub),
        ("rho_sign", log2_rho_sign),
    ):
        if not value <= 0.0:
            raise ValueError(f"{name} must be a probability, got 2^{value}")
    for name, value in (("q_hash", log2_q_hash), ("q_sign", log2_q_sign)):
        if not (value == -math.inf or 0.0 <= value < math.inf):
            raise ValueError(
                f"{name} must be 0 or a finite count of at least 1, got 2^{value}"
            )
    doom = 1.0 + log2_eps_doom
    dist = log2_dist
    # -inf when q_hash or E[rho_pub] is 0: the checks above leave no +inf
    pre_constant = 1.5 * log2_q_hash + 0.5 * log2_exp_rho_pub
    zhandry = math.log2(ZHANDRY_CONSTANT) + pre_constant
    signing = log2_q_sign + log2_rho_sign
    birthday = -float(lam)
    total = _log2_sum([doom, dist, zhandry, signing, birthday])
    return ReductionBound(doom, dist, pre_constant, zhandry, signing, birthday, total)

