"""Asymptotic security exponents for syndrome decoding at rate R and
relative weight omega.

All costs are base-2 exponents per code length n, using the standard
entropy approximation log2 C(an, bn) ~ n * a * h(b/a).  The multi-target
quantum exponent models a quantum-walk search whose window enumeration is
pinned to the group size of a four-set sum subroutine: with
beta = log2(window set size)/n, the balance constraint is beta = (5/8) *
lambda_rel, the walk costs (6/5) * beta, and a Grover factor halves the
(capped) per-iteration success exponent.  doom_quantum_exponent minimises
that cost over the window's relative weight tau, which fixes lambda_rel in
closed form through the balance constraint.  The cost is unimodal on its
feasible tau interval, which starts at tau = 0, so one golden-section search
over [0, 1/2] finds its minimum.

Theorem 1's loss bound lives here too: :func:`theorem1_bound_log2`, its
side-condition check, and the SURF parameter preset it is evaluated at.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord, set_fields

ENTROPY_TOL = 1e-12  # absolute tolerance of entropy_inv in x

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
    """Minimized exponent with the optimizer's argmin."""

    def __init__(self, exponent: float, lambda_rel: float, pi_rel: float) -> None:
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

    Bisection of [0, 1/2] until the bracket is at most ENTROPY_TOL wide
    (39 halvings); returns the midpoint of the bracket that holds the root.
    """
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


def doom_quantum_objective(
    pt: RatePoint, tau: float
) -> tuple[float, float, float] | None:
    """Objective value, lambda_rel and window weight pi at window ratio tau.

    tau = pi / (R + lambda_rel) is the relative weight of the window, which
    holds R + lambda_rel of the coordinates (lambda_rel = l/n is the window
    extension).  The set-size exponent beta = ((R + lambda) / 3) * h(tau)
    meets the balance constraint beta = (5/8) * lambda at lambda = 8R h(tau)
    / (15 - 8 h(tau)), which rises with tau from 0 at tau = 0.  Returns
    None when lambda >= 1 - R or the weight split is infeasible.
    """
    r, omega = pt.rate, pt.omega
    h = entropy(tau)
    lambda_rel = 8 * r * h / (15 - 8 * h)
    if lambda_rel >= 1 - r:
        return None
    win = r + lambda_rel
    rest = 1 - r - lambda_rel
    pi = win * tau
    if pi > omega or omega - pi > rest:
        return None
    beta = 5 / 8 * lambda_rel
    # per-iteration success exponent, capped at 0 (probabilities <= 1):
    # C(win*n, pi*n) * C(rest*n, (omega-pi)*n) * 2^{beta*n} / 2^{(1-R)*n}
    p_exp = win * h + rest * entropy((omega - pi) / rest) + beta - (1 - r)
    value = 6 / 5 * beta - min(0.0, p_exp) / 2
    return value, lambda_rel, pi


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
    """Minimize the multi-target quantum decoding exponent over the window
    ratio tau, and so over lambda_rel.

    The objective is feasible on an interval of tau that starts at 0 and
    unimodal there, so one golden-section search over [0, 1/2] finds its
    minimum.  That search never returns an endpoint, so tau = 0, where
    lambda = 0 and the objective is quantum Prange, stands when it is no
    worse; it is feasible at every rate point.
    """

    def penalized(tau: float) -> float:
        got = doom_quantum_objective(pt, tau)
        return got[0] if got is not None else math.inf

    found = doom_quantum_objective(pt, _golden_section(penalized, 0.0, 0.5, 1e-12))
    prange = doom_quantum_objective(pt, 0.0)
    value, lam, pi = prange if found is None or prange[0] <= found[0] else found
    return ExponentResult(exponent=value, lambda_rel=lam, pi_rel=pi)


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
        self, index: int, value_log2: float, threshold_log2: float, passed: bool
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
            ConditionItem(1, self.zhandry_term, thr, self.zhandry_term <= thr),
            ConditionItem(2, self.signing_term, thr, self.signing_term <= thr),
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

