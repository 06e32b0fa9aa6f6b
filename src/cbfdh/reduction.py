"""Desk-scale simulation of the scheme's security reduction.

Lazily-sampled random oracles, the reprogrammed oracle Z whose outputs mix
fresh uniform syndromes with syndromes of exactly uniform weight-w words,
signing without the secret key, the hybrid game sequence 0..5 as an
executable harness, and the master bound with its side conditions, from one
log2-domain entry point (:func:`theorem1_bound_log2`).

Superposition queries cannot be executed here: the harness drives
classical-query adversaries only, and quantum query counts enter solely
through the q^(3/2) sqrt(eps) term of the bound calculator.  Each trial
builds fresh oracles from its own seed (:func:`cbfdh.isd.run_trials`), so
trials are independent and reproducible regardless of the worker count.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Callable, Mapping, Protocol, Sequence

from ._record import FrozenRecord, Record, set_field
from .f2 import BitMatrix, BitVector, mat_vec_mul, random_matrix
from .hashing import unrank_weight_pattern
from .isd import DoomSolution, run_trials
from .scheme import (
    PublicKey,
    SchemeParams,
    Signature,
    SigningFailure,
    decode_to_weight,
    keygen,
    random_code_family,
    sign,
    verify,
)

__all__ = [
    "HarnessError",
    "ReductionError",
    "LazyOracle",
    "ZOracle",
    "sign_without_secret",
    "Adversary",
    "NullAdversary",
    "ReplayAdversary",
    "OmniscientAdversary",
    "GameConfig",
    "GameTranscript",
    "GameStats",
    "wilson_interval",
    "run_game",
    "extract_doom_solution",
    "ReductionBound",
    "theorem1_bound_log2",
    "ConditionItem",
    "ConditionReport",
    "condition_check",
]

ZHANDRY_CONSTANT = 8 * math.pi / math.sqrt(3)

# decoder budget of the real signer in games 0..2 and of the omniscient forger
GAME_SIGN_BUDGET = 400


class HarnessError(RuntimeError):
    """An adversary broke the game contract (query budget, machine misuse)."""


class ReductionError(RuntimeError):
    """An internal consistency check failed; indicates a harness bug."""


# --- lazy oracles -----------------------------------------------------------------


class LazyOracle:
    """Random function materialized one query at a time.

    Fresh inputs get an output drawn from ``sampler``; repeats are answered
    from the memo table, which keeps insertion order so a transcript of
    first-query keys replays to identical outputs given the same rng seed.
    """

    def __init__(self, sampler: Callable[[random.Random], Any], rng: random.Random):
        self.sampler = sampler
        self.rng = rng
        self.table: dict[Any, Any] = {}

    def query(self, key: Any) -> Any:
        if key not in self.table:
            self.table[key] = self.sampler(self.rng)
        return self.table[key]

    @property
    def query_count(self) -> int:
        return len(self.table)

    def queries(self) -> tuple[Any, ...]:
        """Distinct keys in first-query order."""
        return tuple(self.table)

    @classmethod
    def uniform(cls, out_bits: int, rng: random.Random) -> "LazyOracle":
        return cls(lambda r: BitVector.random(out_bits, r), rng)

    @classmethod
    def coin_and_pattern(
        cls, n: int, w: int, rng: random.Random
    ) -> "LazyOracle":
        """Oracle into {0,1} x S_w: a fair bit plus a uniform weight-w word,
        unranked lexicographically from an index rejection-sampled below
        C(n, w)."""
        count = math.comb(n, w)
        if not count:  # w > n: the rejection loop below would never end
            raise ValueError(f"no weight-{w} words of length {n}")
        index_bits = max(1, count.bit_length())

        def sampler(r: random.Random) -> tuple[int, BitVector]:
            b = r.getrandbits(1)
            while True:
                index = r.getrandbits(index_bits)
                if index < count:
                    return b, unrank_weight_pattern(index, n, w)

        return cls(sampler, rng)


class ZOracle:
    """Hash oracle that secretly branches on a hidden coin per input.

    For each fresh (m, r) the inner oracle J draws (b, e); the visible
    value is a fresh uniform syndrome when b = 0 and the syndrome of e
    under the public matrix when b = 1.  Over the oracle randomness the
    output law is the exact half/half mixture of those two distributions,
    so its distance to uniform is half the weight-w syndrome distance.
    """

    def __init__(
        self,
        h_pub: BitMatrix,
        w: int,
        salt_bits: int,
        rng: random.Random,
    ):
        self.h_pub = h_pub
        self.w = w
        self.salt_bits = salt_bits
        self.h_seed = rng.getrandbits(64)
        self.h = LazyOracle.uniform(h_pub.nrows, random.Random(self.h_seed))
        self.j = LazyOracle.coin_and_pattern(
            h_pub.ncols, w, random.Random(rng.getrandbits(64))
        )

    def j_query(self, m: bytes, r: BitVector) -> tuple[int, BitVector]:
        return self.j.query((m, r))

    def z_query(self, m: bytes, r: BitVector) -> BitVector:
        b, e = self.j_query(m, r)
        if b == 0:
            return self.h.query((m, r))
        return mat_vec_mul(self.h_pub, e)


def sign_without_secret(
    z: ZOracle, m: bytes, rng: random.Random, max_attempts: int = 512
) -> tuple[BitVector, BitVector]:
    """Produce (e, r) with Z(m, r) equal to the public syndrome of e.

    Draws fresh uniform salts until J lands on its b = 1 branch, a
    geometric wait with mean two attempts.  No secret key is involved.
    """
    for _ in range(max_attempts):
        r = BitVector.random(z.salt_bits, rng)
        b, e = z.j_query(m, r)
        if b == 1:
            return e, r
    raise SigningFailure(f"no b = 1 salt within {max_attempts} attempts")


# --- adversaries ------------------------------------------------------------------


class Adversary(Protocol):
    """Forger interface: declared budgets plus a run method.

    ``run`` receives the public key, a hash-query callback (m, r) -> s, a
    sign-query callback m -> Signature or None, and an rng; it returns a
    forgery triple (m', e', r') or None.  The harness enforces the declared
    q_hash / q_sign budgets by counting callback invocations.
    """

    q_hash: int
    q_sign: int

    def run(
        self,
        pk: PublicKey,
        hash_query: Callable[[bytes, BitVector], BitVector],
        sign_query: Callable[[bytes], Signature | None],
        rng: random.Random,
    ) -> tuple[bytes, BitVector, BitVector] | None: ...


class NullAdversary(Record):
    """Outputs a fixed garbage triple without querying anything."""

    def __init__(self, params: SchemeParams, q_hash: int = 0, q_sign: int = 0) -> None:
        self.params, self.q_hash, self.q_sign = params, q_hash, q_sign

    def run(self, pk, hash_query, sign_query, rng):
        return b"junk", BitVector.zeros(self.params.n), BitVector.zeros(self.params.lam0)


class ReplayAdversary(Record):
    """Asks for one signature and resubmits it verbatim; the freshness
    requirement on the forged message makes this lose every game."""

    def __init__(self, params: SchemeParams, q_hash: int = 0, q_sign: int = 1) -> None:
        self.params, self.q_hash, self.q_sign = params, q_hash, q_sign

    def run(self, pk, hash_query, sign_query, rng):
        sig = sign_query(b"replayed message")
        if sig is None:
            return None
        return b"replayed message", sig.e, sig.salt


class OmniscientAdversary(Record):
    """Unbounded-computation stand-in: decodes the public matrix directly.

    First exercises the signing oracle on one benign message (twice, so the
    salt-collision event has a chance to fire at tiny salt widths), then
    forges on a fresh message by hashing salts and decoding until one of
    the syndromes yields a weight-w word.  Works in every game because it
    never needs the planted key, only desk-scale decoding.
    """

    def __init__(self, params: SchemeParams, q_hash: int = 8, q_sign: int = 2) -> None:
        self.params, self.q_hash, self.q_sign = params, q_hash, q_sign

    def run(self, pk, hash_query, sign_query, rng):
        for _ in range(self.q_sign):
            sign_query(b"benign message")
        for _ in range(self.q_hash):
            salt = BitVector.random(self.params.lam0, rng)
            s = hash_query(b"forged message", salt)
            e = decode_to_weight(pk.h_pub, s, pk.w, GAME_SIGN_BUDGET, rng)
            if e is not None:
                return b"forged message", e, salt
        return None


# --- game harness -----------------------------------------------------------------


class GameConfig(FrozenRecord):
    """Scheme parameters of the game harness.  Keys come from the uniform
    full-rank family and the Z oracle draws its patterns exactly."""

    def __init__(self, params: SchemeParams) -> None:
        set_field(self, "params", params)


class GameTranscript(FrozenRecord):
    """Everything needed to replay one trial's hash oracle and re-validate
    its outcome: the oracle's seed and first-query key order, the matrix in
    force, and the forgery."""

    def __init__(
        self, game_id: int, params: SchemeParams, h_pub: BitMatrix, h_seed: int,
        h_keys: tuple[Any, ...], forgery: tuple[bytes, BitVector, BitVector] | None,
        win: bool,
    ) -> None:
        set_field(self, "game_id", game_id)
        set_field(self, "params", params)
        set_field(self, "h_pub", h_pub)
        set_field(self, "h_seed", h_seed)
        set_field(self, "h_keys", h_keys)
        set_field(self, "forgery", forgery)
        set_field(self, "win", win)


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial frequency."""
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return lo, hi


class GameStats(Record):
    """Success and trial counts per game, plus any kept transcripts."""

    def __init__(
        self,
        successes: dict[int, int] | None = None,
        trials: dict[int, int] | None = None,
        transcripts: list[GameTranscript] | None = None,
    ) -> None:
        self.successes = {} if successes is None else successes
        self.trials = {} if trials is None else trials
        self.transcripts = [] if transcripts is None else transcripts

    def record(self, game_id: int, win: bool) -> None:
        self.trials[game_id] = self.trials.get(game_id, 0) + 1
        self.successes[game_id] = self.successes.get(game_id, 0) + bool(win)

    def frequency(self, game_id: int) -> float:
        t = self.trials.get(game_id, 0)
        return self.successes.get(game_id, 0) / t if t else 0.0

    def wilson(self, game_id: int) -> tuple[float, float]:
        return wilson_interval(
            self.successes.get(game_id, 0), self.trials.get(game_id, 0)
        )

    def lines(self) -> list[str]:
        out = []
        for g in sorted(self.trials):
            lo, hi = self.wilson(g)
            out.append(
                f"game={g} trials={self.trials[g]} successes={self.successes[g]} "
                f"frequency={self.frequency(g):.6f} "
                f"wilson_low={lo:.6f} wilson_high={hi:.6f}"
            )
        return out


def _run_trial(
    game_id: int,
    adversary: Adversary,
    config: GameConfig,
    child_seed: int,
    keep_transcript: bool,
) -> tuple[bool, GameTranscript | None]:
    params = config.params
    trial_rng = random.Random(child_seed)
    keygen_seed, oracle_seed, signer_seed, adv_seed, h0_seed = (
        trial_rng.getrandbits(64) for _ in range(5)
    )

    # initialize: real keys up to game 3, a uniform matrix afterwards
    if game_id >= 4:
        keypair = None
        h0 = random_matrix(params.n_k, params.n, random.Random(h0_seed))
        pk = PublicKey(h0, params.w, params.lam0)
    else:
        family = random_code_family(params.n, params.k)
        keypair = keygen(params, family, random.Random(keygen_seed))
        pk = keypair.public

    # hash procedure: plain lazy oracle up to game 1, Z afterwards
    oracle_rng = random.Random(oracle_seed)
    if game_id >= 2:
        z = ZOracle(pk.h_pub, params.w, params.lam0, oracle_rng)
        hash_fn = z.z_query
        h_oracle, h_seed = z.h, z.h_seed
    else:
        z = None
        h_seed = oracle_rng.getrandbits(64)
        h_oracle = LazyOracle.uniform(params.n_k, random.Random(h_seed))
        hash_fn = lambda m, r: h_oracle.query((m, r))

    signer_rng = random.Random(signer_seed)
    signed_messages: set[bytes] = set()
    salts_seen: dict[bytes, set[BitVector]] = {}
    counts = {"hash": 0, "sign": 0}
    collision = False

    def hash_query(m: bytes, r: BitVector) -> BitVector:
        counts["hash"] += 1
        if counts["hash"] > adversary.q_hash:
            raise HarnessError(
                f"adversary exceeded its declared {adversary.q_hash} hash queries"
            )
        return hash_fn(m, r)

    def sign_query(m: bytes) -> Signature | None:
        counts["sign"] += 1
        if counts["sign"] > adversary.q_sign:
            raise HarnessError(
                f"adversary exceeded its declared {adversary.q_sign} sign queries"
            )
        nonlocal collision
        signed_messages.add(m)
        try:
            if game_id >= 3:
                e, salt = sign_without_secret(z, m, signer_rng)
                sig = Signature(e, salt)
            else:
                sig = sign(keypair, m, hash_fn, signer_rng, GAME_SIGN_BUDGET)
        except SigningFailure:
            return None
        seen = salts_seen.setdefault(m, set())
        if sig.salt in seen:
            collision = True
        seen.add(sig.salt)
        return sig

    forgery = adversary.run(pk, hash_query, sign_query, random.Random(adv_seed))

    # finalize
    win = False
    if forgery is not None:
        m_f, e_f, r_f = forgery
        win = m_f not in signed_messages and verify(
            pk, m_f, Signature(e_f, r_f), hash_fn
        )
        if game_id >= 1 and collision:
            win = False
        if game_id == 5 and win:
            b_prime, _ = z.j_query(m_f, r_f)
            win = b_prime == 0

    transcript = None
    if keep_transcript:
        transcript = GameTranscript(
            game_id=game_id,
            params=params,
            h_pub=pk.h_pub,
            h_seed=h_seed,
            h_keys=h_oracle.queries(),
            forgery=forgery,
            win=win,
        )
    return win, transcript


def run_game(
    game_id: int,
    adversary: Adversary,
    config: GameConfig,
    trials: int,
    rng: random.Random,
    keep_transcripts: bool = False,
    workers: int = 1,
) -> GameStats:
    """Play ``trials`` independent rounds of one game and tally wins.

    Game 0 is the real forgery game; each later game applies one more
    challenger change: 1 discounts wins after a repeated signing salt on
    the same message, 2 swaps the hash procedure for Z, 3 signs without
    the secret key, 4 replaces the public matrix by a uniform one, and 5
    additionally requires the hidden coin at the forgery point to be 0.
    Seeds are drawn as trials start, at most a block ahead under a pool,
    so memory stays bounded and the outcome does not depend on ``workers``.
    """
    if not 0 <= game_id <= 5:
        raise ValueError("game_id must be in 0..5")
    trial = partial(
        _run_trial, game_id, adversary, config, keep_transcript=keep_transcripts
    )
    stats = GameStats()
    for win, transcript in run_trials(trial, trials, rng, workers):
        stats.record(game_id, win)
        if transcript is not None:
            stats.transcripts.append(transcript)
    return stats


def extract_doom_solution(transcript: GameTranscript) -> DoomSolution | None:
    """Pull the multi-target decoding solution out of a final-game win.

    Replays the lazy hash oracle from its seed and key order, then checks
    that the forged (e, (m, r)) decodes the replayed syndrome at weight w.
    Returns None on a lost trial; a winning transcript that fails
    validation indicates a harness bug and raises :class:`ReductionError`.
    """
    if transcript.game_id != 5:
        raise ValueError("extraction expects a transcript of the final game")
    if not transcript.win or transcript.forgery is None:
        return None
    m_f, e_f, r_f = transcript.forgery
    replay = LazyOracle.uniform(
        transcript.params.n_k, random.Random(transcript.h_seed)
    )
    for key in transcript.h_keys:
        replay.query(key)
    if (m_f, r_f) not in replay.table:
        raise ReductionError("forgery point never reached the hash oracle")

    def hash_fn(preimage: tuple[bytes, BitVector]) -> BitVector:
        return replay.table[preimage]

    try:
        return DoomSolution.checked(
            transcript.h_pub, hash_fn, transcript.params.w, e_f, (m_f, r_f)
        )
    except ValueError as exc:
        raise ReductionError(f"winning transcript failed validation: {exc}") from exc


# --- bound calculators --------------------------------------------------------------


def _log2(x: float) -> float:
    if x < 0:
        raise ValueError("expected a nonnegative value")
    return -math.inf if x == 0 else math.log2(x)


def _log2_sum(terms: Sequence[float]) -> float:
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
        set_field(self, "index", index)
        set_field(self, "label", label)
        set_field(self, "value_log2", value_log2)
        set_field(self, "threshold_log2", threshold_log2)
        set_field(self, "passed", passed)


class ReductionBound(FrozenRecord):
    """The master forgery bound as five log2-domain terms plus their sum.

    Terms: doubled multi-target decoding success, key-distinguishing
    advantage, the q^(3/2) oracle-swap cost, accumulated signing leakage,
    and the salt-birthday floor.  ``condition_item`` tags each term with
    the side-condition item it must satisfy (None: hardness assumption or
    parameter choice, not a side condition).
    """

    CONDITION_ITEMS: dict[str, int | None] = {
        "doom_term": None,
        "distinguisher_term": 3,
        "zhandry_term": 1,
        "signing_term": 2,
        "birthday_term": None,
    }

    def __init__(
        self, doom_term: float, distinguisher_term: float, zhandry_term: float,
        signing_term: float, birthday_term: float, total: float,
    ) -> None:
        set_field(self, "doom_term", doom_term)
        set_field(self, "distinguisher_term", distinguisher_term)
        set_field(self, "zhandry_term", zhandry_term)
        set_field(self, "signing_term", signing_term)
        set_field(self, "birthday_term", birthday_term)
        set_field(self, "total", total)

    def terms(self) -> list[tuple[str, float, int | None]]:
        """(name, log2 value, side-condition item) in bound order."""
        return [
            (name, getattr(self, name), item)
            for name, item in self.CONDITION_ITEMS.items()
        ]

    def side_conditions(
        self, threshold_log2: float | None = None
    ) -> tuple[ConditionItem, ConditionItem]:
        """Items 1 and 2: the oracle-swap and signing terms against the
        threshold, default 2^(-lam/2) (half the birthday term's exponent)."""
        thr = self.birthday_term / 2 if threshold_log2 is None else threshold_log2
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
    sqrt(E[rho_pub]) + q_sign*rho_sign + 2^-lam, reported term by term.

    Raises ValueError unless each probability is at most 2^0, each query
    count is finite and lam is nonnegative; NaN fails every check.
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
        if not value < math.inf:
            raise ValueError(f"{name} must be a finite count, got 2^{value}")
    doom = 1.0 + log2_eps_doom
    dist = log2_dist
    zhandry = (
        -math.inf
        if log2_q_hash == -math.inf or log2_exp_rho_pub == -math.inf
        else math.log2(ZHANDRY_CONSTANT) + 1.5 * log2_q_hash + 0.5 * log2_exp_rho_pub
    )
    signing = log2_q_sign + log2_rho_sign
    birthday = -float(lam)
    total = _log2_sum([doom, dist, zhandry, signing, birthday])
    return ReductionBound(doom, dist, zhandry, signing, birthday, total)


class ConditionReport(FrozenRecord):
    """Side-condition verdicts plus an echo of the measured inputs."""

    def __init__(self, items: tuple[ConditionItem, ...], measured: dict[str, Any]) -> None:
        set_field(self, "items", items)
        set_field(self, "measured", measured)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def condition_check(
    measured: Mapping[str, Any],
    q_hash: float,
    q_sign: float,
    lam: float,
    threshold_log2: float | None = None,
) -> ConditionReport:
    """Check the three side conditions against measured desk-scale inputs.

    ``measured`` carries ``exp_rho_pub`` (mean weight-w syndrome distance
    over keys), ``rho_sign`` (decoder output distance), and optionally
    ``dist_profile``, a sequence of (t, advantage) points for the key
    distinguisher.  Items 1 and 2 compare their bound term against the
    threshold, default 2^(-lam/2).  Item 3 checks every profile point for
    advantage <= t * 2^-lam, a finite-sample proxy for the required decay;
    an empty profile passes vacuously.
    """
    bound = theorem1_bound_log2(
        log2_eps_doom=-math.inf,
        log2_dist=-math.inf,
        log2_exp_rho_pub=_log2(float(measured["exp_rho_pub"])),
        log2_rho_sign=_log2(float(measured["rho_sign"])),
        log2_q_hash=_log2(q_hash),
        log2_q_sign=_log2(q_sign),
        lam=lam,
    )
    profile = tuple(measured.get("dist_profile") or ())
    # worst log2 margin of advantage * 2^lam / t over the profile
    margin3 = -math.inf
    for t, adv in profile:
        if t <= 0:
            raise ValueError("profile times must be positive")
        margin3 = max(margin3, _log2(float(adv)) + float(lam) - math.log2(t))
    items = (
        *bound.side_conditions(threshold_log2),
        ConditionItem(
            3,
            "key distinguisher decays (advantage <= t / 2^lam)",
            margin3,
            0.0,
            margin3 <= 0.0,
        ),
    )
    return ConditionReport(items, dict(measured))
