"""Desk-scale simulation of the scheme's security reduction.

Lazily-sampled random oracles, the reprogrammed oracle Z whose outputs mix
fresh uniform syndromes with syndromes of exactly uniform weight-w words,
signing without the secret key, and the hybrid game sequence 0..5 as an
executable harness.

Superposition queries cannot be executed here: the harness drives
classical-query adversaries only, and quantum query counts enter solely
through the q^(3/2) sqrt(eps) term of the bound calculator
(:func:`cbfdh.exponents.theorem1_bound_log2`).  Each trial
builds fresh oracles from its own seed (:func:`cbfdh.isd.run_trials`), so
trials are independent and reproducible regardless of the worker count.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Callable

from ._record import FrozenRecord, set_fields
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
    "OmniscientAdversary",
    "GameConfig",
    "GameTranscript",
    "GameStats",
    "wilson_interval",
    "run_game",
    "extract_doom_solution",
]

# decoder budget of the real signer in games 0..2 and of the omniscient forger
GAME_SIGN_BUDGET = 400

# salts sign_without_secret draws, each on b = 1 with probability 1/2
SALT_ATTEMPTS = 512


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
    """The hash procedure from game 2 on: the trial's H, reprogrammed.

    For each fresh (m, r) the inner oracle J, seeded from ``rng``, draws a
    hidden coin b and a weight-w word e; Z keeps H's answer when b = 0 and
    programs the public syndrome of e when b = 1.  Its output law is the
    exact half/half mixture of the uniform and the weight-w syndrome laws,
    so its distance to uniform is half the weight-w syndrome distance.
    """

    def __init__(
        self, h_pub: BitMatrix, h: LazyOracle, w: int, salt_bits: int,
        rng: random.Random,
    ):
        self.h_pub = h_pub
        self.h = h
        self.w = w
        self.salt_bits = salt_bits
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
    z: ZOracle, m: bytes, rng: random.Random
) -> tuple[BitVector, BitVector]:
    """Produce (e, r) with Z(m, r) equal to the public syndrome of e.

    Draws up to ``SALT_ATTEMPTS`` fresh uniform salts until J lands on its
    b = 1 branch, a geometric wait with mean two.  No secret key is involved.
    """
    for _ in range(SALT_ATTEMPTS):
        r = BitVector.random(z.salt_bits, rng)
        b, e = z.j_query(m, r)
        if b == 1:
            return e, r
    raise SigningFailure(f"no b = 1 salt within {SALT_ATTEMPTS} attempts")


# --- adversaries ------------------------------------------------------------------


class Adversary(FrozenRecord):
    """A forger on the scheme parameters.

    Subclasses set the budgets q_hash and q_sign as class attributes and
    define ``run``, which receives the public key, a hash-query callback
    (m, r) -> s, a sign-query callback m -> Signature or None, and an rng;
    it returns a forgery triple (m', e', r') or None.  The harness enforces
    the declared budgets by counting callback invocations.  Any object with
    ``q_hash``, ``q_sign`` and ``run`` plays the games as well.
    """

    q_hash: int
    q_sign: int

    def __init__(self, params: SchemeParams) -> None:
        set_fields(self, locals())

    def run(
        self, pk: PublicKey, hash_query: Callable[[bytes, BitVector], BitVector],
        sign_query: Callable[[bytes], Signature | None], rng: random.Random,
    ) -> tuple[bytes, BitVector, BitVector] | None:
        raise NotImplementedError


class OmniscientAdversary(Adversary):
    """Unbounded-computation stand-in: decodes the public matrix directly.

    First exercises the signing oracle on one benign message (twice, so the
    salt-collision event has a chance to fire at tiny salt widths), then
    forges on a fresh message by hashing salts and decoding until one of
    the syndromes yields a weight-w word.  Works in every game because it
    never needs the planted key, only desk-scale decoding.
    """

    q_hash, q_sign = 8, 2

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
        set_fields(self, locals())


class GameTranscript(FrozenRecord):
    """Everything needed to replay one trial's hash oracle and re-validate
    its outcome: the oracle's seed and first-query key order, the matrix in
    force, and the forgery."""

    def __init__(
        self, game_id: int, params: SchemeParams, h_pub: BitMatrix, h_seed: int,
        h_keys: tuple[Any, ...], forgery: tuple[bytes, BitVector, BitVector] | None,
        win: bool,
    ) -> None:
        set_fields(self, locals())


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial frequency."""
    z = 1.959963984540054  # the normal distribution's 97.5% quantile
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


class GameStats(FrozenRecord):
    """Wins per game, plus any transcripts kept for the caller to extract."""

    def __init__(
        self, successes: dict[int, int], transcripts: list[GameTranscript]
    ) -> None:
        set_fields(self, locals())


def _run_trial(
    game_id: int, adversary: Adversary, config: GameConfig, child_seed: int,
    keep_transcript: bool,
) -> tuple[bool, GameTranscript | None]:
    """One trial of game ``game_id``: whether it was won, and its transcript
    if kept.  The trial draws one H; from game 2 on, Z reprograms it.  A
    game-5 win that is not kept is extracted here, as the trial ends, and
    raises :class:`ReductionError` if it does not replay; a kept one is left
    to the keeper, so no win is extracted twice."""
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

    # hash procedure: the trial's H up to game 1, Z reprogramming it afterwards
    oracle_rng = random.Random(oracle_seed)
    h_seed = oracle_rng.getrandbits(64)
    h = LazyOracle.uniform(params.n_k, random.Random(h_seed))
    if game_id >= 2:
        z = ZOracle(pk.h_pub, h, params.w, params.lam0, oracle_rng)
        hash_fn = z.z_query
    else:
        z = None
        hash_fn = lambda m, r: h.query((m, r))

    signer_rng = random.Random(signer_seed)
    signed_messages: set[bytes] = set()
    signed_pairs: set[tuple[bytes, BitVector]] = set()
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
        if (m, sig.salt) in signed_pairs:
            collision = True
        signed_pairs.add((m, sig.salt))
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

    if not (keep_transcript or (game_id == 5 and win)):
        return win, None
    transcript = GameTranscript(
        game_id=game_id, params=params, h_pub=pk.h_pub, h_seed=h_seed,
        h_keys=h.queries(), forgery=forgery, win=win,
    )
    if keep_transcript:
        return win, transcript
    extract_doom_solution(transcript)
    return win, None


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
    Each game-5 win is extracted in its trial, or, with
    ``keep_transcripts``, left to the caller in the kept transcripts
    (about 2.5 KB each at n = 12).  Without them nothing is held per trial,
    and seeds are drawn as trials start, at most a block ahead under a
    pool, so memory stays bounded and the outcome does not depend on
    ``workers``.
    """
    if not 0 <= game_id <= 5:
        raise ValueError("game_id must be in 0..5")
    trial = partial(
        _run_trial, game_id, adversary, config, keep_transcript=keep_transcripts
    )
    wins, transcripts = 0, []
    for win, transcript in run_trials(trial, trials, rng, workers):
        wins += win
        if transcript is not None:
            transcripts.append(transcript)
    return GameStats({game_id: wins}, transcripts)


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
    try:
        return DoomSolution.checked(
            transcript.h_pub, replay.table.__getitem__, transcript.params.w,
            e_f, (m_f, r_f),
        )
    except ValueError as exc:
        raise ReductionError(f"winning transcript failed validation: {exc}") from exc
