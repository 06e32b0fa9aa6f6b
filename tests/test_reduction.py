import dataclasses
import math
import random
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from cbfdh.codes import (
    DiscreteDistribution,
    stat_distance,
    syndrome_weight_distribution,
)
from cbfdh.f2 import BitMatrix, BitVector, mat_vec_mul, random_full_rank
from cbfdh.reduction import (
    GameConfig,
    GameTranscript,
    HarnessError,
    LazyOracle,
    NullAdversary,
    OmniscientAdversary,
    ReductionError,
    ReplayAdversary,
    ZOracle,
    ZHANDRY_CONSTANT,
    condition_check,
    extract_doom_solution,
    run_game,
    sign_without_secret,
    theorem1_bound_log2,
    wilson_interval,
)
from cbfdh.scheme import (
    SchemeParams,
    SigningFailure,
    measure_decoder_distance,
)


def toy_params(**overrides):
    kwargs = dict(n=12, k=6, w=4, lam=8, lam0=24)
    kwargs.update(overrides)
    return SchemeParams(**kwargs)


# --- lazy oracles -----------------------------------------------------------------


def test_oracle_memoization_and_count():
    oracle = LazyOracle.uniform(16, random.Random(0))
    first = oracle.query((b"m", 3))
    assert oracle.query((b"m", 3)) == first
    assert oracle.query_count == 1
    assert oracle.query(b"") is not None  # empty key is valid
    assert oracle.query_count == 2
    assert oracle.queries() == ((b"m", 3), b"")


def test_oracle_uniformity_chi_square():
    oracle = LazyOracle.uniform(8, random.Random(1))
    counts = [0] * 256
    for i in range(10_000):
        counts[oracle.query(i).bits] += 1
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_oracle_replay_of_interleaved_queries():
    # 10^5 queries with heavy repetition, then a replay from the same seed
    # following first-occurrence order must reproduce every value
    oracle = LazyOracle.uniform(12, random.Random(42))
    rng = random.Random(7)
    for _ in range(100_000):
        oracle.query(rng.randrange(5000))
    replay = LazyOracle.uniform(12, random.Random(42))
    for key in oracle.queries():
        replay.query(key)
    assert replay.table == oracle.table


def test_coin_and_pattern_outputs():
    oracle = LazyOracle.coin_and_pattern(10, 3, random.Random(3))
    for i in range(200):
        b, e = oracle.query(i)
        assert b in (0, 1)
        assert e.n == 10 and e.weight() == 3


def test_coin_and_pattern_refuses_a_weight_above_the_length():
    # C(n, w) = 0 leaves no index to accept, so sampling would never end
    with pytest.raises(ValueError, match="no weight-5 words"):
        LazyOracle.coin_and_pattern(4, 5, random.Random(0))
    rng = random.Random(1)
    with pytest.raises(ValueError, match="no weight-13 words"):
        ZOracle(random_full_rank(6, 12, rng), 13, 24, rng)


# --- the reprogrammed oracle -----------------------------------------------------


def make_z(seed=5, n=12, k=6, w=4, salt_bits=24):
    rng = random.Random(seed)
    h_pub = random_full_rank(n - k, n, rng)
    return ZOracle(h_pub, w, salt_bits, rng)


def test_z_query_follows_the_hidden_coin():
    z = make_z()
    for i in range(300):
        m, r = f"m{i}".encode(), BitVector.random(z.salt_bits, random.Random(i))
        out = z.z_query(m, r)
        assert z.z_query(m, r) == out  # deterministic per input
        b, e = z.j_query(m, r)
        if b == 0:
            assert out == z.h.table[(m, r)]
        else:
            assert e.weight() == z.w
            assert out == mat_vec_mul(z.h_pub, e)


def test_z_query_forced_branches():
    z = make_z()
    m, r = b"forced", BitVector.zeros(z.salt_bits)
    z.j.table[(m, r)] = (0, None)
    assert z.z_query(m, r) == z.h.query((m, r))
    m2 = b"forced-the-other-way"
    e = BitVector.from_support(12, (0, 3, 5, 9))
    z.j.table[(m2, r)] = (1, e)
    assert z.z_query(m2, r) == mat_vec_mul(z.h_pub, e)


def test_z_output_distribution_is_the_exact_half_mixture():
    # exact identity on distributions, then an empirical check of z_query
    n, k, w = 8, 4, 2
    rng = random.Random(9)
    h_pub = random_full_rank(n - k, n, rng)
    uniform = DiscreteDistribution.uniform(n - k)
    d_w = syndrome_weight_distribution(h_pub, w)
    mixture = uniform.mixture(d_w, Fraction(1, 2))
    rho = stat_distance(d_w, uniform)
    assert stat_distance(mixture, uniform) == rho / 2

    z = ZOracle(h_pub, w, 16, rng)
    counts = [0] * (1 << (n - k))
    draws = 12_000
    for i in range(draws):
        counts[z.z_query(i.to_bytes(4, "big"), BitVector.zeros(16)).bits] += 1
    expected = [float(mixture.prob(s)) * draws for s in range(1 << (n - k))]
    assert scipy_stats.chisquare(counts, expected).pvalue > 0.01


# --- signing without the secret key ------------------------------------------------


def test_sign_without_secret_verifies_and_costs_two_calls():
    z = make_z(seed=11)
    rng = random.Random(1)
    calls = []
    runs = 10_000
    for i in range(runs):
        before = z.j.query_count
        e, r = sign_without_secret(z, f"m{i}".encode(), rng)
        calls.append(z.j.query_count - before)
        assert e.weight() == z.w
        assert r.n == z.salt_bits
        assert z.z_query(f"m{i}".encode(), r) == mat_vec_mul(z.h_pub, e)
    mean = sum(calls) / runs
    assert 1.9 <= mean <= 2.1


def test_sign_without_secret_e_marginal_is_uniform():
    n, k, w = 8, 4, 2
    rng = random.Random(13)
    z = ZOracle(random_full_rank(n - k, n, rng), w, 16, rng)
    counts = [0] * math.comb(n, w)
    from cbfdh.hashing import rank_weight_pattern

    for i in range(10_000):
        e, _ = sign_without_secret(z, i.to_bytes(4, "big"), rng)
        counts[rank_weight_pattern(e, w)] += 1
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_sign_without_secret_cap():
    z = make_z()
    with pytest.raises(SigningFailure):
        sign_without_secret(z, b"m", random.Random(0), max_attempts=0)


# --- game harness ------------------------------------------------------------------


def test_null_and_replay_adversaries_never_win():
    params = toy_params()
    config = GameConfig(params)
    for game_id in range(6):
        for adv in (NullAdversary(params), ReplayAdversary(params)):
            stats = run_game(game_id, adv, config, 40, random.Random(game_id))
            assert stats.frequency(game_id) == 0.0
            assert stats.trials[game_id] == 40


def test_budget_enforcement_blames_the_adversary():
    params = toy_params()

    @dataclasses.dataclass
    class Greedy:
        params: SchemeParams
        q_hash: int = 1
        q_sign: int = 0

        def run(self, pk, hash_query, sign_query, rng):
            r = BitVector.zeros(self.params.lam0)
            hash_query(b"a", r)
            hash_query(b"b", r)  # one over budget
            return None

    with pytest.raises(HarnessError, match="hash"):
        run_game(0, Greedy(params), GameConfig(params), 1, random.Random(0))


def test_harness_is_deterministic_and_worker_independent():
    params = toy_params()
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    a = run_game(3, adv, config, 30, random.Random(5), keep_transcripts=True)
    b = run_game(3, adv, config, 30, random.Random(5), keep_transcripts=True)
    assert a.successes == b.successes and a.trials == b.trials
    assert [t.win for t in a.transcripts] == [t.win for t in b.transcripts]
    # the transcripts come back pickled, matrices and all, from the workers
    c = run_game(3, adv, config, 30, random.Random(5), keep_transcripts=True, workers=2)
    assert c.successes == a.successes and c.trials == a.trials
    assert c.transcripts == a.transcripts


def test_run_game_draws_each_seed_as_its_trial_starts():
    params = toy_params()

    class CountingRandom(random.Random):
        draws = 0

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    rng = CountingRandom(6)
    seen = []

    class Recording(NullAdversary):
        def run(self, pk, hash_query, sign_query, adv_rng):
            seen.append(rng.draws)
            return super().run(pk, hash_query, sign_query, adv_rng)

    stats = run_game(0, Recording(params), GameConfig(params), 5, rng)
    assert seen == [1, 2, 3, 4, 5]  # not five draws before the first trial
    assert stats.trials[0] == rng.draws == 5


def test_game_hop_birthday_bound():
    # tiny salt space so the same-message salt collision actually fires
    params = toy_params(lam0=4)
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    trials = 600
    f0 = run_game(0, adv, config, trials, random.Random(21)).frequency(0)
    f1 = run_game(1, adv, config, trials, random.Random(21)).frequency(1)
    birthday = adv.q_sign**2 / 2**params.lam0
    sigma = math.sqrt(
        f0 * (1 - f0) / trials + f1 * (1 - f1) / trials
    )
    assert f1 <= f0  # the collision discount only removes wins
    assert abs(f0 - f1) <= birthday + 3 * sigma + 1e-9


def test_game_hop_signer_swap_bounded_by_decoder_distance():
    params = toy_params()
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    trials = 500
    f2 = run_game(2, adv, config, trials, random.Random(31)).frequency(2)
    f3 = run_game(3, adv, config, trials, random.Random(31)).frequency(3)
    rng = random.Random(33)
    h = random_full_rank(params.n_k, params.n, rng)
    rho_hat, _ = measure_decoder_distance(h, params.w, 1200, rng)
    sigma = math.sqrt(f2 * (1 - f2) / trials + f3 * (1 - f3) / trials)
    assert abs(f2 - f3) <= adv.q_sign * rho_hat + 3 * sigma + 1e-9


def test_final_game_halves_the_win_rate():
    params = toy_params()
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    trials = 800
    f4 = run_game(4, adv, config, trials, random.Random(41)).frequency(4)
    f5 = run_game(5, adv, config, trials, random.Random(42)).frequency(5)
    assert f4 > 0.5  # the unbounded forger decodes almost every trial
    ratio = f5 / f4
    assert 0.35 <= ratio <= 0.65  # loose screen; the acceptance run tightens it


def test_extraction_replays_and_validates():
    params = toy_params()
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    stats = run_game(
        5, adv, config, 250, random.Random(51), keep_transcripts=True
    )
    wins = [t for t in stats.transcripts if t.win]
    losses = [t for t in stats.transcripts if not t.win]
    assert wins and losses
    for t in wins:
        sol = extract_doom_solution(t)
        assert sol is not None
        # fresh replay of the oracle confirms the solution once more
        replay = LazyOracle.uniform(params.n_k, random.Random(t.h_seed))
        for key in t.h_keys:
            replay.query(key)
        assert mat_vec_mul(t.h_pub, sol.e) == replay.table[sol.preimage]
        assert sol.e.weight() == params.w
    assert extract_doom_solution(losses[0]) is None


def test_extraction_rejects_tampered_transcripts():
    params = toy_params()
    config = GameConfig(params)
    adv = OmniscientAdversary(params)
    stats = run_game(
        5, adv, config, 120, random.Random(61), keep_transcripts=True
    )
    win = next(t for t in stats.transcripts if t.win)
    m_f, e_f, r_f = win.forgery
    fields = (win.params, win.h_pub, win.h_seed, win.h_keys)
    forgery = (m_f, BitVector(e_f.n, e_f.bits ^ 1), r_f)
    bad = GameTranscript(win.game_id, *fields, forgery, win.win)
    with pytest.raises(ReductionError):
        extract_doom_solution(bad)
    with pytest.raises(ValueError):
        extract_doom_solution(GameTranscript(4, *fields, win.forgery, win.win))


def test_wilson_interval_behaves():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.05
    stats_lines = run_game(
        0,
        NullAdversary(toy_params()),
        GameConfig(toy_params()),
        5,
        random.Random(0),
    ).lines()
    assert stats_lines[0].startswith("game=0 trials=5 successes=0 ")


# --- bound calculators --------------------------------------------------------------


ZERO = -math.inf


def swap_term(q_hash, exp_rho_pub):
    """Oracle-swap term of the bound from float inputs, as a float."""
    bound = theorem1_bound_log2(
        ZERO, ZERO, math.log2(exp_rho_pub) if exp_rho_pub else ZERO,
        ZERO, math.log2(q_hash) if q_hash else ZERO, ZERO, 128,
    )
    return 2.0**bound.zhandry_term


def test_zhandry_bound_values():
    assert swap_term(0, 0.5) == 0.0
    assert swap_term(100, 0.0) == 0.0
    direct = ZHANDRY_CONSTANT * 8 * 1e-3  # (8 pi / sqrt 3) 4^(3/2) sqrt(1e-6)
    assert math.isclose(swap_term(4, 1e-6), direct, rel_tol=1e-12)
    assert swap_term(8, 1e-6) > swap_term(4, 1e-6)
    assert swap_term(4, 1e-5) > swap_term(4, 1e-6)
    with pytest.raises(ValueError):
        condition_check({"exp_rho_pub": 0.5, "rho_sign": 0.0}, -1, 1, 128)
    with pytest.raises(ValueError):
        condition_check({"exp_rho_pub": 1.5, "rho_sign": 0.0}, 4, 1, 128)


def test_theorem1_bound_term_isolation():
    eps = 1e-6
    bound = theorem1_bound_log2(math.log2(eps), ZERO, ZERO, ZERO, ZERO, ZERO, 128)
    assert math.isclose(bound.total, math.log2(2 * eps + 2**-128), rel_tol=1e-12)
    assert bound.doom_term == pytest.approx(1 + math.log2(eps))
    assert bound.distinguisher_term == -math.inf
    assert bound.zhandry_term == -math.inf
    assert bound.signing_term == -math.inf
    assert bound.birthday_term == -128.0


def test_theorem1_bound_signing_linearity():
    a = theorem1_bound_log2(ZERO, ZERO, ZERO, math.log2(1e-9), ZERO, 20.0, 128)
    b = theorem1_bound_log2(ZERO, ZERO, ZERO, math.log2(1e-9), ZERO, 21.0, 128)
    assert b.signing_term == pytest.approx(a.signing_term + 1.0, abs=1e-12)


def test_theorem1_bound_surf_scale():
    # parameters far beyond float range go through the log2 entry point
    bound = theorem1_bound_log2(
        log2_eps_doom=-128.0,
        log2_dist=-math.inf,
        log2_exp_rho_pub=-0.06 * 13976,
        log2_rho_sign=-math.inf,
        log2_q_hash=128.0,
        log2_q_sign=64.0,
        lam=128,
    )
    expected = math.log2(ZHANDRY_CONSTANT) + 1.5 * 128 + 0.5 * (-0.06 * 13976)
    assert bound.zhandry_term == pytest.approx(expected, abs=1e-9)
    assert bound.zhandry_term == pytest.approx(-223.42, abs=0.01)
    # pre-constant exponent: the 3/2-power and root alone give about -227.3
    assert 1.5 * 128 + 0.5 * (-0.06 * 13976) == pytest.approx(-227.28, abs=0.01)
    assert bound.total == pytest.approx(math.log2(2**-127 + 2**-128), abs=1e-6)
    tags = {name: item for name, _, item in bound.terms()}
    assert tags == {
        "doom_term": None,
        "distinguisher_term": 3,
        "zhandry_term": 1,
        "signing_term": 2,
        "birthday_term": None,
    }
    swap, signing = bound.side_conditions()
    assert (swap.index, swap.value_log2, swap.threshold_log2) == (1, bound.zhandry_term, -64.0)
    assert swap.passed and signing.passed and signing.value_log2 == -math.inf
    assert not bound.side_conditions(threshold_log2=-230.0)[0].passed


def test_theorem1_bound_validates_inputs():
    # float inputs reach the bound through condition_check's log2 conversion
    for measured, q_hash, q_sign in (
        ({"exp_rho_pub": 0.0, "rho_sign": 1.5}, 1, 1),
        ({"exp_rho_pub": 0.5, "rho_sign": 0.0}, -1, 1),
        ({"exp_rho_pub": 0.0, "rho_sign": -0.5}, 1, 1),
        ({"exp_rho_pub": math.nan, "rho_sign": 0.0}, 1, 1),
        ({"exp_rho_pub": 0.0, "rho_sign": 0.5}, 1, math.inf),
    ):
        with pytest.raises(ValueError):
            condition_check(measured, q_hash, q_sign, 128)
    zero = ZERO
    args = dict(
        log2_eps_doom=zero, log2_dist=zero, log2_exp_rho_pub=zero,
        log2_rho_sign=zero, log2_q_hash=zero, log2_q_sign=zero, lam=128,
    )
    for bad in (
        dict(log2_eps_doom=5.0),
        dict(log2_dist=math.nan),
        dict(log2_rho_sign=math.inf, log2_q_sign=zero),
        dict(log2_q_hash=math.inf),
        dict(log2_q_sign=math.nan),
        dict(lam=-1),
    ):
        with pytest.raises(ValueError):
            theorem1_bound_log2(**{**args, **bad})


def test_condition_check_items():
    report = condition_check(
        {"exp_rho_pub": 0.0, "rho_sign": 0.0}, 2**128, 2**64, 128
    )
    assert report.passed
    report = condition_check({"exp_rho_pub": 1.0, "rho_sign": 0.0}, 1, 2**64, 128)
    assert not report.items[0].passed
    assert report.items[1].passed  # rho_sign = 0 passes at any q_sign
    report = condition_check(
        {"exp_rho_pub": 0.0, "rho_sign": 1e-30}, 0, 4, 16, threshold_log2=-8.0
    )
    assert report.items[1].passed
    good = [(2.0**40, 2.0**-100)]
    bad = [(2.0**40, 2.0**-80)]
    assert condition_check(
        {"exp_rho_pub": 0.0, "rho_sign": 0.0, "dist_profile": good}, 1, 1, 128
    ).items[2].passed
    assert not condition_check(
        {"exp_rho_pub": 0.0, "rho_sign": 0.0, "dist_profile": bad}, 1, 1, 128
    ).items[2].passed
    echoed = condition_check(
        {"exp_rho_pub": 0.125, "rho_sign": 0.0}, 1, 1, 64
    ).measured
    assert echoed["exp_rho_pub"] == 0.125
