import copy
import math
import random
import warnings
from collections import Counter

import pytest

from cbfdh.f2 import (
    _SAMPLE_PLANS,
    BitMatrix,
    BitVector,
    front_permutation,
    mat_mul,
    mat_vec_mul,
    random_matrix,
    rank,
    sample,
    sample_from,
    sample_plan,
)
from cbfdh.hashing import FdhHash
from cbfdh.scheme import (
    LAM0_MAX,
    PublicKey,
    SchemeParams,
    Signature,
    SignatureKeyPair,
    SigningFailure,
    decode_to_weight,
    keygen,
    keypair_from_secret,
    load_public_key,
    load_secret_key,
    load_signature,
    measure_decoder_distance,
    random_code_family,
    save_public_key,
    save_secret_key,
    save_signature,
    sign,
    uuv_code_family,
    verify,
)


def toy_params(n=24, k=12, w=7, lam0=48):
    return SchemeParams(n=n, k=k, w=w, lam0=lam0)


def toy_keypair(seed=0, **kw):
    params = toy_params(**kw)
    rng = random.Random(seed)
    return keygen(params, random_code_family(params.n, params.k), rng), rng


# --- parameters --------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(n=10, k=0, w=2)
    with pytest.raises(ValueError):
        SchemeParams(n=10, k=5, w=11)
    # toy weights below GV or at least (n-k)/2 are the workbench's normal
    # case; whether a weight is secure is the calculators' question
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SchemeParams(n=24, k=12, w=1)  # far below GV
        SchemeParams(n=24, k=12, w=7)  # above (n-k)/2


def test_salt_width_has_a_ceiling():
    assert SchemeParams(n=24, k=12, w=7, lam0=LAM0_MAX).lam0 == LAM0_MAX
    with pytest.raises(ValueError, match="exceeds 65536 bits"):
        SchemeParams(n=24, k=12, w=7, lam0=LAM0_MAX + 1)


# --- keygen -------------------------------------------------------------------


def test_keygen_publishes_scrambled_permuted_matrix():
    keypair, _ = toy_keypair(seed=1)
    sec, pub = keypair.secret, keypair.public
    expect = mat_mul(sec.scramble, sec.h_sec).permute_cols(sec.perm)
    assert pub.h_pub == expect
    assert rank(pub.h_pub) == keypair.params.n_k
    assert mat_mul(sec.scramble, sec.scramble_inv) == BitMatrix.identity(12)


def test_keygen_builds_no_frame_and_the_first_signature_verifies():
    keypair, rng = toy_keypair(seed=4)
    sec = keypair.secret
    for m in (sec.h_sec, sec.scramble, sec.scramble_inv, keypair.public.h_pub):
        assert "frame" not in vars(m) and "_columns" not in vars(m)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"first", hash_fn, rng)
    assert "frame" in vars(sec.h_sec)  # built by the signer's first decode
    assert verify(keypair.public, b"first", sig, hash_fn)


def test_keygen_deterministic_under_seed():
    a, _ = toy_keypair(seed=7)
    b, _ = toy_keypair(seed=7)
    assert a == b


@pytest.mark.parametrize("bad, error", [
    (random_matrix(11, 24, random.Random(0)).vstack(BitMatrix.zeros(1, 24)),
     "rank-deficient"),
    (random_matrix(11, 24, random.Random(0)), "wrong shape"),
], ids=("rank-deficient", "wrong-shape"))
def test_keygen_rejects_an_unusable_family_matrix_after_one_draw(bad, error):
    draws = []

    def family(rng):
        draws.append(rng)
        return bad

    with pytest.raises(ValueError, match=error):
        keygen(toy_params(), family, random.Random(0))
    assert len(draws) == 1


def test_uuv_family_shape():
    fam = uuv_code_family(16, 5, 3)
    h = fam(random.Random(2))
    assert h.nrows == 8 and h.ncols == 16
    assert rank(h) == 8


# --- decoder ------------------------------------------------------------------


def test_decode_hand_example():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    s = BitVector.from_bits([1, 0])
    e = decode_to_weight(h, s, 1, 50, random.Random(0))
    assert e is not None
    assert e in (BitVector.from_bits([1, 0, 0, 0]), BitVector.from_bits([0, 0, 1, 0]))


def test_decode_zero_syndrome_zero_weight():
    h = BitMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
    e = decode_to_weight(h, BitVector.zeros(2), 0, budget=5, rng=random.Random(0))
    assert e == BitVector.zeros(4)


def test_decode_unsolvable_micro_instance_returns_none():
    h = BitMatrix.from_dense([[1, 1]])
    s = BitVector.from_bits([1])
    assert decode_to_weight(h, s, 2, budget=200, rng=random.Random(0)) is None


def test_decode_output_always_checks():
    rng = random.Random(5)
    keypair, _ = toy_keypair(seed=5)
    h = keypair.secret.h_sec
    for _ in range(30):
        s = BitVector.random(12, rng)
        e = decode_to_weight(h, s, 7, budget=400, rng=rng)
        assert e is not None
        assert e.weight() == 7
        assert mat_vec_mul(h, e) == s


def permuting_decoder(h, s, w, budget, rng, hits=None):
    """The decoder as it was before the column-syndrome kernel: move the
    information set to the front, eliminate, sweep p, and permute the error
    back.  The seed weight p of a hit is appended to ``hits`` when given."""
    r, n = h.nrows, h.ncols
    window = n - r
    for _ in range(budget):
        cols = sorted(rng.sample(range(n), r))
        perm = front_permutation(cols, n)
        work = [perm.apply_bits(row) | 1 << (n + i) for i, row in enumerate(h.rows)]
        for col in range(r):
            pivot = next((i for i in range(col, r) if work[i] >> col & 1), None)
            if pivot is None:
                break
            work[col], work[pivot] = work[pivot], work[col]
            for i in range(r):
                if i != col and work[i] >> col & 1:
                    work[i] ^= work[col]
        else:
            u = BitMatrix(r, r, tuple(row >> n for row in work))
            hp = BitMatrix(r, window, tuple(row >> r & ((1 << window) - 1) for row in work))
            base = mat_vec_mul(u, s)
            for p in range(0, min(w, window) + 1):
                if w - p > r:
                    continue
                seed = BitVector.from_support(window, rng.sample(range(window), p))
                forced = base ^ mat_vec_mul(hp, seed)
                if forced.weight() == w - p:
                    if hits is not None:
                        hits.append(p)
                    return perm.inverse().apply(BitVector(n, forced.bits | seed.bits << r))
    return None


def decode_cases():
    """(case, h, s, w, budget): 400 small random shapes, a quarter of them
    with a rank-deficient h, then 60 at the benchmark's shape (r = 20,
    n = 40, w = 7), then 60 with windows of 22 or more, where the seeds of
    weight p <= 5 take the sampler's set branch."""
    for case in range(520):
        rng = random.Random(case)
        if case < 400:
            r = rng.randrange(1, 9)
            n = r + rng.randrange(1, 9)
        elif case < 460:
            r, n = 20, 40
        else:
            r = rng.randrange(1, 7)
            n = r + rng.randrange(22, 40)
        h = random_matrix(r, n, rng)
        if case % 4 == 0 and r > 1 and case < 400:  # force a rank-deficient h
            h = BitMatrix(r, n, h.rows[:-1] + (h.rows[0] ^ h.rows[-2],))
        w = rng.randrange(0, n + 1) if case < 400 or case >= 460 else 7
        if rng.random() < 0.5:
            s = mat_vec_mul(h, BitVector.from_support(n, rng.sample(range(n), w)))
        else:
            s = BitVector.random(r, rng)
        budget = rng.randrange(0, 30 if case < 400 else 60)
        yield case, h, s, w, budget, rng.getrandbits(64)


def test_decode_matches_permuting_reference():
    seen = Counter()
    for case, h, s, w, budget, seed in decode_cases():
        ours, theirs, hits = random.Random(seed), random.Random(seed), []
        got = decode_to_weight(h, s, w, budget, ours)
        r, n = h.nrows, h.ncols
        if rank(h) < r:  # no information set: None at once, with no draw
            assert got is None, case
        else:
            assert got == permuting_decoder(h, s, w, budget, theirs, hits), case
        assert ours.getstate() == theirs.getstate(), case
        seen["found" if got is not None else "exhausted"] += 1
        # p = 0 draws no seed, and a hit at p >= 1 builds its seed word
        seen["found at p = 0"] += hits == [0]
        seen["found at p >= 1"] += got is not None and hits != [0]
        seen["rank deficient"] += rank(h) < r
        seen["w > r"] += w > r
        seen["found at r = 20"] += got is not None and r == 20
        seen["found, window >= 22"] += got is not None and n - r >= 22
    assert min(seen.values()) >= 20, seen


def sample_shapes(rng):
    """The (n, k) sweep of the sampler oracles, drawn from rng: both
    branches, the setsize edges between them and empty ranges."""
    shapes = []
    for n in range(301):
        for k in range(min(n, 64) + 1):
            if k > 8 and rng.random() < 0.8:
                continue
            shapes.append((n, k))
    # CPython draws from a pool up to setsize and from a set above it
    for k in range(6, 65):
        setsize = 21 + 4 ** math.ceil(math.log(k * 3, 4))
        shapes += [(setsize, k), (setsize + 1, k)]
    shapes += [(-3, 0), (-1, 0)]  # random.sample(range(-3), 0) is []
    return shapes


REFUSED_SAMPLE_SHAPES = [(0, 1), (5, 6), (300, 301), (-3, 1), (-1, 1), (4, -1)]


def test_sample_matches_random_sample():
    """f2.sample against random.sample, by result and generator state: the
    first call per (n, k) builds its plan and later calls reuse it."""

    def check(n, k, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert sample(ours, n, k) == theirs.sample(range(n), k), (n, k)
        assert ours.getstate() == theirs.getstate(), (n, k)

    rng = random.Random(2024)
    shapes = sample_shapes(rng)
    for n, k in shapes:
        check(n, k, rng.getrandbits(64))  # builds the plan
        assert (n, k) in _SAMPLE_PLANS
        check(n, k, rng.getrandbits(64))  # reuses it
    # shapes interleaved on one pair of generators: no draw changes a plan
    ours, theirs = random.Random(7), random.Random(7)
    for n, k in rng.choices(shapes, k=3000):
        assert sample(ours, n, k) == theirs.sample(range(n), k), (n, k)
    assert ours.getstate() == theirs.getstate()
    # a refused shape draws nothing and keeps no plan
    for n, k in REFUSED_SAMPLE_SHAPES:
        ours, theirs = random.Random(n), random.Random(n)
        with pytest.raises(ValueError):
            theirs.sample(range(n), k)
        for _ in range(2):
            with pytest.raises(ValueError):
                sample(ours, n, k)
            assert (n, k) not in _SAMPLE_PLANS
        assert ours.getstate() == theirs.getstate()


def test_sample_plan_held_by_the_caller_matches_random_sample():
    """A plan fetched once and drawn three times through one bound
    getrandbits equals random.sample on a second generator, by result and
    state, and no draw changes the plan; a refused shape raises from
    sample_plan and keeps no plan."""
    rng = random.Random(2025)
    for n, k in sample_shapes(random.Random(2024)):
        plan = sample_plan(n, k)
        before = copy.deepcopy(plan)
        seed = rng.getrandbits(64)
        ours, theirs = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        for _ in range(3):
            assert sample_from(plan, getrandbits) == theirs.sample(range(n), k), (n, k)
            assert ours.getstate() == theirs.getstate(), (n, k)
        assert plan == before, (n, k)
        assert sample_plan(n, k) is plan
    for n, k in REFUSED_SAMPLE_SHAPES:
        with pytest.raises(ValueError):
            sample_plan(n, k)
        assert (n, k) not in _SAMPLE_PLANS


# --- sign / verify -------------------------------------------------------------


def test_sign_refuses_a_signature_its_public_key_rejects():
    keypair, rng = toy_keypair(seed=3, lam0=24)
    other, _ = toy_keypair(seed=4, lam0=24)
    hash_fn = FdhHash(keypair.params.n_k)
    # another key's matrix; and this key's matrix with 32-bit salts where
    # the signer's params draw 24-bit ones: weight and syndrome check out,
    # and verify still says no
    for public in (other.public, PublicKey(keypair.public.h_pub, keypair.public.w, 32)):
        mismatched = SignatureKeyPair(keypair.params, keypair.secret, public)
        with pytest.raises(SigningFailure, match="public key"):
            sign(mismatched, b"message", hash_fn, rng)
    # the matching pair signs, and the signature verifies
    sig = sign(keypair, b"message", hash_fn, rng)
    assert verify(keypair.public, b"message", sig, hash_fn)



def test_sign_verify_round_trip_and_rejections():
    keypair, rng = toy_keypair(seed=3)
    hash_fn = FdhHash(keypair.params.n_k)
    msg = b"round trip"
    sig = sign(keypair, msg, hash_fn, rng)
    assert sig.e.weight() == keypair.params.w
    assert verify(keypair.public, msg, sig, hash_fn)
    assert not verify(keypair.public, msg + b"!", sig, hash_fn)
    other = Signature(sig.e, BitVector(sig.salt.n, sig.salt.bits ^ 1))
    assert not verify(keypair.public, msg, other, hash_fn)


def test_single_bit_tampering_always_rejected():
    keypair, rng = toy_keypair(seed=4)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"tamper", hash_fn, rng)
    for i in range(keypair.params.n):
        assert not verify(
            keypair.public, b"tamper", Signature(BitVector(sig.e.n, sig.e.bits ^ 1 << i), sig.salt), hash_fn
        )


def test_verify_rejects_a_salt_of_the_wrong_width():
    # the hash reads message + salt bytes: b"ab" under the 24-bit salt X and
    # b"a" under the 32-bit salt b"b" + X hash the same string
    keypair, rng = toy_keypair(seed=6, lam0=24)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"ab", hash_fn, rng)
    assert verify(keypair.public, b"ab", sig, hash_fn)
    longer = BitVector.from_hex(b"b".hex() + sig.salt.to_hex(), 32)
    assert hash_fn(b"a", longer) == hash_fn(b"ab", sig.salt)
    assert not verify(keypair.public, b"a", Signature(sig.e, longer), hash_fn)


def test_verify_rejects_malformed_lengths():
    keypair, rng = toy_keypair(seed=6)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"m", hash_fn, rng)
    bad = Signature(BitVector.zeros(keypair.params.n + 1), sig.salt)
    assert not verify(keypair.public, b"m", bad, hash_fn)


def test_sign_deterministic_given_seed():
    keypair, _ = toy_keypair(seed=8)
    hash_fn = FdhHash(keypair.params.n_k)
    a = sign(keypair, b"det", hash_fn, random.Random(99))
    b = sign(keypair, b"det", hash_fn, random.Random(99))
    assert a == b


def test_sign_failure_propagates():
    # weight 0 with a nonzero hash target is undecodable
    keypair, rng = toy_keypair(seed=9, w=0)
    hash_fn = FdhHash(keypair.params.n_k)
    with pytest.raises(SigningFailure):
        sign(keypair, b"no solution here", hash_fn, rng, decoder_budget=20)


def test_salt_freshness_over_many_signatures():
    keypair, rng = toy_keypair(n=12, k=6, w=4, lam0=48, seed=10)
    hash_fn = FdhHash(keypair.params.n_k)
    salts = set()
    for _ in range(10_000):
        sig = sign(keypair, b"same message", hash_fn, rng, decoder_budget=400)
        salts.add(sig.salt.bits)
    assert len(salts) == 10_000


def test_measure_decoder_distance_reports_sane_values():
    keypair, rng = toy_keypair(n=12, k=6, w=4, lam0=48, seed=11)
    rho, fail = measure_decoder_distance(keypair.secret.h_sec, 4, 800, rng)
    assert 0.0 <= rho <= 1.0
    assert fail < 0.2


# --- wire formats ---------------------------------------------------------------


def test_key_files_round_trip(tmp_path):
    keypair, _ = toy_keypair(seed=12)
    pub_path = str(tmp_path / "key.pub")
    sec_path = str(tmp_path / "key.sec")
    save_public_key(pub_path, keypair.params, keypair.public)
    save_secret_key(sec_path, keypair.params, keypair.secret)
    params_p, public = load_public_key(pub_path)
    params_s, secret = load_secret_key(sec_path)
    assert (params_p.n, params_p.k, params_p.w, params_p.lam0) == (24, 12, 7, 48)
    assert public == keypair.public
    assert params_s == params_p
    assert secret == keypair.secret
    assert "frame" in vars(secret.h_sec)  # the load check's, kept for the signer
    # the secret key alone rebuilds the published matrix
    assert keypair_from_secret(params_s, secret).public == public


def test_key_file_magic_and_layout(tmp_path):
    keypair, _ = toy_keypair(seed=13)
    path = str(tmp_path / "k.pub")
    save_public_key(path, keypair.params, keypair.public)
    raw = open(path, "rb").read()
    assert raw.startswith(b"CBFDH1")
    import struct

    assert struct.unpack("<4I", raw[6:22]) == (24, 12, 7, 48)
    assert raw[22:23] == b"\n"


def test_key_file_rejects_corruption(tmp_path):
    keypair, _ = toy_keypair(seed=14)
    path = str(tmp_path / "k.pub")
    save_public_key(path, keypair.params, keypair.public)
    raw = bytearray(open(path, "rb").read())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.pub"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_public_key(str(bad))


def test_signature_file_round_trip(tmp_path):
    keypair, rng = toy_keypair(seed=15)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"file", hash_fn, rng)
    path = str(tmp_path / "sig.txt")
    save_signature(path, sig)
    assert load_signature(path, keypair.params) == sig
    text = open(path).read().splitlines()
    assert len(text) == 2
    bytes.fromhex(text[0]) and bytes.fromhex(text[1])


def test_signature_file_rejects_truncation(tmp_path):
    keypair, rng = toy_keypair(seed=16)
    hash_fn = FdhHash(keypair.params.n_k)
    sig = sign(keypair, b"file", hash_fn, rng)
    path = tmp_path / "sig.txt"
    save_signature(str(path), sig)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[1][:-2] + "\n")
    with pytest.raises(ValueError):
        load_signature(str(path), keypair.params)
