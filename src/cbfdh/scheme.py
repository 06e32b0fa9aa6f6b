"""Full-domain-hash signatures over syndrome decoding.

The secret key is a parity-check matrix ``h_sec`` drawn from a structured
family together with a random nonsingular scramble ``s`` and a column
permutation ``perm``; the public matrix is ``h_pub = s @ h_sec @ P``.  A
signature on message m is a pair (e, salt) with ``h_pub e^T = hash(m, salt)``
and ``|e| = w``: the signer hashes, unscrambles the syndrome with s^{-1},
decodes to weight w on ``h_sec``, and pushes the error through the
permutation.

The reference decoder is a randomized information-set search with weight
seeding, usable for any parity-check matrix at desk scale.  Its draws are
those of ``random.sample``, so a seeded signature replays byte for byte.
Its output law on S_w is close to but not exactly uniform;
:func:`measure_decoder_distance` estimates that gap for the reduction tooling.

Wire formats
------------
Key files start with magic ``CBFDH1``, then n, k, w, lambda0 as little-endian
32-bit words, then a newline, then matrices in the text format of
:meth:`cbfdh.f2.BitMatrix.to_text`.  The public file carries h_pub; the
secret file carries h_sec, s, s^{-1} and the permutation as a line of
0-based image indices.  Signature files are two lines: salt hex, then the
error row in hex; the padding bits of each last byte must be 0.
"""

from __future__ import annotations

import math
import random
import struct
from typing import TYPE_CHECKING, Callable

from ._record import FrozenRecord, set_field
from .f2 import (
    BitMatrix,
    BitVector,
    Permutation,
    inverse,
    mat_mul,
    mat_vec_mul,
    random_full_rank,
    random_permutation,
    sample,
)

if TYPE_CHECKING:  # for annotations only: keygen runs without hashing
    from .hashing import FdhHash

__all__ = [
    "SchemeParams",
    "SecretKey",
    "PublicKey",
    "SignatureKeyPair",
    "Signature",
    "SigningFailure",
    "random_code_family",
    "uuv_code_family",
    "keygen",
    "keypair_from_secret",
    "decode_to_weight",
    "sign",
    "verify",
    "measure_decoder_distance",
    "save_public_key",
    "load_public_key",
    "save_secret_key",
    "load_secret_key",
    "save_signature",
    "load_signature",
]

MAGIC = b"CBFDH1"
LAM0_MAX = 1 << 16  # salt width ceiling in bits, far above SURF's 256

CodeFamily = Callable[[random.Random], BitMatrix]


class SigningFailure(Exception):
    """The decoder exhausted its budget for this (message, salt) pair, or
    the signature failed the signer's own check against the public key."""


class SchemeParams(FrozenRecord):
    """Scheme parameters: length n, dimension k, signature weight w,
    security target lam, and salt width lam0 in bits."""

    def __init__(self, n: int, k: int, w: int, lam: int = 128, lam0: int = 64) -> None:
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        if not 0 <= w <= n:
            raise ValueError("weight outside [0, n]")
        if lam0 <= 0 or lam <= 0:
            raise ValueError("security and salt widths must be positive")
        if lam0 > LAM0_MAX:
            raise ValueError(f"salt width lam0 = {lam0} exceeds {LAM0_MAX} bits")
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "w", w)
        set_field(self, "lam", lam)
        set_field(self, "lam0", lam0)

    @property
    def n_k(self) -> int:
        return self.n - self.k

    @classmethod
    def with_salt_for(
        cls, n: int, k: int, w: int, lam: int, q_sign: float
    ) -> "SchemeParams":
        """Derive the salt width lam + 2*log2(q_sign) from a signing budget."""
        lam0 = math.ceil(lam + 2 * math.log2(q_sign))
        return cls(n=n, k=k, w=w, lam=lam, lam0=lam0)


class SecretKey(FrozenRecord):
    def __init__(
        self, h_sec: BitMatrix, scramble: BitMatrix, scramble_inv: BitMatrix,
        perm: Permutation,
    ) -> None:
        set_field(self, "h_sec", h_sec)
        set_field(self, "scramble", scramble)
        set_field(self, "scramble_inv", scramble_inv)
        set_field(self, "perm", perm)


class PublicKey(FrozenRecord):
    """h_pub, the signature weight w and the salt width lam0 in bits."""

    def __init__(self, h_pub: BitMatrix, w: int, lam0: int) -> None:
        set_field(self, "h_pub", h_pub)
        set_field(self, "w", w)
        set_field(self, "lam0", lam0)


class SignatureKeyPair(FrozenRecord):
    def __init__(
        self, params: SchemeParams, secret: SecretKey, public: PublicKey
    ) -> None:
        set_field(self, "params", params)
        set_field(self, "secret", secret)
        set_field(self, "public", public)


class Signature(FrozenRecord):
    def __init__(self, e: BitVector, salt: BitVector) -> None:
        set_field(self, "e", e)
        set_field(self, "salt", salt)


def random_code_family(n: int, k: int) -> CodeFamily:
    """Unstructured family: uniform full-rank (n-k) x n matrices."""

    def family(rng: random.Random) -> BitMatrix:
        return random_full_rank(n - k, n, rng)

    return family


def uuv_code_family(n: int, k_u: int, k_v: int) -> CodeFamily:
    """Family of (u, u+v) block parity checks on random component codes."""
    if n % 2:
        raise ValueError("length must be even")
    half = n // 2
    if not (0 < k_u < half and 0 < k_v < half):
        raise ValueError("component dimensions must lie in (0, n/2)")

    def family(rng: random.Random) -> BitMatrix:
        from .codes import uuv_parity_check

        h_u = random_full_rank(half - k_u, half, rng)
        h_v = random_full_rank(half - k_v, half, rng)
        return uuv_parity_check(h_u, h_v)

    return family


def keygen(
    params: SchemeParams,
    family: CodeFamily,
    rng: random.Random,
) -> SignatureKeyPair:
    """Draw (h_sec, s, perm) and publish h_pub = s @ h_sec @ P.  Both code
    families return full-rank matrices by construction, so one h_sec is
    drawn, a rank-deficient one (no frame) is rejected, and the frames the
    full-rank tests built serve the signer and :func:`inverse`."""
    r = params.n_k
    h_sec = family(rng)
    if h_sec.nrows != r or h_sec.ncols != params.n:
        raise ValueError("family produced a matrix of the wrong shape")
    if h_sec.frame is None:
        raise ValueError("family produced a rank-deficient matrix")
    scramble = random_full_rank(r, r, rng)
    perm = random_permutation(params.n, rng)
    secret = SecretKey(h_sec, scramble, inverse(scramble), perm)
    return keypair_from_secret(params, secret)


def keypair_from_secret(params: SchemeParams, secret: SecretKey) -> SignatureKeyPair:
    """Complete a secret key with its public matrix h_pub = s @ h_sec @ P."""
    h_pub = mat_mul(secret.scramble, secret.h_sec).permute_cols(secret.perm)
    return SignatureKeyPair(params, secret, PublicKey(h_pub, params.w, params.lam0))


def decode_to_weight(
    h: BitMatrix,
    s: BitVector,
    w: int,
    budget: int,
    rng: random.Random,
) -> BitVector | None:
    """Find e with ``h e^T = s`` and ``|e| = w``, or None when the budget
    runs out.  A None return means "gave up", never "no solution exists".

    Each trial picks a random information set (r columns) and sweeps the
    window weight p: p random support bits are seeded on the window and the
    trial accepts when the forced part has weight w - p.  Targets live in
    the coordinates of h's :class:`cbfdh.f2.SystematicFrame`, built once
    per matrix, and each trial solves only on its columns outside the
    frame's reference set.  A rank-deficient h has no frame: every
    selection is singular, so its trials draw their columns and nothing
    else.
    """
    r, n = h.nrows, h.ncols
    if s.n != r:
        raise ValueError("syndrome length mismatch")
    frame = h.frame
    if frame is None:
        for _ in range(budget):
            sample(rng, n, r)
        return None
    coords, base, select = frame.coords, frame.reduce(s.bits), frame.select
    window = n - r
    weights = range(max(0, w - r), min(w, window) + 1)
    for _ in range(budget):
        selection = select(sample(rng, n, r))
        if selection is None:
            continue
        rest, reduce = selection.window, selection.reduce
        for p in weights:
            seed, target = 0, base
            for t in sample(rng, window, p):
                seed |= 1 << t
                target ^= coords[rest[t]]
            forced = reduce(target)
            if forced.bit_count() == w - p:
                return BitVector(n, selection.complete(forced, seed))
    return None


def sign(
    keypair: SignatureKeyPair,
    message: bytes,
    hash_fn: FdhHash | Callable[[bytes, BitVector], BitVector],
    rng: random.Random,
    decoder_budget: int = 1000,
) -> Signature:
    """Sign: draw a fresh salt, hash, unscramble, decode, permute.

    Decoder failure raises :class:`SigningFailure`, and so does a signature
    that fails the public key's check (a faulty key or signer).
    """
    params, secret = keypair.params, keypair.secret
    salt = BitVector.random(params.lam0, rng)
    target = hash_fn(message, salt)
    if target.n != params.n_k:
        raise ValueError("hash output width does not match n - k")
    unscrambled = mat_vec_mul(secret.scramble_inv, target)
    e_sec = decode_to_weight(secret.h_sec, unscrambled, params.w, decoder_budget, rng)
    if e_sec is None:
        raise SigningFailure(
            f"decoder exhausted {decoder_budget} information sets"
        )
    e = secret.perm.apply(e_sec)
    if e.weight() != params.w or mat_vec_mul(keypair.public.h_pub, e) != target:
        raise SigningFailure("signature fails the public key's check")
    return Signature(e, salt)


def verify(
    public: PublicKey,
    message: bytes,
    sig: Signature,
    hash_fn: FdhHash | Callable[[bytes, BitVector], BitVector],
) -> bool:
    """Total verification: weight check and syndrome match, False on any
    malformed input.  The salt must be lam0 bits wide: the hash reads the
    message and salt bytes as one string, so a shorter message under a
    longer salt would otherwise hash the same."""
    if sig.e.n != public.h_pub.ncols or sig.salt.n != public.lam0:
        return False
    if sig.e.weight() != public.w:
        return False
    target = hash_fn(message, sig.salt)
    if target.n != public.h_pub.nrows:
        return False
    return mat_vec_mul(public.h_pub, sig.e) == target


def measure_decoder_distance(
    h: BitMatrix,
    w: int,
    samples: int,
    rng: random.Random,
    decoder_budget: int = 300,
) -> tuple[float, float]:
    """Plug-in estimate of the total-variation gap between the decoder's
    output law on uniform syndromes and uniform on S_w.

    Returns (rho_hat, failure_rate).  The estimate includes the usual
    plug-in upward bias of order sqrt(|S_w| / samples); it is meant as a
    reported diagnostic, not a certified bound.
    """
    n = h.ncols
    size = math.comb(n, w)
    if size > 1 << 16:
        raise ValueError("S_w too large to tally at desk scale")
    counts: dict[int, int] = {}
    failures = 0
    for _ in range(samples):
        s = BitVector.random(h.nrows, rng)
        e = decode_to_weight(h, s, w, decoder_budget, rng)
        if e is None:
            failures += 1
        else:
            counts[e.bits] = counts.get(e.bits, 0) + 1
    got = sum(counts.values())
    if got == 0:
        return 1.0, 1.0
    uniform = 1.0 / size
    mass_seen = sum(abs(c / got - uniform) for c in counts.values())
    mass_missing = (size - len(counts)) * uniform
    return (mass_seen + mass_missing) / 2, failures / samples


# --- wire formats -----------------------------------------------------------


def _header(params: SchemeParams) -> bytes:
    return MAGIC + struct.pack("<4I", params.n, params.k, params.w, params.lam0) + b"\n"


def _parse_header(data: bytes) -> tuple[SchemeParams, bytes]:
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic: not a key file")
    fixed = len(MAGIC) + 16
    if len(data) < fixed + 1 or data[fixed : fixed + 1] != b"\n":
        raise ValueError("truncated key header")
    n, k, w, lam0 = struct.unpack("<4I", data[len(MAGIC) : fixed])
    return SchemeParams(n=n, k=k, w=w, lam0=lam0), data[fixed + 1 :]


def _split_matrix_blocks(text: str, count: int) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    blocks: list[str] = []
    pos = 0
    for _ in range(count):
        if pos >= len(lines):
            raise ValueError("truncated key body")
        try:
            nrows = int(lines[pos].split()[0])
        except ValueError as exc:
            raise ValueError(f"bad matrix header: {lines[pos]!r}") from exc
        if nrows < 0:
            raise ValueError(f"bad matrix header: {lines[pos]!r}")
        blocks.append("\n".join(lines[pos : pos + 1 + nrows]))
        pos += 1 + nrows
    blocks.append("\n".join(lines[pos:]))
    return blocks


def save_public_key(path: str, params: SchemeParams, public: PublicKey) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(params))
        fh.write(public.h_pub.to_text().encode())


def load_public_key(path: str) -> tuple[SchemeParams, PublicKey]:
    with open(path, "rb") as fh:
        params, body = _parse_header(fh.read())
    h_pub = BitMatrix.from_text(body.decode())
    if h_pub.nrows != params.n_k or h_pub.ncols != params.n:
        raise ValueError("public matrix shape disagrees with the header")
    return params, PublicKey(h_pub, params.w, params.lam0)


def save_secret_key(path: str, params: SchemeParams, secret: SecretKey) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(params))
        fh.write(secret.h_sec.to_text().encode())
        fh.write(secret.scramble.to_text().encode())
        fh.write(secret.scramble_inv.to_text().encode())
        fh.write((" ".join(str(i) for i in secret.perm.images) + "\n").encode())


def load_secret_key(path: str) -> tuple[SchemeParams, SecretKey]:
    with open(path, "rb") as fh:
        params, body = _parse_header(fh.read())
    h_block, s_block, si_block, tail = _split_matrix_blocks(body.decode(), 3)
    h_sec = BitMatrix.from_text(h_block)
    scramble = BitMatrix.from_text(s_block)
    scramble_inv = BitMatrix.from_text(si_block)
    perm = Permutation(tuple(int(tok) for tok in tail.split()))
    if h_sec.nrows != params.n_k or h_sec.ncols != params.n:
        raise ValueError("secret matrix shape disagrees with the header")
    if mat_mul(scramble, scramble_inv) != BitMatrix.identity(params.n_k):
        raise ValueError("stored scramble inverse is inconsistent")
    if perm.n != params.n:
        raise ValueError("permutation length disagrees with the header")
    return params, SecretKey(h_sec, scramble, scramble_inv, perm)


def save_signature(path: str, sig: Signature) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(sig.salt.to_hex() + "\n")
        fh.write(sig.e.to_hex() + "\n")


def load_signature(path: str, params: SchemeParams) -> Signature:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("signature file must hold salt and error lines")
    salt, e = (
        _signature_field(line, bits) for line, bits in zip(lines, (params.lam0, params.n))
    )
    return Signature(e, salt)


def _signature_field(line: str, bits: int) -> BitVector:
    """A ``bits``-wide field, read strictly: the padding bits of its last
    byte must be 0, so each signature has exactly one encoding."""
    data = bytes.fromhex(line)
    if len(data) != (bits + 7) // 8:
        raise ValueError("signature field lengths disagree with the parameters")
    field = BitVector.from_bytes(data, bits)
    if field.to_bytes() != data:
        raise ValueError("nonzero padding bits in a signature field")
    return field
