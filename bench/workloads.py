"""The four benchmark workloads.

Each workload turns the run seed into a fixed list of ops; the library sees
only those generated inputs.  ``run(op)`` does one op, checks its result
and returns the bytes that go into the run digest; a failed check raises
:class:`OpFailure`.  Constructing a workload is its set-up.

Why these four:

- ``sign-verify``: the signer's decoder on one target per op, over eight keys
  (``decode_to_weight`` -> ``systematic_form``).  Exercises the
  information-set kernel and bypasses the multi-target (DOOM) join, so it is
  the control for DOOM-side changes.
- ``doom-attack``: one ``doom_attack`` against 1024 hashed targets per op;
  per-target probing dominates.
- ``game-ladder``: one trial per op of each reduction game in turn, at the
  ``simulate`` defaults.  Tiny matrices, so per-call overhead (oracle memo
  tables, keygen per trial, secretless signing) dominates rather than
  elimination.
- ``cli-cold``: one fresh ``python -m cbfdh`` process per op, as users run
  the workbench; mostly interpreter start-up and imports.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import warnings

from cbfdh import hashing, isd, reduction, scheme

from measure import CHILD_TIMEOUT_S, CPU, SPAWN

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class OpFailure(Exception):
    """An op's result failed its check."""


def _quiet_params(*args, **kwargs) -> scheme.SchemeParams:
    # toy sizes trip the scheme's security warnings on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return scheme.SchemeParams(*args, **kwargs)


class SignVerify:
    name = "sign-verify"
    # Ops per second of --seconds, here twice the reference-speed rate of
    # about 115 ops/s.  The information sets a signature needs are geometric, so
    # the mean work of a run varies with its seed; doubling the ops halved
    # that variance.
    rate = 230.0
    pin_ops = 24  # ops in the prefix whose digest is pinned
    # Signing cost depends on the key: mean information sets per signature
    # ranged 27-32 over eight single-key seeds.  Ops cycle over several keys
    # so that one key's luck does not move the run.
    keys = 8
    cycle = keys  # op counts are whole multiples of this
    ref = CPU  # the reference its timings are normalised with

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        params = _quiet_params(40, 20, 7, lam=16, lam0=24)
        rng = random.Random(f"{self.name}/{seed}/keys")
        self.keypairs = [
            self._through_files(params, scheme.keygen(params, scheme.random_code_family(40, 20), rng), workdir, i)
            for i in range(self.keys)
        ]
        self.hash = hashing.FdhHash(params.n_k)

    @staticmethod
    def _through_files(params, keypair, workdir: str, i: int) -> scheme.SignatureKeyPair:
        pk_path = os.path.join(workdir, f"sv{i}.pub")
        sk_path = os.path.join(workdir, f"sv{i}.sec")
        scheme.save_public_key(pk_path, params, keypair.public)
        scheme.save_secret_key(sk_path, params, keypair.secret)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded, public = scheme.load_public_key(pk_path)
            _, secret = scheme.load_secret_key(sk_path)
        if public != keypair.public or secret != keypair.secret:
            raise OpFailure("key files do not round-trip")
        return scheme.SignatureKeyPair(loaded, secret, public)

    def ops(self, count: int) -> list[tuple[int, bytes, int]]:
        rng = random.Random(f"{self.name}/{self.seed}/ops")
        return [(i % self.keys, rng.randbytes(16), rng.getrandbits(64)) for i in range(count)]

    def run(self, op: tuple[int, bytes, int]) -> bytes:
        key, message, signer_seed = op
        keypair = self.keypairs[key]
        sig = scheme.sign(keypair, message, self.hash, random.Random(signer_seed))
        if not scheme.verify(keypair.public, message, sig, self.hash):
            raise OpFailure("verify rejected a fresh signature")
        return sig.salt.to_bytes() + sig.e.to_bytes()


class DoomAttack:
    name = "doom-attack"
    rate = 28.0
    pin_ops = 4
    cycle = 1
    ref = CPU
    n, k, w, p, l, q = 40, 20, 3, 2, 4, 1024

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.params = isd.IsdParams(self.p, self.l)

    def ops(self, count: int) -> list[int]:
        rng = random.Random(f"{self.name}/{self.seed}/ops")
        return [rng.getrandbits(64) for _ in range(count)]

    def run(self, op_seed: int) -> bytes:
        rng = random.Random(op_seed)
        h, s, _ = isd.plant_instance(self.n, self.k, self.w, rng)
        prefix = op_seed.to_bytes(8, "big")
        targets = [prefix + j.to_bytes(2, "big") for j in range(self.q)]
        planted = targets[-1]

        def hash_fn(t: bytes):
            # q - 1 honest hash decoys, the planted syndrome last
            return s if t == planted else hashing.syndrome_hash(t, h.nrows)

        result = isd.doom_attack(
            h, hash_fn, self.w, self.params, self.q, rng, targets=targets
        )
        if not result.found:
            raise OpFailure(f"budget exhausted after {result.iterations} trials")
        sol = result.solution
        isd.DoomSolution.checked(h, hash_fn, self.w, sol.e, sol.preimage)
        if targets[result.target_index] != sol.preimage:
            raise OpFailure("target index does not name the solved preimage")
        return (
            result.iterations.to_bytes(4, "big")
            + result.target_index.to_bytes(2, "big")
            + sol.e.to_bytes()
        )


class GameLadder:
    name = "game-ladder"
    # 1.5 times the reference-speed rate of about 540 ops/s: a few trials in
    # a thousand decode nothing and cost ~150 ops each, so busy time follows
    # how many of them a seed draws.
    rate = 810.0
    pin_ops = 60
    cycle = 6
    ref = CPU

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        params = _quiet_params(12, 6, 4, lam=8, lam0=24)
        self.config = reduction.GameConfig(params)
        self.adversary = reduction.OmniscientAdversary(params)

    def ops(self, count: int) -> list[tuple[int, int]]:
        rng = random.Random(f"{self.name}/{self.seed}/ops")
        return [(i % 6, rng.getrandbits(64)) for i in range(count)]

    def run(self, op: tuple[int, int]) -> bytes:
        game_id, trial_seed = op
        final = game_id == 5
        stats = reduction.run_game(
            game_id, self.adversary, self.config, 1, random.Random(trial_seed),
            keep_transcripts=final,
        )
        win = stats.successes[game_id]
        out = bytes([game_id, win])
        if final and win:
            solution = reduction.extract_doom_solution(stats.transcripts[0])
            if solution is None:
                raise OpFailure("a game-5 win did not extract")
            out += solution.e.to_bytes()
        return out


# The pinned command list; each op runs the next one, in this order, so
# sign and verify always find the key and signature files of their cycle.
CLI_COMMANDS = (
    "keygen", "sign", "verify", "attack-sd", "attack-doom",
    "exponents", "bound", "simulate",
)
_CLI_ISD = ["--n", "24", "--k", "12", "--w", "4", "--p", "1", "--l", "2"]


def _records(lines: list[str]) -> dict[str, str]:
    return dict(
        part.split("=", 1)
        for line in lines
        if not line.startswith("#")
        for part in line.split(" ")
        if "=" in part
    )


def _check_cli_output(kind: str, lines: list[str]) -> None:
    rec = _records(lines)
    if kind == "sign":
        ok = int(rec["e"], 16).bit_count() == 7
    elif kind == "verify":
        ok = rec["result"] == "ACCEPT"
    elif kind.startswith("attack"):
        ok = rec["found"] == "1" and rec["weight"] == "4"
    elif kind == "simulate":
        ok = rec["g5_wins"] == rec["g5_extracted"]
    else:
        ok = True
    if not ok:
        raise OpFailure(f"{kind} printed an unexpected result")


class CliCold:
    name = "cli-cold"
    rate = 1.6
    pin_ops = len(CLI_COMMANDS)
    cycle = len(CLI_COMMANDS)
    ref = SPAWN

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir  # children find the library on PYTHONPATH
        self.tracer = None  # set by the traced pass

    def ops(self, count: int) -> list[list[str]]:
        rng = random.Random(f"{self.name}/{self.seed}/ops")
        out = []
        message = ""
        for i in range(count):
            kind = CLI_COMMANDS[i % len(CLI_COMMANDS)]
            if kind == "keygen":
                message = rng.randbytes(8).hex()
            seed = str(rng.getrandbits(32))
            out.append(self._argv(kind, seed, message))
        return out

    @staticmethod
    def _argv(kind: str, seed: str, message: str) -> list[str]:
        if kind == "keygen":
            return [
                "keygen", "--n", "24", "--k", "12", "--w", "7", "--lambda", "16",
                "--lambda0", "24", "--seed", seed,
                "--public-key", "pk.key", "--secret-key", "sk.key",
            ]
        if kind == "sign":
            return [
                "sign", "--secret-key", "sk.key", "--signature", "m.sig",
                "--message", message, "--seed", seed,
            ]
        if kind == "verify":
            return [
                "verify", "--public-key", "pk.key", "--signature", "m.sig",
                "--message", message,
            ]
        if kind == "attack-sd":
            return ["attack", "--mode", "sd", *_CLI_ISD, "--budget", "2000", "--seed", seed]
        if kind == "attack-doom":
            return ["attack", "--mode", "doom", "--q", "8", *_CLI_ISD, "--seed", seed]
        if kind == "bound":
            return ["bound", "--preset", "surf", "--seed", seed]
        if kind == "simulate":
            return ["simulate", "--trials", "4", "--seed", seed]
        return [kind, "--seed", seed]

    @staticmethod
    def kind(argv: list[str]) -> str:
        if argv[0] == "attack":
            return "attack-" + argv[2]
        return argv[0]

    def run(self, argv: list[str]) -> bytes:
        trace_path = os.path.join(self.workdir, "trace.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cbfdh", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "cli", trace_path, *argv]
        proc = subprocess.run(
            cmd, cwd=self.workdir, capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise OpFailure(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-400:]!r}")
        lines = proc.stdout.decode().splitlines()
        if not lines or not lines[0].startswith(f"command={argv[0]} "):
            raise OpFailure(f"{argv[0]} did not echo its configuration first")
        _check_cli_output(self.kind(argv), lines)
        if self.tracer is not None:
            with open(trace_path, encoding="utf-8") as fh:
                self.tracer.absorb(json.load(fh))
        return proc.stdout


WORKLOADS = {w.name: w for w in (SignVerify, DoomAttack, GameLadder, CliCold)}
