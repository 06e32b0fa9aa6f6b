"""Batch command-line frontend for the workbench.

Seven subcommands tie the library together: keygen/sign/verify drive the
signature scheme on flat files, attack runs the decoders on planted
instances, exponents prints the asymptotic cost table, bound evaluates the
security-loss terms, and simulate runs the oracle-game harness.

Every run is reproducible from its first output line: the resolved
configuration, seed included, is echoed before any result.  ``COMMANDS``
names each command's handler, help line and echo keys, and declares its
options; ``Report`` writes the echo from them, so a handler passes only the
values it resolved (the key file's n, k, w; attack's q; bound's preset,
lambda and inputs).  ``main`` reads a command line spelled exactly as the
table spells it straight from the table; argparse, built from the same
table, reads every other one: help, abbreviations and input errors.  Output
is line-delimited key=value records in both formats; text mode adds comment
headers.  Each line is flushed as it is printed, so a stopped or killed run
keeps its echo; handlers check inputs first, so an input error prints
nothing.  Exit codes: 0 success, 1 verification reject, 2 input error, 3
budget exhausted, 128 + the signal number after SIGINT or SIGTERM, whose
handler ends the process at once, and 141 (128 + SIGPIPE), with nothing on
stderr, when the reader closes stdout.

The library is reached through its modules (``scheme.sign``,
``isd.doom_attack``), which the package loads on first use, so each
command runs only the library modules it calls.
"""

from __future__ import annotations

import _signal  # signal's builtin core; signal's enums cost a cold command 1 ms
import functools
import math
import os
import random
import sys
import types

from . import STOP_SIGNALS, exponents, f2, hashing, isd, reduction, scheme

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: argparse loads where a parser is built
    import argparse

ATTACK_SIZE_GUARD = 64
RHO_SAMPLES = 500  # the decoder outputs simulate measures rho_hat over

# the inputs of the Theorem 1 loss bound, each given as a decimal or 2^x
# literal; theorem1_bound_log2 takes each as log2_<name>
BOUND_INPUTS = ("eps_doom", "dist", "exp_rho_pub", "rho_sign", "q_hash", "q_sign")

# parser dests echoed under another name
_ECHO_NAMES = {"lam": "lambda", "lam0": "lambda0"}


# --- parsing helpers ---------------------------------------------------------------


def parse_count(text: str) -> int:
    """Non-negative integer up to 2^64, given as decimal or a 2^x literal."""
    text = text.strip()
    if text.startswith("2^"):
        # a negative exponent fails the shift; one above 64 fails below
        value = 1 << min(int(text[2:]), 65)
    else:
        value = int(text)
    if value < 0:
        raise ValueError(f"count {text!r} must be non-negative")
    if value > 1 << 64:
        raise ValueError(f"count {text!r} exceeds 2^64")
    return value


def parse_workers(text: str) -> int:
    """Process count for a trial pool: an integer of at least 1."""
    value = int(text)
    if value < 1:
        import argparse  # its error type keeps the message argparse prints

        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


def parse_level_log2(text: str) -> float:
    """Non-negative quantity, given as decimal or a 2^x literal, in log2.

    Zero maps to -inf so downstream sums can drop the term exactly.  A
    decimal that a float cannot hold, rounding to 0 or to infinity, is
    refused rather than read as another value.
    """
    text = text.strip()
    if text.startswith("2^"):
        return float(text[2:])
    value = float(text)
    if value < 0:
        raise ValueError(f"quantity {text!r} must be non-negative")
    nonzero = any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0])
    if value == math.inf or (value == 0 and nonzero):
        raise ValueError(f"quantity {text!r} lies outside float range; give it as 2^x")
    if value == 0:
        return -math.inf
    return math.log2(value)


def _fmt_log2(x: float) -> str:
    if x == -math.inf:
        return "-inf"
    return f"{x + 0.0 if x else 0.0:.4f}"


def _fmt_pow2(x: float) -> str:
    return "0" if x == -math.inf else "2^" + _fmt_log2(x)


class Report:
    """Prints and flushes each output line at once; text mode keeps # headers,
    structured drops them so every line splits into key=value fields.  The
    first line echoes the command's ``COMMANDS`` keys, read from the
    arguments overlaid with the values the command resolved; a key that
    resolves to None is left out."""

    def __init__(self, args: argparse.Namespace, **resolved: object) -> None:
        self.fmt = args.fmt
        values = {**vars(args), **resolved}
        self.record(
            ("command", args.command),
            *(
                (_ECHO_NAMES.get(key, key), values[key])
                for key in COMMANDS[args.command][2]
                if values[key] is not None
            ),
        )

    def header(self, title: str) -> None:
        if self.fmt == "text":
            print(f"# {title}", flush=True)

    def record(self, *pairs: tuple[str, object]) -> None:
        print(" ".join(f"{k}={v}" for k, v in pairs), flush=True)

    def note(self, text: str) -> None:
        line = f"# {text}" if self.fmt == "text" else "note=" + text.replace(" ", "_")
        print(line, flush=True)


def _scheme_params(args: argparse.Namespace) -> scheme.SchemeParams:
    return scheme.SchemeParams(
        n=args.n, k=args.k, w=args.w, lam=args.lam, lam0=args.lam0
    )


def _read_message(args: argparse.Namespace) -> bytes:
    if (args.message is None) == (args.message_file is None):
        raise ValueError("give exactly one of --message and --message-file")
    if args.message is not None:
        return args.message.encode()
    with open(args.message_file, "rb") as fh:
        return fh.read()


# --- key and signature commands -----------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    params = _scheme_params(args)
    k_u = args.k_u
    if args.family == "uuv":
        # h_sec has n - k rows, (n/2 - k_u) + (n/2 - k_v) of them
        k_u = k_u if k_u is not None else (args.k + 1) // 2
        family = scheme.uuv_code_family(args.n, k_u, args.k - k_u)
    elif k_u is not None:
        raise ValueError("--ku needs --family uuv")
    else:
        family = scheme.random_code_family(args.n, args.k)
    keypair = scheme.keygen(params, family, random.Random(args.seed))
    scheme.save_secret_key(args.secret_key, params, keypair.secret)
    scheme.save_public_key(args.public_key, params, keypair.public)
    report = Report(args, k_u=k_u)
    report.record(("wrote_secret", args.secret_key))
    report.record(("wrote_public", args.public_key))
    return 0


def cmd_sign(args: argparse.Namespace) -> int:
    message = _read_message(args)
    params, secret = scheme.load_secret_key(args.secret_key)
    keypair = scheme.keypair_from_secret(params, secret)
    hash_fn = hashing.FdhHash(params.n_k)
    try:
        sig = scheme.sign(
            keypair,
            message,
            hash_fn,
            random.Random(args.seed),
            decoder_budget=args.budget,
        )
    except scheme.SigningFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    scheme.save_signature(args.signature, sig)
    report = Report(args, n=params.n, k=params.k, w=params.w)
    report.record(("wrote_signature", args.signature))
    report.record(("salt", sig.salt.to_hex()), ("e", sig.e.to_hex()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    message = _read_message(args)
    params, public = scheme.load_public_key(args.public_key)
    sig = scheme.load_signature(args.signature, params)
    ok = scheme.verify(public, message, sig, hashing.FdhHash(params.n_k))
    report = Report(args, n=params.n, k=params.k, w=params.w)
    report.record(("result", "ACCEPT" if ok else "REJECT"))
    return 0 if ok else 1


# --- attack -------------------------------------------------------------------------


def cmd_attack(args: argparse.Namespace) -> int:
    if args.q is not None and args.mode != "doom":
        raise ValueError("--q needs --mode doom")
    q = 1 if args.q is None else args.q
    if args.workers > 1 and q > isd.DOOM_WORKERS_MAX_Q:  # each target is hashed up front
        raise ValueError(f"--q above {isd.DOOM_WORKERS_MAX_Q} needs --workers 1")
    if args.n > ATTACK_SIZE_GUARD and not args.force:
        raise ValueError(
            f"n={args.n} exceeds the toy-scale guard "
            f"({ATTACK_SIZE_GUARD}); pass --force to run anyway"
        )
    isd_params = isd.IsdParams(args.p, args.l, args.budget)
    est = isd.isd_success(args.n, args.k, args.w, args.p, args.l, q=q)
    if args.mode == "doom":
        # the first of the q targets
        planted_target = next(isd.default_doom_targets(q))
    rng = random.Random(args.seed)
    h, s, planted = isd.plant_instance(args.n, args.k, args.w, rng)

    report = Report(args, q=q)
    report.record(("planted", planted.to_hex()))
    if args.mode == "doom":
        def hash_fn(t: bytes) -> f2.BitVector:
            # the first target carries the planted syndrome so the instance
            # stays solvable; the rest are honest hash decoys
            if t == planted_target:
                return s
            return hashing.syndrome_hash(b"attack:" + t, h.nrows)

        result = isd.doom_attack(
            h, hash_fn, args.w, isd_params, q, rng, workers=args.workers
        )
    else:
        result = isd.generalized_isd(
            h, s, args.w, isd_params, rng, workers=args.workers
        )

    report.record(
        ("predicted_iteration_success", _fmt_pow2(est.surrogate_log2)),
        ("predicted_iterations", _fmt_pow2(-est.surrogate_log2)),
    )
    if result.found:
        e_vec = result.solution.e if args.mode == "doom" else result.solution
        pairs = [
            ("found", 1),
            ("iterations", result.iterations),
            ("solution", e_vec.to_hex()),
            ("weight", e_vec.weight()),
        ]
        if args.mode == "doom":
            pairs.append(("target_index", result.target_index))
        report.record(*pairs)
        return 0
    report.record(("found", 0), ("iterations", result.iterations))
    print(f"error: budget of {args.budget} iterations exhausted", file=sys.stderr)
    return 3


# --- exponents ----------------------------------------------------------------------

DEFAULT_EXPONENT_ROWS = ((0.5, 0.11), (0.5, 0.190899))


def cmd_exponents(args: argparse.Namespace) -> int:
    omega = args.omega
    if args.rate is None:
        if omega is not None:
            raise ValueError("--omega needs --rate")
        rows = DEFAULT_EXPONENT_ROWS
    else:
        if omega is None:
            omega = exponents.gv_relative_weight(args.rate)
        rows = ((args.rate, omega),)
    points = [exponents.RatePoint(rate, omega) for rate, omega in rows]
    report = Report(args, omega=omega)
    report.header("asymptotic cost exponents, base-2 per bit")
    for pt in points:
        unique = pt.omega < exponents.gv_relative_weight(pt.rate)
        report.record(
            ("rate", f"{pt.rate:.6f}"),
            ("omega", f"{pt.omega:.6f}"),
            ("prange_classical", f"{exponents.prange_exponent_classical(pt):.6f}"),
            ("prange_quantum", f"{exponents.prange_exponent_quantum(pt):.6f}"),
            ("doom_quantum", f"{exponents.doom_quantum_exponent(pt).exponent:.6f}"),
            ("regime", "unique-solution" if unique else "many-solutions"),
        )
        if unique:
            report.note(
                "omega below the GV weight: unique-solution regime "
                "(a random syndrome has at most one preimage on average)"
            )
    return 0


# --- bound --------------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    # each input is the flag if given, else the preset's value, else 0
    preset = exponents.SURF_PRESET if args.preset == "surf" else {}
    values = {}
    for key in BOUND_INPUTS:
        given = getattr(args, key)
        values[key] = preset.get(key, "0") if given is None else given
    lam = preset.get("lam", 128) if args.lam is None else args.lam
    logs = {k: parse_level_log2(v) for k, v in values.items()}

    bound = exponents.theorem1_bound_log2(
        **{f"log2_{k}": v for k, v in logs.items()}, lam=lam
    )

    report = Report(args, preset=args.preset or "none", lam=lam, **values)
    if preset:
        report.record(
            *((f"preset_{k}", preset[k]) for k in ("n", "k", "k_u", "k_v", "w"))
        )
    report.header("security-loss terms")
    for name, value, item in bound.terms():
        report.record(
            ("term", name),
            ("log2", _fmt_log2(value)),
            ("value", _fmt_pow2(value)),
            ("condition_item", item if item is not None else "-"),
        )
    report.record(
        ("total_log2", _fmt_log2(bound.total)), ("total", _fmt_pow2(bound.total))
    )

    report.header("negligibility checks (threshold 2^{-lambda/2})")
    for item in bound.side_conditions():
        # "+ 0.0" prints the -0.0 threshold of lambda 0 as 0.0
        report.record(
            (f"condition{item.index}", "pass" if item.passed else "fail"),
            ("term_log2", _fmt_log2(item.value_log2)),
            ("threshold_log2", f"{item.threshold_log2 + 0.0:.1f}"),
        )
    report.record(
        ("condition3", "accepted-as-input"),
        ("dist_log2", _fmt_log2(logs["dist"])),
    )

    if preset:
        reference = preset["zhandry_reference_log2"]
        report.record(
            ("zhandry_reference_log2", reference),
            ("zhandry_preconstant_log2", f"{bound.zhandry_preconstant:.2f}"),
            ("zhandry_term_log2", _fmt_log2(bound.zhandry_term)),
        )
        report.note(
            f"the published surf estimate quotes 2^{reference} for the oracle-swap "
            f"term; direct evaluation gives 2^{bound.zhandry_preconstant:.1f} before "
            f"the 8*pi/sqrt(3) factor and 2^{bound.zhandry_term:.1f} with it; this "
            "report keeps the computed value"
        )
    return 0


# --- simulate -----------------------------------------------------------------------


def _parse_games(text: str) -> list[int]:
    if text == "all":
        return list(range(6))
    try:
        games = sorted({int(part) for part in text.split(",")})
    except ValueError:
        games = None
    if games is None or any(g < 0 or g > 5 for g in games):
        raise ValueError(
            f"--game {text!r}: give comma-separated game ids in 0..5, or all"
        )
    return games


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _scheme_params(args)
    games = _parse_games(args.games)
    game_config = reduction.GameConfig(params)
    adversary = reduction.OmniscientAdversary(params)
    # the decoder-distance measurement has its own seed; taking it first
    # makes an S_w too large to tally fail before any game is played
    rng = random.Random(args.seed * 1_000_003 + 97)
    h = f2.random_full_rank(params.n_k, params.n, rng)
    rho_hat, fail_rate = scheme.measure_decoder_distance(h, params.w, RHO_SAMPLES, rng)
    report = Report(args, games=",".join(map(str, games)))
    report.header("per-game win statistics")
    freq: dict[int, float] = {}
    for game_id in games:
        rng = random.Random(args.seed * 1_000_003 + game_id)
        stats = reduction.run_game(
            game_id, adversary, game_config, args.trials, rng, workers=args.workers
        )
        successes = stats.successes[game_id]
        freq[game_id] = successes / args.trials if args.trials else 0.0
        if args.trials:
            lo, hi = reduction.wilson_interval(successes, args.trials)
            report.record(
                ("game", game_id), ("trials", args.trials), ("successes", successes),
                ("frequency", f"{freq[game_id]:.6f}"),
                ("wilson_low", f"{lo:.6f}"), ("wilson_high", f"{hi:.6f}"),
            )
        if game_id == 5:
            # run_game extracted every win in its trial, or raised
            report.record(
                ("g5_wins", successes),
                ("g5_extracted", successes),
                ("g5_extraction_rate", "1.000000" if successes else "undefined"),
            )
    if 4 in freq and 5 in freq:
        if freq[4] > 0:
            report.record(("ratio_g5_g4", f"{freq[5] / freq[4]:.6f}"))
        else:
            report.record(("ratio_g5_g4", "undefined"))
    report.record(
        ("rho_hat", f"{rho_hat:.6f}"),
        ("decoder_failure_rate", f"{fail_rate:.6f}"),
        ("rho_samples", RHO_SAMPLES),
    )
    return 0


# --- argument plumbing ---------------------------------------------------------------


def _opt(flag, convert=None, default=None, *, dest=None, choices=None, kind=None, help=None):
    """One option: (flag, dest, type, default, choices, kind, help); kind is
    None, "required" or "store_true", and a type of None keeps the text."""
    return flag, dest or flag[2:].replace("-", "_"), convert, default, choices, kind, help


def _code_opts(n: int, k: int, w: int) -> tuple:
    return _opt("--n", int, n), _opt("--k", int, k), _opt("--w", int, w)


def _lambda_opts(lam: int, lam0: int) -> tuple:
    return _opt("--lambda", int, lam, dest="lam"), _opt("--lambda0", int, lam0, dest="lam0")


# every command's first options
COMMON_OPTS = (_opt("--seed", parse_count, 0),
               _opt("--format", dest="fmt", choices=("text", "structured"), default="text"))
_MESSAGE_OPTS = (_opt("--signature", kind="required"), _opt("--message"),
                 _opt("--message-file"))

# name: (handler, help, echo keys, options); the echo keys are argument dests or
# values the handler resolves, and Report echoes them in this order; the
# options follow COMMON_OPTS in the order --help lists them
COMMANDS = {
    "keygen": (
        cmd_keygen, "generate a key pair into flat files",
        ("seed", "n", "k", "w", "lam", "lam0", "family", "k_u"),
        (*_code_opts(24, 12, 4), *_lambda_opts(128, 64),
         _opt("--family", choices=("random", "uuv"), default="random"),
         _opt("--ku", int, dest="k_u", help="uuv only; k_v is k - k_u"),
         _opt("--public-key", kind="required"), _opt("--secret-key", kind="required")),
    ),
    "sign": (
        cmd_sign, "sign a message with a secret key file",
        ("seed", "budget", "n", "k", "w"),
        (_opt("--secret-key", kind="required"), _opt("--budget", parse_count, 1000),
         *_MESSAGE_OPTS),
    ),
    "verify": (
        cmd_verify, "check a signature file, print ACCEPT/REJECT",
        ("seed", "n", "k", "w"),
        (_opt("--public-key", kind="required"), *_MESSAGE_OPTS),
    ),
    "attack": (
        cmd_attack, "run a decoder on a planted instance",
        ("mode", "seed", "n", "k", "w", "p", "l", "q", "budget", "workers", "force"),
        (_opt("--mode", choices=("sd", "doom"), default="sd"), *_code_opts(24, 12, 4),
         _opt("--p", int, 0), _opt("--l", int, 0),
         _opt("--q", parse_count, help="DOOM targets; doom mode only"),
         _opt("--budget", parse_count, 2000), _opt("--force", kind="store_true"),
         _opt("--workers", parse_workers, 1,
              help="trial processes; above 1, all q DOOM targets are hashed up "
              "front, so --q is at most 2^16")),
    ),
    "exponents": (
        cmd_exponents, "print the asymptotic cost table",
        ("seed", "rate", "omega"),
        (_opt("--rate", float), _opt(
            "--omega", float, help="relative weight; the GV weight of --rate when omitted"
        )),
    ),
    "bound": (
        cmd_bound, "evaluate the security-loss terms",
        ("seed", "preset", "lam", *BOUND_INPUTS),
        (_opt("--preset", choices=("surf",)),
         _opt("--lambda", int, dest="lam", help="the preset's, else 128"),
         *(_opt("--" + key.replace("_", "-")) for key in BOUND_INPUTS)),
    ),
    "simulate": (
        cmd_simulate, "run the oracle-game harness",
        ("seed", "n", "k", "w", "lam", "lam0", "trials", "games", "workers"),
        (*_code_opts(12, 6, 4), *_lambda_opts(8, 24),
         _opt("--game", dest="games", default="all"), _opt("--trials", parse_count, 400),
         _opt("--workers", parse_workers, 1)),
    ),
}


def _parse_exact(argv: list[str]) -> types.SimpleNamespace | None:
    """What argparse makes of argv when every token is a spelling the table
    owns: a command, then its flags as ``--f v`` or ``--f=v`` (store_true
    ones bare), each value not starting with "-", converting and passing
    its choices, and every required flag given; else None, for argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {opt[0]: opt for opt in (*COMMON_OPTS, *COMMANDS[argv[0]][3])}
    values = {dest: default for _, dest, _, default, *_ in options.values()}
    missing = {flag for flag, *_, kind, _ in options.values() if kind == "required"}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        _, dest, convert, _, choices, kind, _ = options[flag]
        if kind == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value fails as "-..." does
        if value.startswith("-"):
            return None
        try:
            values[dest] = convert(value) if convert else value
        except Exception:  # argparse runs the same type and reports it
            return None
        if choices and values[dest] not in choices:
            return None
        missing.discard(flag)
    return None if missing else types.SimpleNamespace(command=argv[0], **values)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="cbfdh",
        description="workbench for code-based hash-and-sign signatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, dest, convert, default, choices, kind, text in (*COMMON_OPTS, *options):
            kwargs = (
                {"action": kind} if kind == "store_true"
                else {"type": convert, "choices": choices, "required": kind == "required"}
            )
            p.add_argument(flag, dest=dest, default=default, help=text, **kwargs)
    return parser


# the parser of main, built on its first call in the process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_exact(argv) or _parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except BrokenPipeError:
        # the reader closed stdout, which Report's flush finds: end as
        # SIGPIPE would, with nothing on stderr, and leave the exit flush
        # nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """The ``cbfdh`` command.  SIGINT and SIGTERM end it from their handler:
    one error line, then exit 128 + the signal number at once.  Nothing is
    raised, which CPython would drop inside a callback, and nothing is
    flushed, which is why ``Report`` flushes each line it prints.  A
    ``--workers`` pool is left to its workers, which exit once their owner
    is gone; ``main`` installs no handler."""

    def stop(signum: int, frame: object) -> None:
        try:
            os.write(2, b"error: interrupted\n")
        finally:
            os._exit(128 + signum)

    for signum in STOP_SIGNALS:
        if _signal.getsignal(signum) != _signal.SIG_IGN:  # kept, as by nohup
            _signal.signal(signum, stop)
    sys.exit(main())
