"""Byte-for-byte replay of a fixed CLI command list against a golden file.

Every command's exit code and stdout are appended, in order, to one
transcript; the test diffs it against ``golden/cli_replay.txt``.  Commands
share one working directory, so sign and verify find the key and signature
files the earlier commands wrote, and the paths echoed in the output are
relative.  An output change made on purpose regenerates the golden file:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_replay.txt
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile

from cbfdh.cli import _parse_exact, _parser, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_replay.txt")

KEYGEN = [
    "keygen", "--n", "24", "--k", "12", "--w", "7", "--lambda", "16",
    "--lambda0", "24", "--seed", "5",
]
ISD = ["--n", "24", "--k", "12", "--w", "4", "--p", "1", "--l", "2"]
STRUCTURED = ["--format", "structured"]
ABBREVIATED = ["verify", "--public-key", "pk.key", "--sig", "m.sig", "--message", "hello"]

COMMANDS = [
    [*KEYGEN, "--public-key", "pk.key", "--secret-key", "sk.key"],
    [*KEYGEN, "--public-key", "pk2.key", "--secret-key", "sk2.key", *STRUCTURED],
    [*KEYGEN, "--family", "uuv", "--public-key", "upk.key", "--secret-key", "usk.key"],
    ["sign", "--secret-key", "sk.key", "--signature", "m.sig",
     "--message", "hello", "--seed", "9"],
    ["sign", "--secret-key", "sk.key", "--signature", "f.sig",
     "--message-file", "msg.txt", "--seed", "9", *STRUCTURED],
    ["sign", "--secret-key", "usk.key", "--signature", "u.sig",
     "--message", "hello", "--seed", "3"],
    ["sign", "--secret-key", "sk.key", "--signature", "z.sig",
     "--message", "zz", "--budget", "0"],
    ["sign", "--secret-key", "sk.key", "--signature", "x.sig",
     "--message", "hello", "--message-file", "msg.txt"],
    ["verify", "--public-key", "pk.key", "--signature", "m.sig", "--message", "hello"],
    ["verify", "--public-key", "pk.key", "--signature", "f.sig",
     "--message-file", "msg.txt", *STRUCTURED],
    ["verify", "--public-key", "upk.key", "--signature", "u.sig", "--message", "hello"],
    ["verify", "--public-key", "pk.key", "--signature", "m.sig", "--message", "tampered"],
    ["verify", "--public-key", "missing.key", "--signature", "m.sig", "--message", "hello"],
    ["attack", "--mode", "sd", *ISD, "--budget", "2000", "--seed", "3"],
    ["attack", "--mode", "sd", *ISD, "--seed", "4", *STRUCTURED],
    ["attack", "--mode", "doom", "--q", "8", *ISD, "--seed", "3"],
    ["attack", "--mode", "doom", "--q", "2^3", *ISD, "--seed", "5", *STRUCTURED],
    ["attack", "--n", "30", "--k", "15", "--w", "3", "--budget", "1", "--seed", "0"],
    ["attack", "--n", "128", "--k", "64", "--w", "8"],
    ["exponents"],
    ["exponents", *STRUCTURED, "--seed", "2"],
    ["exponents", "--rate", "0.5", "--omega", "0.11"],
    ["exponents", "--rate", "0.4", "--omega", "0.2", *STRUCTURED],
    ["exponents", "--rate", "0.5"],
    ["exponents", "--omega", "0.11"],
    ["exponents", "--rate", "1.5"],
    ["exponents", "--rate", "0.5", "--omega", "0.3"],
    # README's rate sweep at the GV weight
    *(["exponents", "--rate", f"0.{d}", *STRUCTURED] for d in range(1, 10)),
    # the two ends of the weight range: the search keeps tau = 0 at omega =
    # 0, and meets the feasible region's right edge at omega = (1 - R)/2
    ["exponents", "--rate", "0.5", "--omega", "0"],
    ["exponents", "--rate", "0.5", "--omega", "0.25", *STRUCTURED],
    ["bound"],
    ["bound", "--preset", "surf"],
    ["bound", "--preset", "surf", "--q-hash", "2^100", *STRUCTURED],
    ["bound", "--lambda", "128", "--eps-doom", "2^-64", "--q-sign", "2^32",
     "--rho-sign", "2^-80"],
    ["bound", "--lambda", "96", "--eps-doom", "0.001", "--dist", "2^-70",
     "--exp-rho-pub", "2^-300", "--q-hash", "2^60", *STRUCTURED],
    ["bound", "--lambda", "0", "--q-sign", "2^10", "--rho-sign", "2^-4"],
    ["bound", "--eps-doom", "-0.5"],
    ["bound", "--eps-doom", "2"],
    ["simulate", "--trials", "4", "--seed", "1"],
    ["simulate", "--trials", "4", "--seed", "1", *STRUCTURED],
    ["simulate", "--game", "4,5", "--trials", "40", "--seed", "2"],
    ["simulate", "--game", "9"],
    ["simulate", "--n", "40", "--k", "20", "--w", "9", "--trials", "1"],
    ["bound", "--preset", "surf", "--exp-rho-pub", "0"],
    # spellings beside the exact ones: an abbreviation, which argparse
    # expands, and the --f=v form, which the table's own parse reads
    ABBREVIATED,
    ["attack", "--mode=doom", "--q=8", "--n=24", "--k=12", "--w=4", "--p=1", "--l=2",
     "--seed=3"],
]
# the commands only argparse parses: a value that starts with "-", and the
# abbreviation
ARGPARSE_ONLY = [["bound", "--eps-doom", "-0.5"], ABBREVIATED]


def transcript() -> str:
    """Run COMMANDS in the current directory; return the joined record."""
    with open("msg.txt", "wb") as fh:
        fh.write(b"a message\nfrom a file\n")
    parts = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        parts.append(f"$ cbfdh {shlex.join(argv)}\nexit={code}\n{out.getvalue()}")
    return "".join(parts)


def test_cli_replays_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    got = transcript()
    assert got.splitlines() == golden.splitlines()
    assert got == golden


def test_pinned_commands_skip_argparse_where_their_spelling_allows():
    """Every pinned command but ARGPARSE_ONLY is read by the command
    table's own parse, into the values argparse would give it."""
    for argv in COMMANDS:
        direct = _parse_exact(argv)
        assert (direct is None) == (argv in ARGPARSE_ONLY), argv
        if direct is not None:
            assert vars(direct) == vars(_parser().parse_args(argv))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        text = transcript()
    sys.stdout.write(text)
