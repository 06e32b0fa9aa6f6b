import concurrent.futures
import contextlib
import functools
import io
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbfdh.cli
import cbfdh.hashing
import cbfdh.isd
import cbfdh.reduction
from cbfdh.cli import main, parse_count, parse_level_log2
from cbfdh.exponents import gv_relative_weight
from cbfdh.scheme import MAGIC

import math


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_captured(argv):
    """Run the CLI in-process: exit code (argparse's included), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def kv_lines(text):
    """Parse structured output into a list of {key: value} dicts."""
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        rows.append(dict(part.split("=", 1) for part in line.split(" ")))
    return rows


# --- number literals ----------------------------------------------------------------


def test_literal_parsing():
    assert parse_count("1024") == 1024
    assert parse_count("2^10") == 1024
    assert parse_level_log2("2^-838.56") == -838.56
    assert parse_level_log2("0") == -math.inf
    assert parse_level_log2("0.25") == -2.0
    assert parse_count("2^64") == 1 << 64
    with pytest.raises(ValueError):
        parse_count("-3")
    for text in ("2^65", str((1 << 64) + 1)):
        with pytest.raises(ValueError, match="exceeds 2\\^64"):
            parse_count(text)
    with pytest.raises(ValueError):
        parse_count("2^-1")
    with pytest.raises(ValueError):
        parse_level_log2("-0.5")


# --- argument parsing ---------------------------------------------------------------


def argparse_vars(argv):
    """vars() of the namespace argparse makes of argv; None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cbfdh.cli._parser().parse_args(argv))
        except SystemExit:
            return None


# values argparse refuses, reads as a flag, or reads another way than they look
ODD_VALUES = ["", "-1", "-0.5", "-x", "--", "x", "nope", "a=b", " 7 ", "2^70", "0", "+3"]


def good_value(option):
    _, _, convert, _, choices, _, _ = option
    if choices:
        return st.sampled_from(choices)
    if convert in (int, cbfdh.cli.parse_workers):
        return st.integers(1, 40).map(str)
    if convert is parse_count:
        return st.sampled_from(["0", "7", "2^3"])
    if convert is float:
        return st.sampled_from(["0.5", "0.11", "1e-3"])
    return st.text("ab =-.", max_size=4)


@st.composite
def table_argv(draw):
    """An argv built from the command table's spellings, with the ways
    around them: abbreviations, help, ``--``, unknown flags, stray words,
    odd values, missing values and missing required flags."""
    command = draw(st.sampled_from([*cbfdh.cli.COMMANDS, "bogus", "key", "-h", None]))
    if command is None:
        return []
    own = cbfdh.cli.COMMANDS[command][3] if command in cbfdh.cli.COMMANDS else ()
    options = [*cbfdh.cli.COMMON_OPTS, *own]
    wanted = [opt for opt in options if opt[5] == "required" and draw(st.integers(0, 9))]
    wanted += draw(st.lists(st.sampled_from(options), max_size=6))
    argv = [command]
    for opt in draw(st.permutations(wanted)):
        flag = opt[0]
        value = draw(st.one_of(good_value(opt), good_value(opt), st.sampled_from(ODD_VALUES)))
        spelling = draw(st.sampled_from(
            ["exact"] * 4 + ["equals"] * 2 + ["bare", "abbreviated", "other"]
        ))
        if opt[5] == "store_true" and spelling != "other":
            argv += [flag] if spelling == "exact" else [f"{flag}={draw(st.sampled_from('01'))}"]
        elif spelling == "exact":
            argv += [flag, value]
        elif spelling == "equals":
            argv.append(f"{flag}={value}")
        elif spelling == "bare":
            argv.append(flag)
        elif spelling == "abbreviated":
            argv += [flag[:draw(st.integers(3, max(3, len(flag) - 1)))], value]
        else:
            argv += draw(st.sampled_from([["-h"], ["--help"], ["--"], ["--bogus", value], ["stray"]]))
    return argv


@settings(max_examples=500, deadline=None)
@given(table_argv())
def test_exact_parse_agrees_with_argparse(argv):
    """Whatever the table's direct parse accepts, argparse, built from the
    same table, accepts too, into the same values."""
    direct = cbfdh.cli._parse_exact(argv)
    if direct is not None:
        assert vars(direct) == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["attack", "--force=1"], ["attack", "--force="], ["attack", "--q"],
    ["attack", "--mess", "x"], ["verify", "--sig", "m.sig", "--public-key", "pk.key"],
    ["attack", "--"], ["attack", "--", "--n", "3"], ["attack", "-h"], ["keygen", "--help"],
    ["keygen", "--seed", "-1", "--public-key", "x", "--secret-key", "y"],
    ["attack", "--workers", "0"], ["attack", "--mode", "nope"], ["attack", "--n", ""],
    ["sign", "--secret-key", "sk.key"], ["attack", "--n=-3"], ["exponents", "0.5"],
])
def test_what_the_exact_parse_leaves_to_argparse(argv):
    assert cbfdh.cli._parse_exact(argv) is None


# --- scheme pipeline ----------------------------------------------------------------


def keygen_args(tmp_path, seed=5):
    return [
        "keygen", "--n", "24", "--k", "12", "--w", "7",
        "--lambda", "16", "--lambda0", "24", "--seed", str(seed),
        "--public-key", str(tmp_path / "pk.key"),
        "--secret-key", str(tmp_path / "sk.key"),
    ]


def test_pipeline_roundtrip(tmp_path, capsys):
    assert main(keygen_args(tmp_path)) == 0
    code = main([
        "sign", "--secret-key", str(tmp_path / "sk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello", "--seed", "9",
    ])
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "--public-key", str(tmp_path / "pk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 0
    assert "result=ACCEPT" in out


def test_verify_rejects_wrong_message(tmp_path, capsys):
    main(keygen_args(tmp_path))
    main([
        "sign", "--secret-key", str(tmp_path / "sk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    ])
    code, out, _ = run_cli(
        capsys, "verify", "--public-key", str(tmp_path / "pk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "tampered",
    )
    assert code == 1
    assert "result=REJECT" in out


def test_malformed_files_exit_2(tmp_path, capsys):
    main(keygen_args(tmp_path))
    main([
        "sign", "--secret-key", str(tmp_path / "sk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    ])
    capsys.readouterr()
    broken = tmp_path / "broken.sig"
    broken.write_bytes((tmp_path / "m.sig").read_bytes()[:10])
    code, _, err = run_cli(
        capsys, "verify", "--public-key", str(tmp_path / "pk.key"),
        "--signature", str(broken), "--message", "hello",
    )
    assert code == 2 and "error:" in err
    clipped = tmp_path / "clipped.key"
    clipped.write_bytes((tmp_path / "pk.key").read_bytes()[:8])
    code, _, err = run_cli(
        capsys, "verify", "--public-key", str(clipped),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "verify", "--public-key", str(tmp_path / "missing.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("line", [0, 1])
def test_signature_with_nonzero_padding_exit_2(tmp_path, capsys, line):
    # n = lambda0 = 12: both fields end in four padding bits
    assert main([
        "keygen", "--n", "12", "--k", "6", "--w", "3", "--lambda", "16",
        "--lambda0", "12", "--seed", "1", "--public-key", str(tmp_path / "pk.key"),
        "--secret-key", str(tmp_path / "sk.key"),
    ]) == 0
    assert main([
        "sign", "--secret-key", str(tmp_path / "sk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "hi", "--seed", "2",
    ]) == 0
    verify = ["verify", "--public-key", str(tmp_path / "pk.key"), "--message", "hi"]
    code, out, _ = run_cli(capsys, *verify, "--signature", str(tmp_path / "m.sig"))
    assert code == 0 and "result=ACCEPT" in out
    lines = (tmp_path / "m.sig").read_text().split()
    field = lines[line]
    assert field[-1] == "0"
    # a padding bit set, a space inside, uppercase hex digits (field 0 has some)
    spellings = [field[:-1] + "f", field[:2] + " " + field[2:], field.upper()]
    for spelling in [s for s in spellings if s != field]:
        lines[line] = spelling
        edited = tmp_path / "edited.sig"
        edited.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, *verify, "--signature", str(edited))
        assert code == 2 and "error: not a 12-bit field in bare lowercase hex" in err, spelling
        assert out == ""


def _key_body_lines(path):
    data = path.read_bytes()
    fixed = len(MAGIC) + 17  # magic, four packed u32 fields, newline
    return data[:fixed], data[fixed:].decode().splitlines()


@pytest.mark.parametrize("key, row_edit", [
    ("pk.key", lambda row: row[:-1] + "1"),
    ("sk.key", lambda row: row + "00"),
    ("pk.key", lambda row: row[:2] + " " + row[2:]),
], ids=("public-padding-bit", "secret-extra-byte", "public-space"))
def test_key_rows_are_read_strictly(tmp_path, capsys, key, row_edit):
    # n = 12: each row is two bytes whose last four bits are padding
    assert main([
        "keygen", "--n", "12", "--k", "6", "--w", "3", "--lambda", "16",
        "--lambda0", "12", "--seed", "1", "--public-key", str(tmp_path / "pk.key"),
        "--secret-key", str(tmp_path / "sk.key"),
    ]) == 0
    sign = ["sign", "--message", "hi", "--signature", str(tmp_path / "m.sig")]
    verify = ["verify", "--message", "hi", "--signature", str(tmp_path / "m.sig")]
    assert main([*sign, "--secret-key", str(tmp_path / "sk.key")]) == 0
    head, lines = _key_body_lines(tmp_path / key)
    assert lines[1][-1] == "0"
    lines[1] = row_edit(lines[1])
    edited = tmp_path / f"edited-{key}"
    edited.write_bytes(head + ("\n".join(lines) + "\n").encode())
    capsys.readouterr()
    if key == "pk.key":
        code, out, err = run_cli(capsys, *verify, "--public-key", str(edited))
    else:
        code, out, err = run_cli(capsys, *sign, "--secret-key", str(edited))
    assert code == 2 and err.startswith("error: not a 12-bit field in bare lowercase hex")
    assert out == ""


def test_secret_key_with_blank_line_signs(tmp_path, capsys):
    main(keygen_args(tmp_path))
    sign = ["sign", "--message", "hello", "--seed", "9"]
    assert main([*sign, "--secret-key", str(tmp_path / "sk.key"),
                 "--signature", str(tmp_path / "m.sig")]) == 0
    head, lines = _key_body_lines(tmp_path / "sk.key")
    first_rows = int(lines[0].split()[0])
    lines.insert(1 + first_rows, "")  # before the second block header
    lines.insert(1, "  ")
    spaced = tmp_path / "spaced.key"
    spaced.write_bytes(head + ("\n".join(lines) + "\n").encode())
    code, _, err = run_cli(
        capsys, *sign, "--secret-key", str(spaced),
        "--signature", str(tmp_path / "spaced.sig"),
    )
    assert code == 0, err
    assert (tmp_path / "spaced.sig").read_bytes() == (tmp_path / "m.sig").read_bytes()
    code, out, _ = run_cli(
        capsys, "verify", "--public-key", str(tmp_path / "pk.key"),
        "--signature", str(tmp_path / "spaced.sig"), "--message", "hello",
    )
    assert code == 0 and "result=ACCEPT" in out


@pytest.mark.parametrize("command, key, header", [
    ("sign", "secret", "x 24"), ("sign", "secret", "-1 24"), ("verify", "public", "-1 24"),
    ("sign", "secret", "012 024"), ("verify", "public", "012 024"),
    ("sign", "secret", "\u0661\u0662 \u0662\u0664"),
    ("verify", "public", "\u0661\u0662 \u0662\u0664"),
    ("verify", "public", "12  24"),
], ids=(
    "x 24", "-1 24", "public -1 24", "leading zeros", "public leading zeros",
    "arabic-indic digits", "public arabic-indic digits", "public two spaces",
))
def test_secret_key_bad_block_header_exit_2(tmp_path, capsys, command, key, header):
    # both key files read their matrices through one block reader
    main(keygen_args(tmp_path))
    head, lines = _key_body_lines(tmp_path / f"{key[0]}k.key")
    lines[0] = header
    bad = tmp_path / "bad.key"
    bad.write_bytes(head + ("\n".join(lines) + "\n").encode())
    code, _, err = run_cli(
        capsys, command, f"--{key}-key", str(bad),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2
    assert "error: bad matrix header" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda perm: " ".join(f"{int(tok):02d}" for tok in perm.split()),
    lambda perm: perm.replace(" ", "\n", 1),
    lambda perm: perm.replace(" ", "  ", 1),
], ids=("leading zeros", "two lines", "two spaces"))
def test_secret_key_permutation_line_is_read_strictly(tmp_path, capsys, edit):
    # the permutation is one line, spelled as save_secret_key writes it
    main(keygen_args(tmp_path))
    head, lines = _key_body_lines(tmp_path / "sk.key")
    lines[-1] = edit(lines[-1])
    bad = tmp_path / "bad.key"
    bad.write_bytes(head + ("\n".join(lines) + "\n").encode())
    capsys.readouterr()
    code, out, err = run_cli(
        capsys, "sign", "--secret-key", str(bad),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2 and out == "" and "permutation" in err
    assert not (tmp_path / "m.sig").exists()


def test_secret_key_with_rank_deficient_matrix_exit_2(tmp_path, capsys):
    # the decoder could never sign on it: without the check, sign's decoder
    # would return None at once and the command exit 3
    main(keygen_args(tmp_path))
    head, lines = _key_body_lines(tmp_path / "sk.key")
    lines[1] = "00" * 3  # h_sec's first row
    bad = tmp_path / "bad.key"
    bad.write_bytes(head + ("\n".join(lines) + "\n").encode())
    capsys.readouterr()
    code, out, err = run_cli(
        capsys, "sign", "--secret-key", str(bad),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2 and err == "error: secret matrix is rank deficient\n"
    assert out == "" and not (tmp_path / "m.sig").exists()


def test_secret_key_salt_width_above_the_ceiling_exit_2(tmp_path, capsys):
    main(keygen_args(tmp_path))
    data = bytearray((tmp_path / "sk.key").read_bytes())
    lam0_at = len(MAGIC) + 12  # the fourth packed u32 field
    data[lam0_at : lam0_at + 4] = (1 << 30).to_bytes(4, "little")
    wide = tmp_path / "wide.key"
    wide.write_bytes(data)
    code, _, err = run_cli(
        capsys, "sign", "--secret-key", str(wide),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2 and "exceeds 65536 bits" in err
    assert not (tmp_path / "m.sig").exists()


@pytest.fixture(scope="module")
def signed_files(tmp_path_factory):
    """A key pair and a signature of "hello", as the CLI writes them."""
    d = tmp_path_factory.mktemp("signed")
    assert run_captured(keygen_args(d))[0] == 0
    sign = ["sign", "--secret-key", str(d / "sk.key"), "--signature", str(d / "m.sig")]
    assert run_captured([*sign, "--message", "hello"])[0] == 0
    return d, {name: (d / name).read_bytes() for name in ("sk.key", "pk.key", "m.sig")}


file_edit = st.tuples(
    st.sampled_from(("flip", "replace", "truncate", "insert")),
    st.integers(0, 1 << 12),
    st.integers(0, 255),
)


def edit_bytes(data, edit):
    """``data`` with one bit flipped, one byte replaced, the tail from some
    offset cut, or one byte inserted."""
    kind, at, byte = edit
    out = bytearray(data)
    if kind == "insert":
        out.insert(at % (len(out) + 1), byte)
    elif out:
        i = at % len(out)
        if kind == "flip":
            out[i] ^= 1 << (byte & 7)
        elif kind == "replace":
            out[i] = byte
        else:
            del out[i:]
    return bytes(out)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(("sk.key", "pk.key", "m.sig")), file_edit)
def test_mutated_keys_and_signatures_exit_cleanly(signed_files, name, edit):
    # exit codes only: a signature from a mutated secret key may be one
    # that the true public key rejects or cannot read
    d, pristine = signed_files
    (d / f"mutated-{name}").write_bytes(edit_bytes(pristine[name], edit))
    path = {f: str(d / (f"mutated-{f}" if f == name else f)) for f in pristine}
    if name == "sk.key":
        code, _, err = run_captured([
            "sign", "--secret-key", path["sk.key"],
            "--signature", str(d / "fresh.sig"), "--message", "hello",
        ])
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code:
            return  # verify would read the pristine pair
        path["m.sig"] = str(d / "fresh.sig")
    code, _, err = run_captured([
        "verify", "--public-key", path["pk.key"],
        "--signature", path["m.sig"], "--message", "hello",
    ])
    assert code in (0, 1, 2, 3) and "Traceback" not in err


def test_same_seed_gives_byte_identical_keys(tmp_path):
    main(keygen_args(tmp_path, seed=5))
    first_pk = (tmp_path / "pk.key").read_bytes()
    first_sk = (tmp_path / "sk.key").read_bytes()
    main(keygen_args(tmp_path, seed=5))
    assert (tmp_path / "pk.key").read_bytes() == first_pk
    assert (tmp_path / "sk.key").read_bytes() == first_sk


def test_keygen_uuv_echoes_k_u(tmp_path, capsys):
    uuv = ["--family", "uuv", "--ku", "5"]
    code, out, _ = run_cli(capsys, *keygen_args(tmp_path), *uuv)
    assert code == 0
    assert out.splitlines()[0].endswith(" family=uuv k_u=5")
    code, out, _ = run_cli(capsys, *keygen_args(tmp_path))
    assert code == 0 and "k_u" not in out.splitlines()[0]


def test_keygen_ku_needs_uuv_family(tmp_path, capsys):
    code, out, err = run_cli(capsys, *keygen_args(tmp_path), "--ku", "5")
    assert code == 2 and err == "error: --ku needs --family uuv\n"
    assert out == "" and not (tmp_path / "sk.key").exists()
    with pytest.raises(SystemExit) as exc:
        main([*keygen_args(tmp_path), "--family", "uuv", "--kv", "6"])
    assert exc.value.code == 2


def test_sign_budget_exhausted_exit_3(tmp_path, capsys):
    main(keygen_args(tmp_path))
    code, _, err = run_cli(
        capsys, "sign", "--secret-key", str(tmp_path / "sk.key"),
        "--signature", str(tmp_path / "m.sig"), "--message", "zz", "--budget", "0",
    )
    assert code == 3
    assert "exhausted" in err


# --- attack -------------------------------------------------------------------------

ATTACK_ARGS = [
    "--n", "24", "--k", "12", "--w", "4", "--p", "1", "--l", "2",
    "--budget", "2000", "--seed", "3",
]


def test_attack_solves_planted_instance(capsys):
    code, out, _ = run_cli(capsys, "attack", "--mode", "sd", *ATTACK_ARGS)
    assert code == 0
    rows = kv_lines(out)
    assert rows[-1]["found"] == "1"
    assert rows[-1]["weight"] == "4"
    assert any("predicted_iteration_success" in row for row in rows)


def test_attack_doom_q1_equals_sd(capsys):
    _, sd_out, _ = run_cli(capsys, "attack", "--mode", "sd", *ATTACK_ARGS)
    _, doom_out, _ = run_cli(
        capsys, "attack", "--mode", "doom", "--q", "1", *ATTACK_ARGS
    )
    sd_lines = sd_out.splitlines()[1:]
    doom_lines = [
        ln.replace(" target_index=0", "") for ln in doom_out.splitlines()[1:]
    ]
    assert sd_lines == doom_lines


def test_attack_budget_exhaustion_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "attack", "--n", "30", "--k", "15", "--w", "3",
        "--budget", "1", "--seed", "0",
    )
    assert code == 3
    assert "found=0" in out
    assert "exhausted" in err


def test_attack_doom_with_workers_refuses_q_above_the_bound(capsys, monkeypatch):
    hashed = []
    syndrome_hash = cbfdh.hashing.syndrome_hash

    def counted(payload, out_bits):
        hashed.append(payload)
        assert len(hashed) <= cbfdh.isd.DOOM_WORKERS_MAX_Q, "hashed past the bound"
        return syndrome_hash(payload, out_bits)

    monkeypatch.setattr(cbfdh.hashing, "syndrome_hash", counted)
    argv = ["attack", "--mode", "doom", "--q", "2^40"]
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert (code, out, hashed) == (2, "", [])
    assert err == "error: --q above 65536 needs --workers 1\n"
    # one worker hashes the targets as the trials reach them
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0 and "target_index=" in out and len(hashed) < 1000


# the child caps its address space, so building all q targets up front
# fails there with a MemoryError instead of exhausting the machine
BOUNDED_MEMORY_PRELUDE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from cbfdh.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("q, code", [
    ("2^64", 0), ("2^70", 2), (str((1 << 64) + 1), 2),
])
def test_attack_doom_q_runs_in_bounded_memory(q, code):
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDED_MEMORY_PRELUDE, "attack", "--mode", "doom",
         "--q", q, "--n", "24", "--k", "12", "--w", "4", "--budget", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, header", [
    ("pk.key", "0 99999999999"), ("pk.key", "1 99999999999"), ("sk.key", "0 99999999999"),
])
def test_huge_declared_matrix_width_exit_2(tmp_path, key, header):
    # no n-bit mask is built for a declared width: the child caps its
    # address space, so such an allocation would end in a MemoryError
    main(keygen_args(tmp_path))
    sign = ["sign", "--message", "hello", "--secret-key", str(tmp_path / "sk.key"),
            "--signature", str(tmp_path / "m.sig")]
    assert main(sign) == 0
    head, lines = _key_body_lines(tmp_path / key)
    lines[0] = header
    bad = tmp_path / f"wide-{key}"
    bad.write_bytes(head + ("\n".join(lines) + "\n").encode())
    argv = (["verify", "--public-key", str(bad), "--signature", str(tmp_path / "m.sig"),
             "--message", "hello"] if key == "pk.key" else
            ["sign", "--message", "hello", "--secret-key", str(bad),
             "--signature", str(tmp_path / "wide.sig")])
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDED_MEMORY_PRELUDE, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["attack", "--budget"], ["attack", "--mode", "doom", "--q"],
    ["simulate", "--trials"],
], ids=("budget", "q", "trials"))
def test_huge_power_of_two_counts_exit_2(capsys, argv):
    # the value is checked, not its spelling: 2^64 + 1 in decimal too
    for count in ("2^99999999999999999999", str((1 << 64) + 1)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, count])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid parse_count value" in err


@pytest.mark.parametrize("command", ["keygen", "attack", "simulate"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # random.Random(-s) draws what Random(s) draws, so a negative seed would
    # replay seed s under another echo
    argv = keygen_args(tmp_path) if command == "keygen" else [command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-7"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid parse_count value" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", [[], ["--mode", "sd"]], ids=("default", "sd"))
def test_attack_q_needs_doom_mode(capsys, mode):
    code, out, err = run_cli(capsys, "attack", *mode, "--q", "1000", *ATTACK_ARGS)
    assert code == 2 and err == "error: --q needs --mode doom\n"
    assert out == ""


@pytest.mark.parametrize("argv, named", [
    (["--n", "10", "--k", "12"], "k = 12 must lie in 0..n = 10"),
    (["--k", "-1"], "k = -1 must lie in 0..n = 24"),
    # named before p (w = -1) or the selection (w = 25) is blamed
    (["--w", "-1"], "w = -1 must lie in 0..n = 24"),
    (["--w", "25"], "w = 25 must lie in 0..n = 24"),
], ids=["10-12", "24--1", "w=-1", "w=25"])
def test_attack_refuses_k_outside_the_length(capsys, argv, named):
    code, out, err = run_cli(capsys, "attack", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named}\n"


def test_attack_size_guard(capsys):
    code, _, err = run_cli(capsys, "attack", "--n", "128", "--k", "64", "--w", "8")
    assert code == 2
    assert "--force" in err


# --- exponents ----------------------------------------------------------------------


def test_exponents_default_table(capsys):
    code, out, _ = run_cli(capsys, "exponents")
    assert code == 0
    for value in ("0.119916", "0.059958", "0.056684",
                  "0.020349", "0.010174", "0.009191"):
        assert value in out
    assert "unique-solution regime" in out
    assert "regime=many-solutions" in out


def test_exponents_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "exponents", "--rate", "0.5", "--omega", "0.11",
        "--format", "structured",
    )
    assert code == 0
    row = kv_lines(out)[1]
    assert abs(float(row["doom_quantum"]) - 0.056683) <= 1e-3
    assert row["regime"] == "unique-solution"


def test_exponents_rejects_half_point(capsys):
    code, _, err = run_cli(capsys, "exponents", "--omega", "0.11")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_exponents_rate_alone_uses_gv_weight(capsys, fmt):
    gv = repr(gv_relative_weight(0.5))
    assert gv == "0.1100278644385071"
    code, out, _ = run_cli(capsys, "exponents", "--rate", "0.5", "--format", fmt)
    assert code == 0
    _, explicit, _ = run_cli(
        capsys, "exponents", "--rate", "0.5", "--omega", gv, "--format", fmt
    )
    assert out == explicit
    assert "omega=0.110028" in out and "regime=many-solutions" in out


def test_exponents_zero_weight_is_quantum_prange(capsys):
    # only lambda = 0 is feasible, where the decoder is quantum Prange
    code, out, err = run_cli(
        capsys, "exponents", "--rate", "0.5", "--omega", "0", "--format", "structured"
    )
    assert code == 0, err
    row = kv_lines(out)[1]
    assert row["doom_quantum"] == row["prange_quantum"] == "0.250000"


@st.composite
def rate_points(draw):
    rate = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    return rate, draw(st.floats(0, (1 - rate) / 2))


@settings(max_examples=60, deadline=None)
@given(rate_points())
def test_exponents_doom_never_above_prange(point):
    # the grid holds lambda = 0, where the objective is quantum Prange
    rate, omega = point
    code, out, err = run_captured(
        ["exponents", "--rate", repr(rate), "--omega", repr(omega),
         "--format", "structured"]
    )
    assert code == 0, err
    row = kv_lines(out)[1]
    assert float(row["doom_quantum"]) <= float(row["prange_quantum"])


number_text = st.one_of(st.text(), st.floats().map(repr))


@settings(max_examples=60, deadline=None)
@given(number_text, number_text)
def test_exponents_arbitrary_text_exits_cleanly(rate, omega):
    code, _, err = run_captured(["exponents", "--rate", rate, "--omega", omega])
    assert code in (0, 2)
    assert "Traceback" not in err


# --- bound --------------------------------------------------------------------------


def test_bound_surf_preset(capsys):
    code, out, _ = run_cli(capsys, "bound", "--preset", "surf")
    assert code == 0
    rows = kv_lines(out)
    terms = {row["term"]: row for row in rows if "term" in row}
    assert set(terms) == {
        "doom_term", "distinguisher_term", "zhandry_term",
        "signing_term", "birthday_term",
    }
    assert terms["zhandry_term"]["log2"] == "-223.4210"
    assert terms["doom_term"]["log2"] == "-127.0000"
    assert "2^-235" in out  # the reference figure is surfaced, not adopted
    assert "zhandry_preconstant_log2=-227.28" in out
    assert "condition1=pass" in out and "condition2=pass" in out
    assert "condition3=accepted-as-input" in out


def test_bound_surf_note_quotes_the_printed_evaluation(capsys):
    # the note's two figures are the run's own records, rounded to 0.1
    for override in (["--q-hash", "2^100"], ["--exp-rho-pub", "0"], []):
        code, out, _ = run_cli(capsys, "bound", "--preset", "surf", *override)
        assert code == 0
        (row,) = [r for r in kv_lines(out) if "zhandry_reference_log2" in r]
        note = out.splitlines()[-1]
        before, after = note.split("direct evaluation gives 2^")[1].split(
            " before the 8*pi/sqrt(3) factor and 2^"
        )
        assert float(before) == round(float(row["zhandry_preconstant_log2"]), 1)
        assert float(after.split(" ")[0]) == round(float(row["zhandry_term_log2"]), 1)
        assert f"quotes 2^{row['zhandry_reference_log2']} for" in note


def test_bound_all_zero_inputs(capsys):
    code, out, _ = run_cli(capsys, "bound", "--lambda", "128")
    assert code == 0
    assert "total_log2=-128.0000" in out
    assert "total=2^-128.0000" in out


def test_bound_lambda_flag_overrides_preset(capsys):
    code, out, _ = run_cli(capsys, "bound", "--preset", "surf", "--lambda", "64")
    assert code == 0
    assert " preset=surf lambda=64 eps_doom=2^-128 " in out.splitlines()[0]
    rows = kv_lines(out)
    assert {row["threshold_log2"] for row in rows if "threshold_log2" in row} == {
        "-32.0"
    }


def test_bound_rejects_bad_values(capsys):
    code, _, err = run_cli(capsys, "bound", "--eps-doom", "-0.5")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "bound", "--q-hash", "many")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["--eps-doom", "1.5"],
    ["--eps-doom", "2^5"],
    ["--eps-doom", "nan"],
    ["--rho-sign", "inf", "--q-sign", "0"],
    ["--q-hash", "inf"],
    ["--q-sign", "2^nan"],
    ["--lambda", "-5"],
    ["--eps-doom", "1e-400"],  # below float range, not zero
    ["--q-hash", "0.001", "--exp-rho-pub", "2^-10"],  # a thousandth of a query
    ["--eps-doom", "\u0661e-400"],  # an Arabic-Indic one, below float range
])
def test_bound_rejects_out_of_range_values(capsys, argv):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2 and err.startswith("error:")
    assert out == ""


# --- simulate -----------------------------------------------------------------------


def test_simulate_final_hop_and_extraction(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--game", "4,5", "--trials", "200", "--seed", "2",
    )
    assert code == 0
    rows = kv_lines(out)
    by_game = {row["game"]: row for row in rows if "game" in row}
    f4 = float(by_game["4"]["frequency"])
    f5 = float(by_game["5"]["frequency"])
    assert 0.3 <= f5 / f4 <= 0.7  # loose screen; acceptance tightens it
    extraction = next(row for row in rows if "g5_extraction_rate" in row)
    assert extraction["g5_extraction_rate"] == "1.000000"
    assert extraction["g5_wins"] == extraction["g5_extracted"]
    assert any("rho_hat" in row for row in rows)
    assert any("ratio_g5_g4" in row for row in rows)


def test_simulate_workers_match(capsys):
    argv = ["simulate", "--game", "3", "--trials", "60", "--seed", "4"]
    _, seq, _ = run_cli(capsys, *argv)
    _, par, _ = run_cli(capsys, *argv, "--workers", "2")
    strip = lambda text: [
        ln for ln in text.splitlines() if not ln.startswith("command=")
    ]
    assert strip(seq) == strip(par)


def test_simulate_rejects_bad_game_list(capsys):
    for games in ("9", ",", "1,,2", "5,", "all,4"):
        code, out, err = run_cli(capsys, "simulate", "--game", games)
        assert (code, out) == (2, ""), games
        assert err == (
            f"error: --game {games!r}: give comma-separated game ids in 0..5, or all\n"
        )


def test_simulate_game_5_memory_does_not_grow_with_trials():
    """Game 5 keeps no transcript: the peak Python allocation of 2,000
    trials stays within 512 KB of 500 (kept transcripts cost about 2.5 KB
    each)."""

    def peak(trials):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(["simulate", "--game", "5", "--trials", str(trials), "--seed", "1"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # warm-up: imports, parser and caches
    assert peak(2000) <= peak(500) + 512 * 1024


def test_simulate_untallyable_weight_fails_before_any_game(capsys, monkeypatch):
    played = []
    monkeypatch.setattr(cbfdh.reduction, "run_game", lambda *a, **kw: played.append(a))
    code, out, err = run_cli(
        capsys, "simulate", "--n", "40", "--k", "20", "--w", "8", "--lambda0", "24",
    )
    assert code == 2 and "S_w too large to tally" in err
    assert out == "" and played == []


def test_simulate_zero_trials_extraction_rate_undefined(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--trials", "0", "--game", "4,5")
    assert code == 0
    row = next(row for row in kv_lines(out) if "g5_wins" in row)
    assert row == {
        "g5_wins": "0", "g5_extracted": "0", "g5_extraction_rate": "undefined",
    }
    assert "ratio_g5_g4=undefined" in out
    assert not any("game" in row for row in kv_lines(out))  # no game= record


@pytest.mark.parametrize("command", ["attack", "simulate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(capsys, command, workers):
    with pytest.raises(SystemExit) as exc:
        main([command, "--workers", workers])
    assert exc.value.code == 2
    assert "workers must be at least 1" in capsys.readouterr().err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("argv", [
    ["attack", "--mode", "doom", "--q", "8", *ATTACK_ARGS],
    ["simulate", "--game", "3", "--trials", "20", "--seed", "4"],
    ["attack", *ATTACK_ARGS],
], ids=("attack", "simulate", "attack-sd"))
def test_worker_pool_is_capped_at_cpu_count(capsys, monkeypatch, argv):
    _, seq, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", RecordingPool, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, par, _ = run_cli(capsys, *argv, "--workers", "100000")
    assert code == 0 and RecordingPool.sizes == [3]
    assert par.splitlines()[1:] == seq.splitlines()[1:]
    assert "workers=100000" in par.splitlines()[0]


# --- replay determinism ---------------------------------------------------------------

PINNED_CONFIGS = [
    ["exponents", "--format", "structured"],
    ["attack", "--mode", "doom", "--q", "4", *ATTACK_ARGS, "--format", "structured"],
    ["simulate", "--game", "5", "--trials", "120", "--seed", "7",
     "--format", "structured"],
]


@pytest.mark.parametrize("argv", PINNED_CONFIGS, ids=("exponents", "attack", "simulate"))
def test_pinned_config_replays_byte_identical(argv, capsys):
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed=" in out_a  # the seed is always echoed


REPLAY_CASES = {
    "keygen-random": ["keygen", "--n", "24", "--k", "12", "--w", "7",
                      "--lambda", "16", "--lambda0", "24", "--seed", "5"],
    "keygen-uuv": ["keygen", "--n", "24", "--k", "12", "--w", "7", "--lambda", "16",
                   "--lambda0", "24", "--family", "uuv", "--ku", "5", "--seed", "2"],
    "attack-sd": ["attack", *ATTACK_ARGS],
    "attack-doom": ["attack", "--mode", "doom", "--q", "4", *ATTACK_ARGS],
    "bound": ["bound", "--preset", "surf", "--lambda", "64", "--seed", "1"],
    "simulate": ["simulate", "--game", "4,5", "--trials", "8", "--seed", "2"],
    "exponents": ["exponents", "--rate", "0.4", "--omega", "0.2"],
    "exponents-rate": ["exponents", "--rate", "0.5"],
    "attack-force": ["attack", "--n", "66", "--k", "33", "--w", "2", "--force",
                     "--budget", "200"],
}
KEY_FILES = ("pk.key", "sk.key")
ECHO_FLAGS = {"k_u": "ku", "games": "game"}


def argv_from_echo(line):
    """The command line that the echoed configuration describes."""
    pairs = dict(part.split("=", 1) for part in line.split(" "))
    argv = [pairs.pop("command")]
    if pairs.get("preset") == "none":
        del pairs["preset"]
    if pairs.get("mode") == "sd":
        del pairs["q"]  # sd decodes its one target; --q is doom-only
    for key, value in pairs.items():
        argv.append("--" + ECHO_FLAGS.get(key, key).replace("_", "-"))
        if value != "True":  # a store_true flag echoes as key=True
            argv.append(value)
    return argv


def run_in(workdir, monkeypatch, capsys, argv):
    """Exit code, stdout and key-file bytes of one run in a fresh directory."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, _ = run_cli(capsys, *argv)
    paths = [workdir / name for name in KEY_FILES]
    keys = [path.read_bytes() for path in paths if path.exists()]
    return code, out, keys


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_run_replays_from_its_echoed_configuration(tmp_path, monkeypatch, capsys, case):
    unechoed = ["--format", "structured"]
    if case.startswith("keygen"):
        unechoed += ["--public-key", KEY_FILES[0], "--secret-key", KEY_FILES[1]]
    first_argv = [*REPLAY_CASES[case], *unechoed]
    first = run_in(tmp_path / "first", monkeypatch, capsys, first_argv)
    replay_argv = [*argv_from_echo(first[1].splitlines()[0]), *unechoed]
    replay = run_in(tmp_path / "replay", monkeypatch, capsys, replay_argv)
    assert first[0] == 0
    assert replay == first
    assert len(first[2]) == (2 if case.startswith("keygen") else 0)


@pytest.mark.parametrize("name", cbfdh.cli.COMMANDS)
def test_every_command_renders_its_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cbfdh {name} ")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cbfdh", "exponents",
         "--rate", "0.5", "--omega", "0.190899"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "0.020349" in proc.stdout


def test_closed_stdout_ends_the_run_as_sigpipe_would():
    """A reader that stops after the echo line, as ``| head -1`` does,
    ends the run with exit 141 (128 + SIGPIPE) and nothing on stderr; the
    games still to come each print a line into the closed pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbfdh", "simulate", "--trials", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    try:
        assert proc.stdout.readline().startswith("command=simulate ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# --- signals ---------------------------------------------------------------------------


def _proc_status(pid):
    """The fields of /proc/<pid>/status, or {} once the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            pairs = [line.split(":", 1) for line in fh]
    except OSError:
        return {}
    return {key: value.strip() for key, value in pairs}


def _signal_bit(mask, signum):
    return int(mask, 16) >> (signum - 1) & 1


def _live(pid):
    return _proc_status(pid).get("State", "Z")[0] != "Z"


def _live_group(pgid):
    """Pids of the processes in group ``pgid`` that have not exited."""
    found = []
    for pid in map(int, filter(str.isdigit, os.listdir("/proc"))):
        with contextlib.suppress(OSError):
            if os.getpgid(pid) == pgid and _live(pid):
                found.append(pid)
    return found


def _cpu_seconds(pid):
    """User plus system time ``pid`` has used, or 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# a child's environment without PYTHONUNBUFFERED, which a shell may export:
# its stdout is block-buffered, as it is for most runs into a pipe or file
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads processes from /proc")
@pytest.mark.parametrize("workers, settle", [
    ("1", True), ("2", True), ("2", False),
], ids=("sequential", "workers", "pool-start-up"))
@pytest.mark.parametrize("signum, code", [
    (signal.SIGINT, 130), (signal.SIGTERM, 143),
], ids=("SIGINT", "SIGTERM"))
def test_signal_ends_simulate_without_traceback_or_survivors(signum, code, workers, settle):
    """SIGINT reaches the whole process group, as a terminal's ^C does, and
    SIGTERM the command alone, as kill and timeout send it; either way the
    run exits 128 + signum with no traceback, its stdout, block-buffered,
    keeps the lines it printed, echo first, and its pool's workers exit
    once their owner is gone.  A settled run is
    signalled inside its games; the pool-start-up case signals as soon as
    the handler is installed, before or while the pool forks its workers."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbfdh", "simulate", "--game", "0",
         "--trials", "2^30", "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env=BUFFERED_ENV,
        # a shell may start the tests with SIGINT ignored, which the child
        # would inherit
        preexec_fn=functools.partial(signal.signal, signal.SIGINT, signal.SIG_DFL),
    )
    # a pool holds two workers, and a cap of one CPU runs in process
    pool_size = 2 if workers == "2" and (os.cpu_count() or 1) >= 2 else 0
    try:
        # wait until the command has installed its SIGTERM handler; a
        # settled run also waits until it plays its games: every pool
        # worker has started and ignores SIGINT, or the sequential run has
        # used 1 s of CPU, five times what it takes to reach game 0
        deadline = time.monotonic() + 60
        while True:
            assert proc.poll() is None and time.monotonic() < deadline
            caught = _proc_status(proc.pid).get("SigCgt", "0")
            family = [pid for pid in _live_group(proc.pid) if pid != proc.pid]
            ignored = [_proc_status(pid).get("SigIgn", "0") for pid in family]
            if _signal_bit(caught, signal.SIGTERM) and (not settle or (
                len(family) >= pool_size
                and all(_signal_bit(m, signal.SIGINT) for m in ignored)
                and (pool_size or _cpu_seconds(proc.pid) >= 1.0)
            )):
                break
            time.sleep(0.05 if settle else 0.01)
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        out, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (code, "error: interrupted\n")
        if settle or out:  # a signal in start-up may come before the echo
            assert out.splitlines()[0] == (
                "command=simulate seed=0 n=12 k=6 w=4 lambda=8 lambda0=24 "
                f"trials={2**30} games=0 workers={workers}"
            )
        deadline = time.monotonic() + 10
        while _live_group(proc.pid):
            assert time.monotonic() < deadline, "a pool process outlived the command"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _kill_a_pool_owner(argv, helpers):
    """Start ``argv``, a run with two pool workers and ``helpers`` more
    processes that ignore SIGINT, as they do, SIGKILL it once they all run,
    and require every process of its group to exit within 5 s."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    pool_size = 2 + helpers if (os.cpu_count() or 1) >= 2 else 0
    try:
        # every worker has run its initializer once it ignores SIGINT
        deadline = time.monotonic() + 60
        while True:
            assert proc.poll() is None and time.monotonic() < deadline
            family = [pid for pid in _live_group(proc.pid) if pid != proc.pid]
            ignored = [_proc_status(pid).get("SigIgn", "0") for pid in family]
            if len(family) >= pool_size and all(_signal_bit(m, signal.SIGINT) for m in ignored):
                break
            time.sleep(0.05)
        time.sleep(0.2)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while _live_group(proc.pid):
            assert time.monotonic() < deadline, "a pool worker outlived its killed parent"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads processes from /proc")
def test_pool_workers_exit_once_their_parent_is_killed():
    """SIGKILL leaves the parent no ``finally`` to shut its pool down: each
    worker sees that its parent is gone and exits within 5 s."""
    _kill_a_pool_owner(
        [sys.executable, "-m", "cbfdh", "simulate", "--trials", "2^20", "--workers", "2"], 0
    )


FORKSERVER_RUN = """
import multiprocessing, sys
from cbfdh.cli import main
multiprocessing.set_start_method("forkserver")
sys.exit(main(sys.argv[1:]))
"""
NO_FORKSERVER = "forkserver" not in multiprocessing.get_all_start_methods()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads processes from /proc")
@pytest.mark.skipif(NO_FORKSERVER, reason="no forkserver")
def test_forkserver_pool_workers_exit_once_their_owner_is_killed():
    """A forkserver worker's parent is the server, which outlives a killed
    owner while the workers hold its pipe open: each worker watches the
    owner instead and exits within 5 s, and the server and the resource
    tracker then exit too."""
    _kill_a_pool_owner(
        [sys.executable, "-c", FORKSERVER_RUN, "simulate", "--trials", "2^20", "--workers", "2"],
        2,
    )


# a process that runs the pool initializer for the owner pid it is given,
# then waits: only the initializer's orphan watcher can end it early
ORPHAN_WORKER = """
import sys, time
from cbfdh import isd
print("initializing", flush=True)
isd._worker_signals(int(sys.argv[1]))
time.sleep(60)
"""


def test_a_pool_worker_whose_owner_died_before_it_started_exits():
    """A worker is given its owner's pid: one whose owner died between the
    fork and the initializer, already reparented when the initializer
    runs, still sees that its owner is gone and exits within a second."""
    gone = subprocess.Popen([sys.executable, "-c", ""])
    gone.wait()
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_WORKER, str(gone.pid)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "initializing\n"
        assert proc.wait(timeout=1) == 1
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.skipif(NO_FORKSERVER, reason="no forkserver")
def test_forkserver_pool_workers_run_under_their_server(capsys):
    """A forkserver worker's parent is the server, not its owner: its
    workers keep to their trials and give the sequential run's records."""
    argv = ["simulate", "--game", "0,5", "--trials", "200", "--seed", "3"]
    proc = subprocess.run(
        [sys.executable, "-c", FORKSERVER_RUN, *argv, "--workers", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    _, seq, _ = run_cli(capsys, *argv)
    assert proc.stdout.splitlines()[1:] == seq.splitlines()[1:]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_a_record_reaches_the_pipe_as_it_is_printed():
    """With stdout a block-buffered pipe, a long run's echo line can be read
    while the run goes on, so a run that is killed, by SIGKILL or the OOM
    killer, keeps it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbfdh", "simulate", "--game", "0", "--trials", "2^30"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=BUFFERED_ENV,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready and proc.poll() is None
        assert proc.stdout.readline().startswith(b"command=simulate ")
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


# a command whose stop handler runs inside a weakref callback, where CPython
# drops any exception a handler raises, then waits 10 s and says it ran on
DROPPED_STOP = """
import _signal, sys, time, weakref
from cbfdh import cli

class Target:
    pass

def main(argv=None):
    target = Target()
    # the reference outlives its referent, so its callback runs
    ref = weakref.ref(target, lambda ref: _signal.raise_signal(int(sys.argv[1])))
    del target
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        time.sleep(0.001)
    print("ran on")
    return 0

cli.main = main
cli.entry_point()
"""


@pytest.mark.parametrize("signum, code", [
    (signal.SIGINT, 130), (signal.SIGTERM, 143),
], ids=("SIGINT", "SIGTERM"))
def test_a_stop_dropped_in_a_callback_still_ends_the_run(signum, code):
    """A stop inside a weakref callback, as at the end of an import, where
    CPython would drop an exception the handler raised, ends the run from
    the handler: one error line, exit 128 + signum, and nothing else."""
    proc = subprocess.run(
        [sys.executable, "-c", DROPPED_STOP, str(int(signum))],
        capture_output=True, text=True, timeout=60, env=BUFFERED_ENV,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "error: interrupted\n")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_a_sigalrm_ends_the_command_as_it_ends_any_process():
    """The command installs no SIGALRM handler: the signal ends it by its
    default action, with nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbfdh", "simulate", "--game", "0", "--trials", "2^30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    try:
        # the command runs its games once its first line is out
        assert proc.stdout.readline().startswith("command=simulate")
        proc.send_signal(signal.SIGALRM)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (-signal.SIGALRM, "")
    finally:
        proc.kill()
        proc.wait()


# --- standard-library runtime ---------------------------------------------------------

NO_SCIPY_PRELUDE = """
import sys
sys.modules["scipy"] = sys.modules["numpy"] = None
from cbfdh.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["exponents", "--seed", "0"],
    ["bound", "--preset", "surf", "--seed", "0"],
    ["simulate", "--trials", "4", "--seed", "0"],
], ids=("exponents", "bound", "simulate"))
def test_cli_runs_with_scipy_and_numpy_blocked(argv, capsys):
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PRELUDE, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_import_loads_no_scipy_numpy_or_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         # reading each library module's __all__ runs that lazily loaded module
         "import sys, cbfdh, cbfdh.cli; [getattr(cbfdh, m).__all__ for m in cbfdh.__all__];"
         " print(sorted(k for k in sys.modules"
         " if k.split('.')[0] in ('scipy', 'numpy')"
         " or k == 'concurrent.futures.process'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
