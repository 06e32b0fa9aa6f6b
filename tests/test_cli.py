import concurrent.futures
import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbfdh.cli
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
    with pytest.raises(ValueError, match="exceeds 2\\^64"):
        parse_count("2^65")
    with pytest.raises(ValueError):
        parse_level_log2("-0.5")


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
    assert lines[line][-1] == "0"
    lines[line] = lines[line][:-1] + "f"
    padded = tmp_path / "padded.sig"
    padded.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *verify, "--signature", str(padded))
    assert code == 2 and "error: nonzero padding bits" in err
    assert "result=" not in out


def _key_body_lines(path):
    data = path.read_bytes()
    fixed = len(MAGIC) + 17  # magic, four packed u32 fields, newline
    return data[:fixed], data[fixed:].decode().splitlines()


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


@pytest.mark.parametrize("header", ["x 24", "-1 24"])
def test_secret_key_bad_block_header_exit_2(tmp_path, capsys, header):
    main(keygen_args(tmp_path))
    head, lines = _key_body_lines(tmp_path / "sk.key")
    lines[0] = header
    bad = tmp_path / "bad.key"
    bad.write_bytes(head + ("\n".join(lines) + "\n").encode())
    code, _, err = run_cli(
        capsys, "sign", "--secret-key", str(bad),
        "--signature", str(tmp_path / "m.sig"), "--message", "hello",
    )
    assert code == 2
    assert "error: bad matrix header" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ["attack", "--budget"], ["attack", "--mode", "doom", "--q"],
    ["simulate", "--trials"],
], ids=("budget", "q", "trials"))
def test_huge_power_of_two_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "2^99999999999999999999"])
    assert exc.value.code == 2
    assert "invalid parse_count value" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--mode", "sd"]], ids=("default", "sd"))
def test_attack_q_needs_doom_mode(capsys, mode):
    code, out, err = run_cli(capsys, "attack", *mode, "--q", "1000", *ATTACK_ARGS)
    assert code == 2 and err == "error: --q needs --mode doom\n"
    assert out == ""


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
    code, _, err = run_cli(capsys, "simulate", "--game", "9")
    assert code == 2 and "error:" in err


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

    def __init__(self, max_workers):
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
