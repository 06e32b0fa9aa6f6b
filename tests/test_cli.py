import subprocess
import sys

import pytest

from cbfdh.cli import main, parse_count, parse_level_log2
from cbfdh.scheme import MAGIC

import math


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    with pytest.raises(ValueError):
        parse_count("-3")
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


def test_same_seed_gives_byte_identical_keys(tmp_path):
    main(keygen_args(tmp_path, seed=5))
    first_pk = (tmp_path / "pk.key").read_bytes()
    first_sk = (tmp_path / "sk.key").read_bytes()
    main(keygen_args(tmp_path, seed=5))
    assert (tmp_path / "pk.key").read_bytes() == first_pk
    assert (tmp_path / "sk.key").read_bytes() == first_sk


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
    code, _, err = run_cli(capsys, "exponents", "--rate", "0.5")
    assert code == 2 and "error:" in err


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


def test_bound_rejects_bad_values(capsys):
    code, _, err = run_cli(capsys, "bound", "--eps-doom", "-0.5")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "bound", "--q-hash", "many")
    assert code == 2 and "error:" in err


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
         "import sys, cbfdh, cbfdh.cli; print(sorted(k for k in sys.modules"
         " if k.split('.')[0] in ('scipy', 'numpy')"
         " or k == 'concurrent.futures.process'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
