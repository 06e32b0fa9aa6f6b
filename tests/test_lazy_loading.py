"""Which library modules each CLI command runs, and the modules the package binds.

Every library submodule loads on first use, so a command runs only the
modules it calls.  Each case below runs in a fresh interpreter and lists
the ``cbfdh`` submodules that were executed: those whose type is plain
``types.ModuleType``, not the lazy stand-in.  It also lists which of the
slow-to-import standard modules ``dataclasses`` and ``inspect`` were
loaded, which must be none, and of ``fractions`` and ``decimal``, which
the ``attack`` and ``simulate`` cases must not load.  No case after
``import cbfdh.cli`` but ``keygen --help`` loads ``argparse``, since the
command table parses exact spellings itself, nor the ``gettext`` and
``locale`` modules that argparse's messages load, unless the bare
interpreter already has them.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys

import pytest

# the pinned command kinds of the cli-cold benchmark, plus the uuv family
ISD = ["--n", "24", "--k", "12", "--w", "4", "--p", "1", "--l", "2"]
KEYGEN = [
    "keygen", "--n", "24", "--k", "12", "--w", "7", "--lambda", "16",
    "--lambda0", "24", "--public-key", "pk.key", "--secret-key", "sk.key",
]
CASES = {
    "import cbfdh": [],
    "import cbfdh.cli": [],
    "keygen": KEYGEN,
    "keygen-uuv": [*KEYGEN, "--family", "uuv"],
    "sign": ["sign", "--secret-key", "sk.key", "--signature", "m.sig",
             "--message", "hello"],
    "verify": ["verify", "--public-key", "pk.key", "--signature", "m.sig",
               "--message", "hello"],
    "attack-sd": ["attack", "--mode", "sd", *ISD, "--seed", "3"],
    "attack-doom": ["attack", "--mode", "doom", "--q", "8", *ISD, "--seed", "3"],
    "exponents": ["exponents"],
    "bound": ["bound", "--preset", "surf"],
    "simulate": ["simulate", "--trials", "4"],
    "keygen-help": ["keygen", "--help"],
}
SCHEME = ["_record", "cli", "f2", "hashing", "scheme"]
REDUCTION = ["_record", "cli", "f2", "hashing", "isd", "reduction", "scheme"]
EXPECTED = {
    "import cbfdh": [],
    "import cbfdh.cli": ["cli"],
    "keygen": ["_record", "cli", "f2", "scheme"],
    "keygen-uuv": ["_record", "cli", "f2", "scheme"],
    "sign": SCHEME,
    "verify": SCHEME,
    "attack-sd": ["_record", "cli", "f2", "isd"],
    "attack-doom": ["_record", "cli", "f2", "hashing", "isd"],
    "exponents": ["_record", "cli", "exponents"],
    "bound": ["_record", "cli", "exponents"],
    "simulate": REDUCTION,
    "keygen-help": ["cli"],
}
# standard modules no command may load: dataclasses pulls in inspect, and
# the two cost a cold command about 15 ms
SLOW_IMPORTS = ["dataclasses", "inspect"]
# fractions pulls in decimal; codes loads both, but the uuv family, the
# attacks and the game harness need neither
NUMERIC_IMPORTS = ["fractions", "decimal"]
NUMERIC_FREE = ["keygen-uuv", "attack-sd", "attack-doom", "simulate"]
# argparse, about 3 ms to import, and the modules its first message loads,
# about 1.5 ms more; only --help, abbreviations and input errors build a parser
PARSER_IMPORTS = ["argparse", "gettext", "locale"]
PARSING = "keygen-help"

CHILD = """
import contextlib, io, json, sys, types
{statement}
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cbfdh.cli.main(argv)
        except SystemExit as exc:  # argparse's, after --help
            code = exc.code
    if code != 0:
        sys.exit(f"{{argv[0]}} exited {{code}}")
print(json.dumps([sorted(
    name.split(".", 1)[1] for name, module in sys.modules.items()
    if name.startswith("cbfdh.") and type(module) is types.ModuleType
), [name for name in {slow} if name in sys.modules]]))
"""

# the library modules the package binds lazily
MODULES = ["codes", "exponents", "f2", "foursum", "hashing", "isd", "reduction", "scheme"]


def _child_env() -> dict[str, str]:
    # the children run in a scratch directory: point them at this package
    # by absolute path, whether it comes from PYTHONPATH or an install
    package_dir = importlib.util.find_spec("cbfdh").submodule_search_locations[0]
    root = os.path.dirname(package_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _child(
    statement: str, argv: list[str], workdir: str, env: dict
) -> tuple[list[str], list[str]]:
    """The library modules the child ran, and the watched standard modules
    it loaded."""
    child = CHILD.format(
        statement=statement, slow=SLOW_IMPORTS + NUMERIC_IMPORTS + PARSER_IMPORTS
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(argv)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{argv or statement}: {proc.stderr[-400:]}")
    modules, slow = json.loads(proc.stdout)
    return modules, slow


def test_each_command_runs_only_the_modules_it_calls(tmp_path):
    """Each case in its own interpreter: the library modules it runs and the
    watched standard modules it loads."""
    workdir, env = str(tmp_path), _child_env()
    # keys and a signature for sign and verify, made in a child of their own
    _child("import cbfdh.cli", KEYGEN, workdir, env)
    _child("import cbfdh.cli", CASES["sign"], workdir, env)
    got = {
        kind: _child(kind if kind.startswith("import") else "import cbfdh.cli",
                     argv, workdir, env)
        for kind, argv in CASES.items()
    }
    assert {kind: modules for kind, (modules, _) in got.items()} == EXPECTED
    # the modules a bare interpreter loads here, site hooks included
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    # per case, the watched standard modules it must not load
    forbidden = {
        kind: SLOW_IMPORTS
        + (NUMERIC_IMPORTS if kind in NUMERIC_FREE else [])
        + ([] if kind == PARSING else [m for m in PARSER_IMPORTS if m not in bare])
        for kind in CASES
    }
    loaded = {kind: [m for m in slow if m in forbidden[kind]] for kind, (_, slow) in got.items()}
    assert loaded == {kind: [] for kind in CASES}
    assert "argparse" in got[PARSING][1]


def test_package_exports_are_the_submodule_objects():
    import cbfdh

    assert cbfdh.__all__ == MODULES
    for module in MODULES:
        owner = importlib.import_module(f"cbfdh.{module}")
        assert getattr(cbfdh, module) is owner, module
    assert cbfdh.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        cbfdh.no_such_name


# A SIGINT raised at the first line of f2, which isd's first run imports,
# at a point where the import code drops any exception the load raises
INTERRUPTED_LOAD = """
import _signal, json, sys, cbfdh
stops = {_signal.SIGINT, _signal.SIGTERM}
_signal.pthread_sigmask(_signal.SIG_UNBLOCK, stops)

def blocked():
    return stops <= _signal.pthread_sigmask(_signal.SIG_BLOCK, [])

seen = []

def probe(frame, event, arg):
    name = frame.f_globals.get("__name__")
    if event == "call" and frame.f_code.co_name == "<module>" and name in ("cbfdh.isd", "cbfdh.f2"):
        seen.append([name, blocked()])
        if name == "cbfdh.f2":
            _signal.raise_signal(_signal.SIGINT)

sys.setprofile(probe)
try:
    cbfdh.isd.run_trials
    raised = None
except BaseException as exc:
    raised = type(exc).__name__
sys.setprofile(None)
print(json.dumps([seen, raised, blocked(), hasattr(cbfdh.f2, "sample"),
                  hasattr(cbfdh.isd, "run_trials")]))
"""


def test_a_stop_during_a_module_first_run_lands_once_it_is_whole():
    """Each module's first run blocks SIGINT and SIGTERM and restores the
    mask after: a ^C during a nested lazy load is raised where the outer
    load was asked for, and both modules are whole."""
    if not hasattr(signal, "pthread_sigmask"):
        pytest.skip("the platform cannot block signals")
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_LOAD],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen, raised, blocked_after, f2_whole, isd_whole = json.loads(proc.stdout)
    assert seen == [["cbfdh.isd", True], ["cbfdh.f2", True]]
    assert raised == "KeyboardInterrupt"
    assert not blocked_after
    assert f2_whole and isd_whole


# A SIGINT raised at the first line of f2, whose first run the import code
# starts while it looks up ``cbfdh.f2.__spec__`` for a from-import; with the
# package already imported, CPython before 3.13 clears any exception the
# lookup raises
FROM_IMPORT_STOPPED = """
import _signal, sys, cbfdh
_signal.signal(_signal.SIGINT, _signal.default_int_handler)
_signal.pthread_sigmask(_signal.SIG_UNBLOCK, {_signal.SIGINT})

def probe(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "<module>" and (
        frame.f_globals.get("__name__") == "cbfdh.f2"
    ):
        sys.setprofile(None)
        _signal.raise_signal(_signal.SIGINT)

sys.setprofile(probe)
from cbfdh.f2 import sample
print("bound", sample.__name__)
"""


@pytest.mark.xfail(
    sys.version_info < (3, 13), strict=True,
    reason="the import code drops a stop raised in a lazy module's first "
    "run started by its __spec__ lookup; ordinary imports propagate it",
)
def test_a_stop_during_a_from_import_first_run_interrupts_the_script():
    if not hasattr(signal, "pthread_sigmask"):
        pytest.skip("the platform cannot block signals")
    proc = subprocess.run(
        [sys.executable, "-c", FROM_IMPORT_STOPPED],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "KeyboardInterrupt" in proc.stderr, proc.stdout
