"""Which library modules each CLI command runs, and the modules the package binds.

Every library submodule loads on first use, so a command runs only the
modules it calls.  Each case below runs in a fresh interpreter and lists
the ``cbfdh`` submodules that were executed: those whose type is plain
``types.ModuleType``, not the lazy stand-in.  It also lists which of the
slow-to-import standard modules ``dataclasses`` and ``inspect`` were
loaded, which must be none.  Runnable without pytest; it prints one line
per case and exits 1 on any mismatch:

    PYTHONPATH=src python tests/test_lazy_loading.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile

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
}
SCHEME = ["_record", "cli", "f2", "hashing", "scheme"]
REDUCTION = ["_record", "cli", "f2", "hashing", "isd", "reduction", "scheme"]
EXPECTED = {
    "import cbfdh": [],
    "import cbfdh.cli": ["cli"],
    "keygen": ["_record", "cli", "f2", "scheme"],
    "keygen-uuv": ["_record", "cli", "codes", "f2", "scheme"],
    "sign": SCHEME,
    "verify": SCHEME,
    "attack-sd": ["_record", "cli", "f2", "isd"],
    "attack-doom": ["_record", "cli", "f2", "hashing", "isd"],
    "exponents": ["_record", "cli", "exponents"],
    "bound": ["_record", "cli", "exponents"],
    "simulate": REDUCTION,
}
# standard modules no command may load: dataclasses pulls in inspect, and
# the two cost a cold command about 15 ms
SLOW_IMPORTS = ["dataclasses", "inspect"]

CHILD = """
import contextlib, io, json, sys, types
{statement}
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cbfdh.cli.main(argv)
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
    """The library modules the child ran, and the slow imports it loaded."""
    child = CHILD.format(statement=statement, slow=SLOW_IMPORTS)
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(argv)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{argv or statement}: {proc.stderr[-400:]}")
    modules, slow = json.loads(proc.stdout)
    return modules, slow


def module_sets(workdir: str) -> dict[str, tuple[list[str], list[str]]]:
    """The library modules each case runs and the slow imports it loads,
    every case in its own interpreter."""
    env = _child_env()
    # keys and a signature for sign and verify, made in a child of their own
    _child("import cbfdh.cli", KEYGEN, workdir, env)
    _child("import cbfdh.cli", CASES["sign"], workdir, env)
    return {
        kind: _child(kind if kind.startswith("import") else "import cbfdh.cli",
                     argv, workdir, env)
        for kind, argv in CASES.items()
    }


def check_modules() -> None:
    import cbfdh

    assert cbfdh.__all__ == MODULES
    for module in MODULES:
        owner = importlib.import_module(f"cbfdh.{module}")
        assert getattr(cbfdh, module) is owner, module
    assert cbfdh.__version__ == "0.1.0"
    try:
        cbfdh.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("unknown attribute did not raise AttributeError")


def test_each_command_runs_only_the_modules_it_calls(tmp_path):
    got = module_sets(str(tmp_path))
    assert {kind: modules for kind, (modules, _) in got.items()} == EXPECTED
    assert {kind: slow for kind, (_, slow) in got.items()} == {kind: [] for kind in CASES}


def test_package_exports_are_the_submodule_objects():
    check_modules()


if __name__ == "__main__":
    check_modules()
    with tempfile.TemporaryDirectory() as workdir:
        got = module_sets(workdir)
    failed = False
    for kind, (modules, slow) in got.items():
        ok = modules == EXPECTED[kind] and not slow
        failed |= not ok
        loads = f"; loads {' '.join(slow)}" if slow else ""
        print(f"{'ok  ' if ok else 'FAIL'} {kind}: {' '.join(modules) or '-'}{loads}")
    sys.exit(1 if failed else 0)
