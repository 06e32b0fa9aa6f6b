"""The bench tracer patches library names from outside; each one it lists
must still exist, or every traced bench run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_library():
    targets = load_tracer().TARGETS
    assert targets
    for mod_name, path, _, _ in targets:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{mod_name}.{path}: no {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{path} is not callable"
