"""Workbench for code-based hash-and-sign signatures.

The package splits into three layers: GF(2) linear algebra and code
constructions (f2, codes, hashing), the signature scheme plus the decoding
attacks against it (scheme, isd, foursum), and the security analysis tools
(exponents for the asymptotic attack-cost and loss-bound calculators,
reduction for the oracle-game harness).  The cli module ties them together
for reproducible batch runs.

Each library submodule loads on first use: importing the package binds
``cbfdh.f2`` and its siblings as lazy modules (also in ``sys.modules``),
and the first attribute read runs the module, so a CLI command runs only
the modules it calls.  Where the platform can, that first run blocks
SIGINT and SIGTERM, so a stop lands once the module is whole: the import
code that reads a lazy module's ``__spec__``, which runs it, drops any
exception the run raises, and the module would stay half-run.
"""

import _signal  # signal's builtin core; signal's enums cost a cold command 1 ms
import importlib.util
import sys
from functools import partial

__version__ = "0.1.0"
__all__ = [
    "codes", "exponents", "f2", "foursum", "hashing", "isd", "reduction", "scheme",
]


def _stops_blocked(exec_module, module) -> None:
    """``exec_module(module)`` with SIGINT and SIGTERM blocked."""
    mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGINT, _signal.SIGTERM})
    try:
        exec_module(module)
    finally:
        _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)


def _lazy(name: str) -> None:
    """Register submodule ``name`` in sys.modules and on the package; its
    code runs at the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    if hasattr(_signal, "pthread_sigmask"):
        spec.loader.exec_module = partial(_stops_blocked, spec.loader.exec_module)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in __all__:
    _lazy(_name)
del _name
