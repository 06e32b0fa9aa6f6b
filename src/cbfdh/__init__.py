"""Workbench for code-based hash-and-sign signatures.

The package splits into three layers: GF(2) linear algebra and hashing
into syndrome space (f2, hashing), the signature scheme with its code
families plus the decoding attacks against it (scheme, isd, foursum), and
the security analysis tools (exponents for the asymptotic attack-cost and
loss-bound calculators, codes for exact syndrome laws and their distance
from uniform, reduction for the oracle-game harness).  The cli module ties
them together for reproducible batch runs.

Each library submodule loads on first use: importing the package binds
``cbfdh.f2`` and its siblings as lazy modules (also in ``sys.modules``),
and the first attribute read runs the module, so a CLI command runs only
the modules it calls.

``STOP_SIGNALS``, SIGINT and SIGTERM, stop a run; :func:`stops_blocked`
holds them off during a call.  A module's first run is such a call, so a
stop lands once the module is whole (the import code that reads a lazy
module's ``__spec__``, which runs it, drops any exception the run raises).
So is each map that forks a trial pool's workers; a worker unblocks them
(:func:`unblock_stops`) once it has its own handlers.
"""

import _signal  # signal's builtin core; signal's enums cost a cold command 1 ms
import importlib.util
import sys
from functools import partial

__version__ = "0.1.0"
__all__ = [
    "codes", "exponents", "f2", "foursum", "hashing", "isd", "reduction", "scheme",
]

STOP_SIGNALS = (_signal.SIGINT, _signal.SIGTERM)


def stops_blocked(call, *args):
    """``call(*args)`` with ``STOP_SIGNALS`` blocked, where the platform
    can, then the mask found again: a stop that came meanwhile lands on
    return."""
    if not hasattr(_signal, "pthread_sigmask"):
        return call(*args)
    mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, STOP_SIGNALS)
    try:
        return call(*args)
    finally:
        _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)


def unblock_stops() -> None:
    """Unblock ``STOP_SIGNALS``, where the platform can."""
    if hasattr(_signal, "pthread_sigmask"):
        _signal.pthread_sigmask(_signal.SIG_UNBLOCK, STOP_SIGNALS)


def _lazy(name: str) -> None:
    """Register submodule ``name`` in sys.modules and on the package; its
    code runs at the first attribute read, with the stops blocked."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader.exec_module = partial(stops_blocked, spec.loader.exec_module)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in __all__:
    _lazy(_name)
del _name
