"""Workbench for code-based hash-and-sign signatures.

The package splits into three layers: GF(2) linear algebra and code
constructions (f2, codes, hashing), the signature scheme plus the decoding
attacks against it (scheme, isd, foursum), and the security analysis tools
(exponents for asymptotic attack costs, reduction for the oracle-game
harness and loss-bound calculators).  The cli module ties them together for
reproducible batch runs.

Each library submodule loads on first use: importing the package binds
``cbfdh.f2`` and its siblings as lazy modules (also in ``sys.modules``),
and the first attribute read runs the module.  The names re-exported here
(``cbfdh.BitVector``, ``from cbfdh import doom_attack``) load their module
the same way, so a CLI command runs only the modules it calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# re-exported names, keyed by the submodule that defines them
_EXPORTS = {
    "codes": (
        "DiscreteDistribution", "stat_distance", "syndrome_weight_distribution",
        "uuv_parity_check",
    ),
    "exponents": (
        "RatePoint", "doom_quantum_exponent", "entropy", "entropy_inv", "gv_bound",
        "gv_relative_weight", "prange_exponent_classical",
        "prange_exponent_quantum",
    ),
    "f2": ("BitMatrix", "BitVector", "Permutation"),
    "foursum": (
        "FourSumInstance", "build_foursum_instance", "lift_foursum_solution",
        "snap_foursum_params", "solve_foursum",
    ),
    "hashing": (
        "FdhHash", "rank_weight_pattern", "syndrome_hash", "unrank_weight_pattern",
    ),
    "isd": (
        "DoomSolution", "IsdParams", "SearchResult", "doom_attack",
        "generalized_isd", "isd_success", "m_solutions", "plant_instance",
    ),
    "reduction": (
        "GameConfig", "GameStats", "LazyOracle", "OmniscientAdversary", "ZOracle",
        "condition_check", "extract_doom_solution", "run_game",
        "sign_without_secret", "theorem1_bound_log2",
    ),
    "scheme": (
        "PublicKey", "SchemeParams", "SecretKey", "Signature", "SignatureKeyPair",
        "SigningFailure", "keygen", "measure_decoder_distance",
        "random_code_family", "sign", "uuv_code_family", "verify",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str) -> None:
    """Register submodule ``name`` in sys.modules and on the package; its
    code runs at the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _EXPORTS:
    _lazy(_name)
del _name
__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_OWNER])
