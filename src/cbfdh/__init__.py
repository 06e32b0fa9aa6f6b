"""Workbench for code-based hash-and-sign signatures.

The package splits into three layers: GF(2) linear algebra and code
constructions (f2, codes, hashing), the signature scheme plus the decoding
attacks against it (scheme, isd, foursum), and the security analysis tools
(exponents for asymptotic attack costs, reduction for the oracle-game
harness and loss-bound calculators).  The cli module ties them together for
reproducible batch runs.
"""

from .codes import (
    DiscreteDistribution,
    ParityCheckCode,
    UUVCode,
    random_parity_check,
    stat_distance,
    syndrome,
    syndrome_weight_distribution,
    uuv_parity_check,
)
from .exponents import (
    RatePoint,
    doom_quantum_exponent,
    entropy,
    entropy_inv,
    gv_bound,
    gv_relative_weight,
    prange_exponent_classical,
    prange_exponent_quantum,
)
from .f2 import BitMatrix, BitVector, Permutation
from .foursum import (
    FourSumInstance,
    build_foursum_instance,
    lift_foursum_solution,
    snap_foursum_params,
    solve_foursum,
)
from .hashing import FdhHash, rank_weight_pattern, syndrome_hash, unrank_weight_pattern
from .isd import (
    DoomSolution,
    IsdParams,
    SearchResult,
    doom_attack,
    generalized_isd,
    isd_success,
    m_solutions,
    plant_instance,
)
from .reduction import (
    GameConfig,
    GameStats,
    LazyOracle,
    OmniscientAdversary,
    ZOracle,
    condition_check,
    extract_doom_solution,
    run_game,
    sign_without_secret,
    theorem1_bound_log2,
)
from .scheme import (
    PublicKey,
    SchemeParams,
    SecretKey,
    Signature,
    SignatureKeyPair,
    SigningFailure,
    keygen,
    measure_decoder_distance,
    random_code_family,
    sign,
    uuv_code_family,
    verify,
)

__version__ = "0.1.0"
