"""Entropy of a reduction channel with respect to a state.

The central quantity is the infimum, over pure-state decompositions of a
density operator, of the average entropy of the pushed-forward members;
subtracting it from the entropy of the pushed-forward state gives a
concave, non-negative entropy-like functional of the pair (state,
channel).  The package provides the optimizer, closed-form references for
two solvable families, accessible-information brackets, and a JSON
command line.
"""

from .accinfo import (
    BenattiBracket,
    HolevoCheck,
    Measurement,
    benatti_bracket,
    channel_from_measurement,
    ensemble_from_subalgebra,
    holevo_check,
    measurement_mutual_info,
)
from .channels import (
    BlockDensity,
    KrausTerm,
    ReductionChannel,
    block_compression,
    block_entropy,
    commutative_channel,
    diagonal_pinching,
    identity_channel,
    pinching,
    reduce_state,
)
from .ensembles import (
    Ensemble,
    convex_sum,
    mutual_entropy,
    pure_ensemble,
    shorten,
)
from .jsonio import (
    block_density_to_json,
    channel_from_json,
    channel_to_json,
    decode_matrix,
    decode_vector,
    density_from_json,
    encode_matrix,
    encode_vector,
    ensemble_from_json,
    ensemble_to_json,
    pure_from_json,
    roof_result_to_json,
    round_floats,
)
from .oracles import (
    BlockDecomposition,
    BlockExampleData,
    block_example_analyze,
    block_example_decomposition,
    qubit_R,
    qubit_R_series,
)
from .roof import (
    AffinityCertificate,
    RoofResult,
    SolverConfig,
    ZeroEntropyReport,
    affinity_certificate,
    decomposition_from_isometry,
    roof_objective,
    solve_R,
    zero_entropy_structure,
)
from .states import (
    DEFAULT_TOL,
    DensityOperator,
    PureState,
    Tolerances,
    ValidationError,
    binary_entropy,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT_TOL",
    "ValidationError",
    "DensityOperator",
    "PureState",
    "von_neumann_entropy",
    "shannon_entropy",
    "binary_entropy",
    "relative_entropy",
    "Ensemble",
    "pure_ensemble",
    "convex_sum",
    "shorten",
    "mutual_entropy",
    "KrausTerm",
    "ReductionChannel",
    "BlockDensity",
    "reduce_state",
    "block_entropy",
    "identity_channel",
    "diagonal_pinching",
    "pinching",
    "block_compression",
    "commutative_channel",
    "SolverConfig",
    "RoofResult",
    "solve_R",
    "roof_objective",
    "decomposition_from_isometry",
    "AffinityCertificate",
    "affinity_certificate",
    "ZeroEntropyReport",
    "zero_entropy_structure",
    "qubit_R",
    "qubit_R_series",
    "BlockExampleData",
    "block_example_analyze",
    "BlockDecomposition",
    "block_example_decomposition",
    "Measurement",
    "ensemble_from_subalgebra",
    "channel_from_measurement",
    "measurement_mutual_info",
    "BenattiBracket",
    "benatti_bracket",
    "HolevoCheck",
    "holevo_check",
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "decode_vector",
    "ensemble_to_json",
    "ensemble_from_json",
    "channel_to_json",
    "channel_from_json",
    "density_from_json",
    "pure_from_json",
    "block_density_to_json",
    "roof_result_to_json",
    "round_floats",
    "run_verify",
]
