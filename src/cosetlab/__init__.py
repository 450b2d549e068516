"""Double-coset products on block unitary, orthogonal and symmetric groups,
with Monte Carlo and exact-enumeration concentration experiments."""

from .blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    build_JN,
    embed,
    embed_k,
    is_unitary,
    operator_norm,
)
from .cosets import (
    CosetTarget,
    GroupFamily,
    circ_N,
    circ_infinite,
)
from .experiments import (
    BlockDecayReport,
    ConcentrationReport,
    ExperimentConfig,
    run_block_decay,
    run_concentration,
    wilson_interval,
    write_report,
)
from .geometry import (
    DistanceEstimate,
    colligation_char_function,
    dist_conjugacy,
    dist_conjugacy_stack,
    dist_double_coset,
    dist_double_coset_stack,
    eigenvalue_matching_distance,
    sym_corner_invariant,
    sym_membership,
    verify_estimate,
)
from .haar import (
    RandomStream,
    haar_orthogonal,
    haar_unitary,
    uniform_permutation,
)
from .hypergroup_exact import (
    ExactDistribution,
    concentration_exact,
    exact_convolution,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix", "BlockSpec", "PermutationWord", "build_JN", "embed", "embed_k",
    "is_unitary", "operator_norm",
    "CosetTarget", "GroupFamily", "circ_N", "circ_infinite",
    "BlockDecayReport", "ConcentrationReport", "ExperimentConfig", "run_block_decay",
    "run_concentration", "wilson_interval", "write_report",
    "DistanceEstimate", "colligation_char_function", "dist_conjugacy",
    "dist_conjugacy_stack", "dist_double_coset", "dist_double_coset_stack",
    "eigenvalue_matching_distance",
    "sym_corner_invariant", "sym_membership", "verify_estimate",
    "RandomStream", "haar_orthogonal", "haar_unitary", "uniform_permutation",
    "ExactDistribution", "concentration_exact", "exact_convolution",
    "__version__",
]
