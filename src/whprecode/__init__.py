"""Statistics-adapted pulse design for doubly dispersive channels.

Models a random channel as a weighted superposition of cyclic
time-frequency shifts, averages its action into a completely positive
map, and designs precoder/equalizer pairs and multiplexing schemes that
maximize the long-term gain and SINR.  At L=2 the optimum is available in
closed form; numerical oracles, general-L optimizers and a Monte Carlo
harness verify it end to end.
"""

from .bloch import (
    ChannelClass,
    FidelitySolution,
    ScatteringQuad,
    bloch_to_matrix,
    classify_channel,
    is_on_bloch_manifold,
    map_matrix_rep,
    matrix_to_bloch,
    optimal_precoder_vector,
    optimal_projectors,
    solve_fidelity,
    worst_case_fidelity,
)
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    InvalidDensityOperatorError,
    InvalidSchemeError,
    InvalidWeightsError,
    NonHermitianError,
    NotUnitNormError,
    SingularDenominatorError,
    WHPrecodeError,
)
from .heisenberg import pauli, shift_operator
from .linalg import max_generalized_eigenpair, rank_one_projector
from .mc import McReport, SweepRow, estimate_expectations, sweep_p0
from .multiplex import Scheme, crosstalk, frame_bounds, select_schemes
from .optimize import (
    CosetBound,
    OptimizationTrace,
    OptimizerConfig,
    alternating_fidelity_max,
    brute_force_bloch_oracle,
    coset_bound,
    fidelity_lower_bound_search,
    fidelity_upper_bound,
    optimal_receiver,
    pair_gain,
    ppt_bound,
    ppt_certificate,
)
from .wssus import (
    CpPropertyReport,
    ScatteringFunction,
    apply_A,
    apply_adjoint_A,
    apply_interference,
    channel_fidelity,
    sinr,
    spreading_eigenvalues,
    verify_cp_properties,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelClass",
    "CosetBound",
    "CpPropertyReport",
    "DimensionMismatchError",
    "FidelitySolution",
    "InvalidConfigError",
    "InvalidDensityOperatorError",
    "InvalidSchemeError",
    "InvalidWeightsError",
    "McReport",
    "NonHermitianError",
    "NotUnitNormError",
    "OptimizationTrace",
    "OptimizerConfig",
    "ScatteringFunction",
    "ScatteringQuad",
    "Scheme",
    "SingularDenominatorError",
    "SweepRow",
    "WHPrecodeError",
    "alternating_fidelity_max",
    "apply_A",
    "apply_adjoint_A",
    "apply_interference",
    "bloch_to_matrix",
    "brute_force_bloch_oracle",
    "channel_fidelity",
    "classify_channel",
    "coset_bound",
    "crosstalk",
    "estimate_expectations",
    "fidelity_lower_bound_search",
    "fidelity_upper_bound",
    "frame_bounds",
    "is_on_bloch_manifold",
    "map_matrix_rep",
    "matrix_to_bloch",
    "max_generalized_eigenpair",
    "optimal_precoder_vector",
    "optimal_projectors",
    "optimal_receiver",
    "pair_gain",
    "pauli",
    "ppt_bound",
    "ppt_certificate",
    "rank_one_projector",
    "select_schemes",
    "shift_operator",
    "sinr",
    "solve_fidelity",
    "spreading_eigenvalues",
    "sweep_p0",
    "verify_cp_properties",
    "worst_case_fidelity",
]
