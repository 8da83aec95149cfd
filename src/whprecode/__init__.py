"""Statistics-adapted pulse design for doubly dispersive channels.

Models a random channel as a weighted superposition of cyclic
time-frequency shifts, averages its action into a completely positive
map, and designs precoder/equalizer pairs and multiplexing schemes that
maximize the long-term gain and SINR.  At L=2 the optimum is available in
closed form; numerical oracles, general-L optimizers and a Monte Carlo
harness verify it end to end.

The package namespace is lazy (PEP 562): ``import whprecode`` imports no
submodule and no numpy.  The first access to a public name imports the
module that defines it and returns that module's own object, so
``whprecode.solve_fidelity is whprecode.bloch.solve_fidelity``;
``from whprecode import *`` binds every name of ``__all__``, and
``dir(whprecode)`` lists them all.  A submodule is an attribute only once
it is imported (``import whprecode.mc``).
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "bloch": (
        "ChannelClass", "FidelitySolution", "ScatteringQuad", "bloch_to_matrix",
        "classify_channel", "is_on_bloch_manifold", "map_matrix_rep", "matrix_to_bloch",
        "optimal_precoder_vector", "optimal_projectors", "solve_fidelity",
        "worst_case_fidelity",
    ),
    "errors": (
        "DimensionMismatchError", "InvalidConfigError", "InvalidDensityOperatorError",
        "InvalidSchemeError", "InvalidWeightsError", "NonHermitianError", "NotUnitNormError",
        "SingularDenominatorError", "WHPrecodeError",
    ),
    "heisenberg": ("pauli", "shift_operator"),
    "linalg": ("max_generalized_eigenpair", "rank_one_projector"),
    "mc": ("McReport", "SweepRow", "estimate_expectations", "sweep_p0"),
    "multiplex": ("Scheme", "crosstalk", "frame_bounds", "select_schemes"),
    "optimize": (
        "CosetBound", "GeneralDesign", "OptimizationTrace", "OptimizerConfig",
        "alternating_fidelity_max", "brute_force_bloch_oracle", "coset_bound",
        "fidelity_upper_bound", "general_design", "optimal_receiver", "pair_gain",
        "ppt_bound", "ppt_certificate", "structured_lower_bound",
    ),
    "wssus": (
        "CpPropertyReport", "ScatteringFunction", "apply_A", "apply_adjoint_A",
        "apply_interference", "channel_fidelity", "sinr", "spreading_eigenvalues",
        "verify_cp_properties",
    ),
}
# Public name -> its home module: the one table __getattr__ and __dir__ read.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name on first access and bind the name here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
