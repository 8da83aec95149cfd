"""Tests for the generalized eigensolver, projectors and input checks."""

import enum
import inspect
import math

import numpy as np
import pytest
from conftest import unit_vector
from hypothesis import given, settings
from hypothesis import strategies as st

import whprecode
from whprecode.bloch import (
    axis_unit_vector,
    bloch_to_matrix,
    optimal_precoder_vector,
    optimal_projectors,
)
from whprecode.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotUnitNormError,
    SingularDenominatorError,
    WHPrecodeError,
)
from whprecode.heisenberg import pauli, shift_operator
from whprecode.linalg import max_generalized_eigenpair, rank_one_projector
from whprecode.mc import estimate_expectations
from whprecode.multiplex import Scheme, crosstalk, select_schemes
from whprecode.optimize import (
    OptimizationTrace,
    OptimizerConfig,
    alternating_fidelity_max,
    fidelity_lower_bound_search,
    optimal_receiver,
)
from whprecode.wssus import (
    ScatteringFunction,
    apply_interference,
    channel_fidelity,
    coerce_scheme_shifts,
    sinr,
)


def random_hermitian(rng, L):
    Z = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    return (Z + Z.conj().T) / 2.0


def random_spd(rng, L, shift=1.0):
    Z = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    return Z @ Z.conj().T + shift * np.eye(L)


def quadratic_eigenvalues(M):
    """Roots of the characteristic polynomial of a hermitian 2x2 matrix."""
    a = M[0, 0].real
    c = M[1, 1].real
    b = M[0, 1]
    disc = np.sqrt((a - c) ** 2 + 4.0 * abs(b) ** 2)
    return (a + c - disc) / 2.0, (a + c + disc) / 2.0


def test_random_2x2_matches_quadratic_formula():
    rng = np.random.default_rng(7)
    for _ in range(200):
        M = random_hermitian(rng, 2)
        lam, _ = max_generalized_eigenpair(M, np.eye(2))
        _, hi = quadratic_eigenvalues(M)
        assert abs(lam - hi) <= 1e-10


def test_eigensystem_rejects_non_hermitian():
    non_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError):
        max_generalized_eigenpair(non_hermitian, np.eye(2))
    with pytest.raises(NonHermitianError):
        max_generalized_eigenpair(np.eye(2), np.eye(2) + non_hermitian)


def test_generalized_identity_denominator_is_ordinary():
    A = np.diag([2.0, 1.0]).astype(complex)
    lam, v = max_generalized_eigenpair(A, np.eye(2))
    assert abs(lam - 2.0) <= 1e-12
    assert abs(abs(v[0]) - 1.0) <= 1e-10

    lam, _ = max_generalized_eigenpair(pauli(1), np.eye(2))
    assert abs(lam - 1.0) <= 1e-12


@pytest.mark.parametrize("L", [2, 3, 5])
def test_generalized_reduces_to_ordinary(L):
    rng = np.random.default_rng(10 + L)
    for _ in range(20):
        A = random_hermitian(rng, L)
        lam, v = max_generalized_eigenpair(A, np.eye(L))
        assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_generalized_eigenpair_residual_and_optimality(L):
    rng = np.random.default_rng(20 + L)
    for _ in range(25):
        A = random_hermitian(rng, L)
        B = random_spd(rng, L)
        lam, v = max_generalized_eigenpair(A, B)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
        np.testing.assert_allclose(A @ v, lam * (B @ v), atol=1e-9 * np.linalg.norm(B))
        # No sampled direction beats the returned eigenvalue.
        for _ in range(50):
            u = unit_vector(rng.standard_normal(L) + 1j * rng.standard_normal(L))
            quotient = (np.vdot(u, A @ u) / np.vdot(u, B @ u)).real
            assert quotient <= lam + 1e-10


def test_generalized_matches_dense_grid_scan():
    # Dense scan over the phase-invariant parameterization of unit vectors
    # in C^2: v = (cos t, sin t e^{i phi}).
    rng = np.random.default_rng(99)
    A = random_hermitian(rng, 2)
    B = random_spd(rng, 2)
    lam, _ = max_generalized_eigenpair(A, B)
    ts = np.linspace(0.0, np.pi / 2.0, 181)
    phis = np.linspace(0.0, 2.0 * np.pi, 361)
    best = -np.inf
    for t in ts:
        vs = np.stack(
            [np.full_like(phis, np.cos(t)), np.sin(t) * np.exp(1j * phis)], axis=1
        )
        num = np.einsum("ni,ij,nj->n", vs.conj(), A, vs).real
        den = np.einsum("ni,ij,nj->n", vs.conj(), B, vs).real
        best = max(best, float(np.max(num / den)))
    assert best <= lam + 1e-10
    assert lam - best <= 5e-3


def test_generalized_rejects_indefinite_denominator():
    with pytest.raises(SingularDenominatorError):
        max_generalized_eigenpair(np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(SingularDenominatorError):
        max_generalized_eigenpair(np.eye(2), np.diag([1.0, -1.0]))


def test_projector_basis_vector():
    np.testing.assert_allclose(
        rank_one_projector([1.0, 0.0]), np.diag([1.0, 0.0]).astype(complex), atol=0
    )


def test_projector_flat_pulse():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    np.testing.assert_allclose(rank_one_projector(v), np.full((2, 2), 0.5), atol=1e-15)


def test_projector_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        L = int(rng.integers(2, 5))
        v = unit_vector(rng.standard_normal(L) + 1j * rng.standard_normal(L))
        P = rank_one_projector(v)
        assert abs(np.trace(P).real - 1.0) <= 1e-12
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        np.testing.assert_allclose(P, P.conj().T, atol=0)
        np.testing.assert_allclose(P @ v, v, atol=1e-12)


def test_projector_rejects_non_unit():
    with pytest.raises(NotUnitNormError):
        rank_one_projector([1.0, 1.0])


_PULSE_READERS = {
    "rank_one_projector": rank_one_projector,
    "crosstalk": lambda x: crosstalk(x, (1, 1)),
    "estimate_expectations": lambda x: estimate_expectations(
        ScatteringFunction.uniform(x.size), x, x, [(0, 0)], 0.1, trials=2
    ),
}


@settings(max_examples=150)
@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(_PULSE_READERS)),
)
def test_pulses_are_vectors(shape, seed, reader):
    # A unit-norm array of any shape: a matrix (two or more axes longer
    # than 1) fails, and a row, a column or a scalar reads as its entries.
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    flat = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    flat /= np.linalg.norm(flat)
    call = _PULSE_READERS[reader]
    if sum(n > 1 for n in shape) > 1:
        with pytest.raises(DimensionMismatchError):
            call(flat.reshape(shape))
    else:
        np.testing.assert_array_equal(call(flat.reshape(shape)), call(flat))


# A NaN or infinite entry must fail every weight, vector and operator check,
# wherever it sits: comparisons with NaN are False, so a check written
# ``x > tol`` would let it through.  So must an entry that is not a number:
# read as numbers, the string, bool and complex rows below would be valid.
_NON_FINITE = {
    "nan": (np.array([np.nan, 0.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])),
    "inf": (np.array([np.inf, 0.0]), np.array([[np.inf, 0.0], [0.0, 1.0]])),
    "nan_off_diagonal": (
        np.array([0.6, complex(0.0, np.nan)]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
    ),
    "inf_off_diagonal": (
        np.array([0.6, complex(0.0, np.inf)]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
    ),
    "string": (["1", "0"], [["0.5", "0"], ["0", "0.5"]]),
    "ragged": ([1.0, [0.0]], [[0.5, 0.5], [0.0]]),
    "bool": (np.array([True, False]), np.array([[True, False], [False, False]])),
    # Complex entries are valid in pulses and operators, so this row's pulse
    # is not unit and its operator not hermitian; as weights or a Bloch
    # vector it fails for its imaginary part alone.
    "complex_weights": (np.array([1j, 1j]), np.array([[0.5, 0.5j], [0.5j, 0.5]])),
    "overflow": ([10**400, 0], [[10**400, 0], [0, 1]]),
    # Past Python's 4,300-digit limit for int-to-decimal conversion.
    "too_long_for_decimal": ([10**5000, 0], [[10**5000, 0], [0, 1]]),
}
_C2 = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
_HALF = np.eye(2) / 2.0
_E0 = np.array([1.0, 0.0])
_CHECKED_CALLS = {
    "rank_one_projector": lambda v, M: rank_one_projector(v),
    "crosstalk": lambda v, M: crosstalk(v, (1, 0)),
    "estimate_expectations": lambda v, M: estimate_expectations(
        _C2, v, _E0, [(0, 0)], sigma2=0.1, trials=10
    ),
    "channel_fidelity": lambda v, M: channel_fidelity(_C2, M, _HALF),
    "channel_fidelity_equalizer": lambda v, M: channel_fidelity(_C2, _HALF, M),
    "sinr": lambda v, M: sinr(_C2, M, _HALF, [(0, 0), (0, 1)], 0.1),
    "sinr_equalizer": lambda v, M: sinr(_C2, _HALF, M, [(0, 0), (0, 1)], 0.1),
    "optimal_receiver": lambda v, M: optimal_receiver(_C2, M, [(0, 0), (1, 0)], 0.1),
    "max_generalized_eigenpair_numerator": lambda v, M: max_generalized_eigenpair(
        M, np.eye(2)
    ),
    "max_generalized_eigenpair_denominator": lambda v, M: max_generalized_eigenpair(
        np.eye(2), M
    ),
    "ScatteringFunction": lambda v, M: ScatteringFunction(2, M),
    "bloch_to_matrix": lambda v, M: bloch_to_matrix(M),
}


@pytest.mark.parametrize("kind", list(_NON_FINITE))
@pytest.mark.parametrize("call", list(_CHECKED_CALLS))
def test_non_finite_vectors_and_operators_are_rejected(call, kind):
    vector, operator = _NON_FINITE[kind]
    with pytest.raises(WHPrecodeError):
        _CHECKED_CALLS[call](vector, operator)


# Every integer-taking entry point, as (kind, call): dimensions, shift indices
# (any integer, reduced mod L; kind mu1 or mu2 is the position in the shift
# pair the call takes), Pauli axes 1..3 and Pauli indices 0..3.
_C3 = ScatteringFunction.uniform(3)
_V3 = unit_vector([1.0, 1j, 0.0])
_P3 = rank_one_projector(_V3)
_INTEGER_ENTRIES = {
    "ScatteringFunction": ("dimension", lambda L: ScatteringFunction(L, np.full((2, 2), 0.25))),
    "ScatteringFunction.uniform": ("dimension", ScatteringFunction.uniform),
    "ScatteringFunction.concentrated": (
        "dimension", lambda L: ScatteringFunction.concentrated(L, (1, 0))
    ),
    "Scheme": ("dimension", lambda L: Scheme(L, ((0, 0), (1, 1)))),
    "shift_operator": ("dimension", lambda L: shift_operator(L, (1, 1))),
    "alternating_fidelity_max": (
        "dimension",
        lambda L: alternating_fidelity_max(_C2, L, OptimizerConfig(max_iters=3, restarts=2)),
    ),
    "fidelity_lower_bound_search": (
        "dimension", lambda L: fidelity_lower_bound_search(_C2, L, 10, seed=1)
    ),
    "shift_operator_mu1": ("mu1", lambda mu: shift_operator(3, mu)),
    "shift_operator_mu2": ("mu2", lambda mu: shift_operator(3, mu)),
    "ScatteringFunction.concentrated_mu1": (
        "mu1", lambda mu: ScatteringFunction.concentrated(3, mu)
    ),
    "ScatteringFunction.concentrated_mu2": (
        "mu2", lambda mu: ScatteringFunction.concentrated(3, mu)
    ),
    "Scheme_shift": ("mu1", lambda mu: Scheme(3, ((0, 0), mu))),
    "coerce_scheme_shifts": ("mu2", lambda mu: coerce_scheme_shifts([(0, 0), mu], 3)),
    "crosstalk": ("mu1", lambda mu: crosstalk(_V3, mu)),
    "apply_interference": ("mu1", lambda mu: apply_interference(_C3, _P3, [(0, 0), mu])),
    "sinr": ("mu1", lambda mu: sinr(_C3, _P3, _P3, [(0, 0), mu], 0.1)),
    "estimate_expectations": (
        "mu1",
        lambda mu: estimate_expectations(_C3, _V3, _V3, [(0, 0), mu], 0.1, trials=10),
    ),
    "axis_unit_vector": ("axis", axis_unit_vector),
    "optimal_projectors": ("axis", optimal_projectors),
    "optimal_precoder_vector": ("axis", optimal_precoder_vector),
    "select_schemes": ("axis", select_schemes),
    "pauli": ("pauli", pauli),
}
_NOT_INTEGERS = [2.5, 2.0, np.float64(2.0), True, np.True_, "2", None]
_OUT_OF_RANGE = {
    "dimension": [0, -1, -10**5000], "mu1": [], "mu2": [], "axis": [0, -1, 4, 10**5000],
    "pauli": [-1, 4, 10**5000],
}
_VALID = {"dimension": 2, "mu1": 1, "mu2": 1, "axis": 2, "pauli": 2}
# The argument carrying an integer: a shift pair (the other index 2) or itself.
_ARGUMENT = {"mu1": lambda m: (m, 2), "mu2": lambda m: (2, m)}
_NOT_PAIRS = [5, (1,), (1, 0, 1), None, "ab"]


def _bits(result):
    """A comparable record of a result's values and of the Python types of its scalars."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(_bits(r) for r in result)
    if isinstance(result, ScatteringFunction):
        return _bits((result.L, result.weights))
    if isinstance(result, Scheme):
        return _bits((result.L, result.shifts))
    if isinstance(result, OptimizationTrace):
        return _bits((result.objective_history, result.converged, result.best_value,
                      result.best_pair, result.restart_values))
    return type(result), result


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRIES))
def test_integers_are_the_only_indices_counts_and_dimensions(entry):
    kind, call = _INTEGER_ENTRIES[entry]
    argument = _ARGUMENT.get(kind, lambda n: n)
    bad_arguments = [argument(bad) for bad in _NOT_INTEGERS + _OUT_OF_RANGE[kind]]
    for bad in bad_arguments + (_NOT_PAIRS if kind in _ARGUMENT else []):
        # A WHPrecodeError, never a raw TypeError, IndexError or ZeroDivisionError.
        with pytest.raises(WHPrecodeError):
            call(bad)
    reference = _bits(call(argument(_VALID[kind])))
    for make in (np.int32, np.int64, np.uint16):
        assert _bits(call(argument(make(_VALID[kind])))) == reference


@pytest.mark.parametrize("make", [int, np.int64, np.uint8])
def test_dimensions_and_shifts_are_stored_as_python_ints(make):
    stored = [
        ScatteringFunction(make(2), np.full((2, 2), 0.25)).L,
        ScatteringFunction.uniform(make(2)).L,
        ScatteringFunction.concentrated(make(2), (make(1), 0)).L,
        *Scheme(make(3), ((0, 0), (make(4), make(2)))).shifts[1],
        Scheme(make(3), ((0, 0),)).L,
    ]
    assert stored == [2, 2, 2, 1, 2, 3]
    assert all(type(n) is int for n in stored)


# The input contract over the whole public API.  Exception classes and the
# ChannelClass enum are left out: an exception stores any arguments, and
# calling an enum looks a member up by value.
_PUBLIC = {
    name: obj
    for name, obj in vars(whprecode).items()
    if name in whprecode.__all__
    and not (isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)))
}
_SCALARS = (
    st.integers(-3, 64)
    | st.floats(-4.0, 4.0, allow_subnormal=False)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_subnormal=False)
    | st.booleans()
    | st.none()
    | st.text(max_size=3)
)
_JUNK = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids), max_leaves=8
)
_HANDLES = {
    "C": st.sampled_from([_C2, _C3]),
    "cfg": st.just(OptimizerConfig(max_iters=5, restarts=2)),
}


@st.composite
def _public_calls(draw):
    name = draw(st.sampled_from(sorted(_PUBLIC)))
    parameters = inspect.signature(_PUBLIC[name]).parameters
    return name, [draw(_HANDLES.get(p, _JUNK)) for p in parameters]


@settings(max_examples=600, deadline=None)
@given(_public_calls())
def test_public_api_raises_only_whprecode_errors(call):
    """Each public callable, given junk in every argument, succeeds or raises a WHPrecodeError.

    Every argument gets scalars (integers in -3..64, so a call that succeeds
    stays small), strings, None, bools, complex numbers, NaN, +-inf and
    nested lists and tuples of them.  ``C`` and ``cfg`` are typed handles, a
    ScatteringFunction and an OptimizerConfig, and get valid objects only;
    their constructors get junk like every other callable.
    """
    name, args = call
    try:
        _PUBLIC[name](*args)
    except WHPrecodeError:
        pass
