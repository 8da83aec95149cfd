"""Tests for the generalized eigensolver, projectors and input checks."""

import numpy as np
import pytest

from whprecode.errors import (
    NonHermitianError,
    NotUnitNormError,
    SingularDenominatorError,
    WHPrecodeError,
)
from whprecode.heisenberg import pauli
from whprecode.linalg import max_generalized_eigenpair, rank_one_projector, unit_vector
from whprecode.mc import estimate_expectations
from whprecode.multiplex import best_scheme, crosstalk
from whprecode.optimize import optimal_receiver
from whprecode.wssus import ScatteringFunction, channel_fidelity, sinr


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


# A NaN or infinite entry must fail every vector and operator check, wherever
# it sits: comparisons with NaN are False, so a check written ``x > tol``
# would let it through.
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
    "sinr": lambda v, M: sinr(_C2, M, _HALF, [(0, 0), (0, 1)], 0.1),
    "optimal_receiver": lambda v, M: optimal_receiver(_C2, M, [(0, 0), (1, 0)], 0.1),
    "best_scheme": lambda v, M: best_scheme(_C2, M, _HALF, 1),
    "max_generalized_eigenpair_numerator": lambda v, M: max_generalized_eigenpair(
        M, np.eye(2)
    ),
    "max_generalized_eigenpair_denominator": lambda v, M: max_generalized_eigenpair(
        np.eye(2), M
    ),
}


@pytest.mark.parametrize("kind", list(_NON_FINITE))
@pytest.mark.parametrize("call", list(_CHECKED_CALLS))
def test_non_finite_vectors_and_operators_are_rejected(call, kind):
    vector, operator = _NON_FINITE[kind]
    with pytest.raises(WHPrecodeError):
        _CHECKED_CALLS[call](vector, operator)
