"""Dense hermitian linear algebra for the small operators used here.

Thin, contract-enforcing wrappers over LAPACK via numpy: the hermitian and
unit-norm checks, the hermitian-definite generalized eigenproblem (solved
by Cholesky reduction) that the receiver optimizer needs, and rank-one
projectors.  Operators here are small (the benchmark runs L up to 32), so
robustness and clear failure modes win over speed.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotUnitNormError,
    SingularDenominatorError,
)

HERMITIAN_TOL = 1e-12
POSITIVE_DEFINITE_TOL = 1e-12


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    return A


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Return M as a complex array, raising unless M is finite and max|M - M*| <= 1e-12."""
    A = require_square(M, name)
    if not np.isfinite(A).all():
        raise NonHermitianError(f"{name} has a NaN or infinite entry")
    defect = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(
            f"{name} is not hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})"
        )
    return A


def unit_vector(v) -> np.ndarray:
    """Normalize a nonzero vector to unit l2 norm."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise NotUnitNormError("cannot normalize the zero vector")
    return x / norm


def require_unit_vector(v, name: str = "vector") -> np.ndarray:
    """Return v flattened to complex, raising unless its norm is 1 within 1e-12 (NaN fails)."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(x))
    if not abs(norm - 1.0) <= 1e-12:
        raise NotUnitNormError(f"{name} norm {norm!r} is not 1 within 1e-12")
    return x


def max_generalized_eigenpair(A, B) -> tuple[float, np.ndarray]:
    """Top eigenpair of ``A v = lambda B v`` for hermitian A, positive definite B.

    Reduces via the Cholesky factor B = L L* to an ordinary hermitian problem
    on L^-1 A L^-*, then back-transforms the eigenvector.  The returned vector
    has unit l2 norm and maximizes the Rayleigh quotient <v,Av>/<v,Bv>.

    Raises SingularDenominatorError when B's smallest eigenvalue is not
    safely positive.
    """
    A = require_hermitian(A, name="numerator")
    B = require_hermitian(B, name="denominator")
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch: {A.shape} vs {B.shape}")
    w_B = np.linalg.eigvalsh(B)
    if w_B[0] <= POSITIVE_DEFINITE_TOL:
        raise SingularDenominatorError(
            f"denominator is not positive definite (min eigenvalue {w_B[0]:.3e})"
        )
    Lc = np.linalg.cholesky(B)
    X = np.linalg.solve(Lc, A)  # L^-1 A
    M = np.linalg.solve(Lc, X.conj().T).conj().T  # L^-1 A L^-*
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    v = np.linalg.solve(Lc.conj().T, V[:, -1])
    return float(w[-1]), v / np.linalg.norm(v)


def rank_one_projector(v) -> np.ndarray:
    """Orthogonal projector v v* onto a unit-norm vector."""
    x = require_unit_vector(v)
    return np.outer(x, x.conj())
