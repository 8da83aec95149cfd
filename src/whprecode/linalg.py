"""Dense hermitian linear algebra for the small operators used here.

Thin, contract-enforcing wrappers over LAPACK via numpy: an ordinary
hermitian eigensolver, the hermitian-definite generalized eigenproblem
(solved by Cholesky reduction) that the receiver optimizer needs, and
rank-one projectors.  Operators here are small (the benchmark runs L up
to 32), so robustness and clear failure modes win over speed.
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
    """Return M as a complex array, raising if max|M - M*| exceeds 1e-12."""
    A = require_square(M, name)
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


def hermitian_eigensystem(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors of hermitian M.

    Returns ``(w, V)`` with ``M @ V[:, i] == w[i] * V[:, i]``.
    """
    A = require_hermitian(M)
    w, V = np.linalg.eigh(A)
    return w, V


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
    x = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise NotUnitNormError(f"vector norm {np.linalg.norm(x):.15f} is not 1 within 1e-12")
    return np.outer(x, x.conj())
