"""Dense hermitian linear algebra for the small operators used here.

Thin, contract-enforcing wrappers over LAPACK via numpy: the package's
input readers, one per kind of input (``require_int``, ``require_real`` and
``require_array``; ``heisenberg._reduced_shift`` reads shift pairs), the
hermitian-definite generalized eigenproblem (solved by Cholesky reduction)
that the receiver optimizer needs, and rank-one projectors.
Operators here are small (the benchmark runs L up to 32), so robustness
and clear failure modes win over speed.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidWeightsError,
    NonHermitianError,
    NotUnitNormError,
    SingularDenominatorError,
)

HERMITIAN_TOL = 1e-12
POSITIVE_DEFINITE_TOL = 1e-12


class _Repr(reprlib.Repr):
    """reprlib's short repr, naming an int too long for decimal text by its bit length."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            return f"<int of {x.bit_length()} bits>"


_short_repr = _Repr().repr


def require_int(n, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """Return n as an int, raising unless it is an integer in [minimum, maximum].

    The one check of counts, seeds, dimensions and shift, axis and Pauli
    indices: Python and numpy integers pass; bool, float, str and None fail,
    so none is rounded or read from a flag.  A bound of None is open.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidWeightsError(f"{name} must be an integer, got {_short_repr(n)}")
    if minimum is not None and n < minimum or maximum is not None and n > maximum:
        allowed = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise InvalidWeightsError(f"{name} must be {allowed}, got {_short_repr(int(n))}")
    return int(n)


def require_real(x, name: str, lo: float | None = None, hi: float | None = None) -> float:
    """Return x as a float, raising unless it is a finite real number in [lo, hi].

    The one check of real scalars: Python and numpy integers and floats
    pass; bool, str, None, complex, NaN, +-inf and integers beyond the float
    range fail.  A bound of None is open.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise InvalidWeightsError(f"{name} must be a real number, got {_short_repr(x)}")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
    if not (math.isfinite(value) and lo <= value <= hi):
        raise InvalidWeightsError(f"{name} must be a finite number in [{lo}, {hi}], got {value!r}")
    return value


def _holds_bool(x) -> bool:
    """True if x is a bool, or a list or tuple holding one at any depth."""
    if isinstance(x, (list, tuple)):
        return any(map(_holds_bool, x))
    return isinstance(x, (bool, np.bool_))


def require_array(x, name: str, dtype: type = complex, finite: bool = True) -> np.ndarray:
    """Return x as a ``dtype`` array, raising unless it is a rectangular array of numbers.

    The one reader of weights, Bloch vectors, pulses and operators: integers,
    floats and (unless ``dtype`` is float) complex numbers pass; strings, bools
    (even among numbers), None, other objects and ragged nesting fail, and so
    does a NaN or infinite entry unless ``finite`` is false.  May share x's memory.
    """
    try:
        a = np.asarray(x)
    except (ValueError, TypeError):  # ragged nesting
        a = np.empty(0, dtype=object)
    if a.dtype.kind not in ("iuf" if dtype is float else "iufc") or _holds_bool(x):
        noun = "real numbers" if dtype is float else "numbers"
        raise InvalidWeightsError(f"{name} must be an array of {noun}, got {_short_repr(x)}")
    a = a.astype(dtype, copy=False)
    if finite and not np.isfinite(a).all():
        raise InvalidWeightsError(f"{name} has a NaN or infinite entry")
    return a


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = require_array(M, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    return A


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Return M as a complex array, raising unless M is finite and max|M - M*| <= 1e-12."""
    A = require_square(M, name)
    defect = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(
            f"{name} is not hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})"
        )
    return A


def require_unit_vector(v, name: str = "vector") -> np.ndarray:
    """Return v flattened to complex, raising unless it is a vector of norm 1 within 1e-12.

    Shapes (L,), (L, 1) and (1, L) read as the same vector; an array with
    more than one axis longer than 1 is a matrix, not a pulse, and fails.
    """
    x = require_array(v, name)
    if sum(n > 1 for n in x.shape) > 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {x.shape}")
    x = x.reshape(-1)
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
