"""Second-stream multiplexing at unit spectral density.

With one pulse per signal-space dimension (determinant-one lattice), adding
a second data stream at L=2 means occupying exactly one more shift slot.
The three optimal pulses each have zero self-crosstalk under the two shifts
whose Pauli index differs from their own axis, so those slots carry a
second stream with no further orthogonalization: the shifted pair is an
orthonormal basis and the single-stream mean gain carries over unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bloch import _axis_index, optimal_precoder_vector
from .errors import DimensionMismatchError, InvalidSchemeError
from .heisenberg import PAULI_SHIFTS, shift_operator
from .linalg import require_unit_vector
from .wssus import (
    ScatteringFunction,
    _interference_level,
    coerce_scheme_shifts,
    validate_density_operator,
)

CROSSTALK_TOL = 1e-12


@dataclass(frozen=True)
class Scheme:
    """Set of time-frequency slots carrying parallel streams.

    Always contains the origin (the reference stream); shifts are stored
    reduced mod L and must be distinct.
    """

    L: int
    shifts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.L < 1:
            raise InvalidSchemeError(f"dimension must be >= 1, got {self.L}")
        object.__setattr__(self, "shifts", coerce_scheme_shifts(self.shifts, self.L))

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self) -> int:
        return len(self.shifts)

    @property
    def nonzero_shifts(self) -> tuple[tuple[int, int], ...]:
        return tuple(mu for mu in self.shifts if mu != (0, 0))


def crosstalk(x, mu: tuple[int, int]) -> complex:
    """Self-interference coefficient <x, S_mu x> of a unit pulse.

    The full complex value is returned, not just its magnitude: the
    double-shift relation for the circular pulse carries a phase ``i``
    that matters for equalization.
    """
    v = require_unit_vector(x, "pulse")
    S = shift_operator(v.shape[0], mu)
    return complex(np.vdot(v, S @ v))


def frame_bounds(vectors) -> tuple[float, float]:
    """Extremal eigenvalues of the frame operator sum_i v_i v_i*.

    A family of L vectors in C^L is an orthonormal basis exactly when both
    bounds equal one.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise DimensionMismatchError("frame_bounds requires at least one vector")
    dim = vecs[0].shape[0]
    if any(v.shape[0] != dim for v in vecs):
        raise DimensionMismatchError("all vectors must share one dimension")
    frame_op = np.zeros((dim, dim), dtype=complex)
    for v in vecs:
        frame_op += np.outer(v, v.conj())
    w = np.linalg.eigvalsh(frame_op)
    return float(w[0]), float(w[-1])


def select_schemes(n: int) -> list[Scheme]:
    """Two-slot schemes with zero transmitter-side crosstalk for pulse n.

    Probes the three nonzero shifts against the axis-n pulse and keeps
    those with vanishing self-interference; these are exactly the two
    shifts whose Pauli index differs from n.  For the frequency-flat pulse
    (n=1) this selects the frequency shift, i.e. frequency-division
    multiplexing; for the time-localized pulse (n=3) the time shift.
    Results are ordered lexicographically by shift.  The table is built
    once per axis and process; each call returns a fresh list.
    """
    return list(_zero_crosstalk_schemes(_axis_index(n)))


@functools.cache
def _zero_crosstalk_schemes(n: int) -> tuple[Scheme, ...]:
    x = optimal_precoder_vector(n)
    return tuple(
        Scheme(2, ((0, 0), mu))
        for mu in sorted(PAULI_SHIFTS[1:])
        if abs(crosstalk(x, mu)) <= CROSSTALK_TOL
    )


def best_scheme(C: ScatteringFunction, gamma_proj, g_proj, n: int) -> Scheme:
    """The zero-crosstalk scheme for pulse n with least averaged interference.

    Ties within 1e-12 fall back to the lexicographically smaller shift.
    """
    candidates = select_schemes(n)
    if not candidates:
        raise InvalidSchemeError(f"no crosstalk-free scheme exists for axis {n}")
    gamma_op = validate_density_operator(gamma_proj, C.L)
    g_op = validate_density_operator(g_proj, C.L)
    levels = [_interference_level(C, gamma_op, g_op, scheme) for scheme in candidates]
    best = min(levels)
    for scheme, level in zip(candidates, levels):
        if level - best <= 1e-12:
            return scheme
    return candidates[0]

