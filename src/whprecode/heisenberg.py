"""Cyclic time-frequency shift operators on C^L.

The operators built here are the channel alphabet used everywhere else in
the package: ``S[(mu1, mu2)]`` cyclically delays by ``mu1`` samples and
modulates by ``mu2`` frequency bins.  The L*L of them form a projective
group (products close up to a unit phase), and at L=2 they coincide with
the Pauli matrices up to a factor ``i`` on the double shift.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

# Quarter-turn phases are emitted exactly so that small-L operators have
# entries drawn from {0, +-1, +-i} with zero rounding error.
_EXACT_TURNS = {
    Fraction(0, 1): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}

# Shift index carried by sigma_i at L=2, in Pauli order 0..3.
PAULI_SHIFTS: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (0, 1))

_PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def unit_phase(k: int, L: int) -> complex:
    """Return exp(2*pi*i*k/L), exact for multiples of a quarter turn."""
    turn = Fraction(k % L, L)
    exact = _EXACT_TURNS.get(turn)
    if exact is not None:
        return exact
    return cmath.exp(2j * cmath.pi * turn.numerator / turn.denominator)


def shift_operator(L: int, mu: tuple[int, int]) -> np.ndarray:
    """Unitary cyclic shift by mu = (mu1 samples, mu2 frequency bins).

    Row m (zero based) has its single nonzero entry in column (m - mu1) mod L
    with phase exp(2*pi*i*mu2*m/L).  ``shift_operator(L, (0, 0))`` is the
    identity.  Indices are reduced mod L, so any integer pair is accepted.
    """
    if L < 1:
        raise ValueError(f"dimension must be >= 1, got {L}")
    mu1 = int(mu[0]) % L
    mu2 = int(mu[1]) % L
    S = np.zeros((L, L), dtype=complex)
    for m in range(L):
        S[m, (m - mu1) % L] = unit_phase(mu2 * m, L)
    return S


def pauli(i: int) -> np.ndarray:
    """Return the Pauli matrix sigma_i, i in {0, 1, 2, 3}."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be in 0..3, got {i}")
    return _PAULI[i].copy()


def all_shifts(L: int) -> tuple[tuple[int, int], ...]:
    """All L*L shift indices in row-major (mu1, mu2) order."""
    return tuple((m, n) for m in range(L) for n in range(L))
