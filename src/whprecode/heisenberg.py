"""Cyclic time-frequency shift operators on C^L.

The operators built here are the channel alphabet used everywhere else in
the package: ``S[(mu1, mu2)]`` cyclically delays by ``mu1`` samples and
modulates by ``mu2`` frequency bins.  The L*L of them form a projective
group (products close up to a unit phase), and at L=2 they coincide with
the Pauli matrices up to a factor ``i`` on the double shift.

One exact index and phase table per L, ``_layout``, builds these operators
and every map kernel, Kraus stack and tap frame in ``wssus``, bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import InvalidWeightsError
from .linalg import require_int

# Quarter-turn phases are emitted exactly so that small-L operators have
# entries drawn from {0, +-1, +-i} with zero rounding error.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)

# Shift index carried by sigma_i at L=2, in Pauli order 0..3.
PAULI_SHIFTS: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (0, 1))

_PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def unit_phase(k: int, L: int) -> complex:
    """Return exp(2*pi*i*k/L), exact at quarter turns, else taken from k/L in lowest terms."""
    k %= L
    quarters, rest = divmod(4 * k, L)
    if rest == 0:
        return _QUARTER_TURNS[quarters]
    g = math.gcd(k, L)
    return cmath.exp(2j * cmath.pi * (k // g) / (L // g))


@functools.lru_cache(maxsize=None)
def _layout(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index and phase tables of the shift group at dimension L.

    ``rows[d, n] = (n + d) mod L`` is the row of entry n of cyclic diagonal d,
    ``lags[n, j] = (n - j) mod L`` and ``phases[mu2, m] = unit_phase(mu2 * m, L)``,
    so row m of ``S_(mu1, mu2)`` holds ``phases[mu2, m]`` in column ``lags[m, mu1]``.
    """
    n = np.arange(L)
    turns = np.array([unit_phase(k, L) for k in range(L)])
    tables = ((n + n[:, None]) % L, (n[:, None] - n) % L, turns[np.outer(n, n) % L])
    for table in tables:
        table.setflags(write=False)
    return tables


def shift_operator(L: int, mu: tuple[int, int]) -> np.ndarray:
    """Unitary cyclic shift by mu = (mu1 samples, mu2 frequency bins).

    Row m (zero based) has its single nonzero entry in column (m - mu1) mod L
    with phase exp(2*pi*i*mu2*m/L).  ``shift_operator(L, (0, 0))`` is the
    identity.  Indices are reduced mod L, so any integer pair is accepted.
    """
    L = require_int(L, "dimension", 1)
    mu1, mu2 = _reduced_shift(mu, L)
    _, lags, phases = _layout(L)
    S = np.zeros((L, L), dtype=complex)
    S[np.arange(L), lags[:, mu1]] = phases[mu2]
    return S


def _reduced_shift(mu, L: int) -> tuple[int, int]:
    """The integer shift pair mu reduced mod a checked dimension L: the one shift reader."""
    try:
        mu1, mu2 = mu
    except (TypeError, ValueError):
        raise InvalidWeightsError(f"shift must be an integer pair, got {mu!r}") from None
    return require_int(mu1, "shift index") % L, require_int(mu2, "shift index") % L


def pauli(i: int) -> np.ndarray:
    """Return the Pauli matrix sigma_i, i in {0, 1, 2, 3}."""
    return _PAULI[require_int(i, "pauli index", 0, 3)].copy()
