"""Cyclic time-frequency shift operators on C^L.

The operators built here are the channel alphabet used everywhere else in
the package: ``S[(mu1, mu2)]`` cyclically delays by ``mu1`` samples and
modulates by ``mu2`` frequency bins.  The L*L of them form a projective
group (products close up to a unit phase), and at L=2 they coincide with
the Pauli matrices up to a factor ``i`` on the double shift.

One exact index and phase table per L, ``_layout``, builds these operators
and every map kernel, Kraus stack and tap frame in ``wssus``, bit for bit.
``_lagrangian_lines`` lists, once per L, the maximal commuting subgroups
that the coset bound of ``optimize`` sums over; at L=2 ``multiplex`` reads
its coset table for the second-stream schemes.
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


@functools.lru_cache(maxsize=None)
def _lagrangian_lines(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only generators and coset tables of the cyclic Lagrangian lines at dimension L.

    A line is the subgroup ``{k g : k in Z_L}`` of a shift g of order L
    (``gcd(g1, g2, L) = 1``); its shifts commute, since
    ``S_mu S_nu = w^(mu2 nu1 - mu1 nu2) S_nu S_mu`` and that symplectic form
    vanishes on multiples of one g.  The form ``nu -> nu2 g1 - nu1 g2`` maps
    onto Z_L with the line as its kernel, so the L cosets of a line are its
    level sets, and coset t holds ``t h + k g`` for any h of form 1.  The
    generators are ``(1, 0), (1, 1), .., (1, L - 1)``, then the lines whose
    generators have a first index that is not a unit, ``(0, 1)`` last: at
    L = 2, the Pauli axes 1, 2, 3.  Returns the (n, 2) generators and the
    (n, L, L) table of flat shift indices ``mu1 * L + mu2`` of ``t h + k g``.
    """
    n = np.arange(L)
    g1, g2 = np.divmod(np.arange(L * L), L)
    order_L = np.gcd(np.gcd(g1, g2), L) == 1
    units = n[np.gcd(n, L) == 1]
    # A line's generator: the unit multiple u g with the smallest ((u g1 - 1) mod L, u g2).
    m1, m2 = units[:, None] * g1[order_L] % L, units[:, None] * g2[order_L] % L
    keys = np.flatnonzero(np.bincount(((m1 - 1) % L * L + m2).min(axis=0), minlength=L * L))
    a, b = (keys // L + 1) % L, keys % L
    # h: the first shift of form 1 against each generator (1 % L: at L = 1 every form is 0).
    h1, h2 = np.divmod(np.argmax((g2 * a[:, None] - g1 * b[:, None]) % L == 1 % L, axis=1), L)
    t, k = n[:, None], n
    rows = (t * h1[:, None, None] + k * a[:, None, None]) % L
    cols = (t * h2[:, None, None] + k * b[:, None, None]) % L
    tables = (np.stack([a, b], axis=1), rows * L + cols)
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
