"""Second-stream multiplexing at unit spectral density.

With one pulse per signal-space dimension (determinant-one lattice), adding
a second data stream at L=2 means occupying exactly one more shift slot.
The optimal pulse of axis n is an eigenvector of the Lagrangian line
{0, mu_n}, so the rule is one stream per coset of that line: the reference
stream on the line itself, the second on either shift of the other coset.
The pulse has zero self-crosstalk there, so the shifted pair is an
orthonormal basis; both shifts carry the same stream vector up to a phase,
so at the solved pair they leak the same interference, 1 - F (the proof is
in the docstring of ``optimize.coset_bound``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .heisenberg import _lagrangian_lines, shift_operator
from .linalg import require_array, require_int, require_unit_vector
from .wssus import coerce_scheme_shifts


@dataclass(frozen=True)
class Scheme:
    """Set of time-frequency slots carrying parallel streams.

    Always contains the origin (the reference stream); shifts are stored
    reduced mod L and must be distinct.
    """

    L: int
    shifts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", require_int(self.L, "dimension", 1))
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
    vecs = require_array(vectors, "frame vectors")
    if not vecs.size or not vecs.ndim:
        raise DimensionMismatchError(f"frame vectors must be nonempty, got shape {vecs.shape}")
    vecs = vecs.reshape(len(vecs), -1)
    w = np.linalg.eigvalsh(sum(np.outer(v, v.conj()) for v in vecs))
    return float(w[0]), float(w[-1])


def select_schemes(n: int) -> list[Scheme]:
    """The two second-stream schemes for pulse n: the shifts of the other coset of its line.

    For the frequency-flat pulse (n=1) this is the frequency shift, i.e.
    frequency-division multiplexing, and the double shift; for the
    time-localized pulse (n=3) the time shift and the double shift.
    Results are ordered lexicographically by shift.  The table is built
    once per process; each call returns a fresh list.
    """
    return list(_coset_schemes()[require_int(n, "axis index", 1, 3) - 1])


@functools.cache
def _coset_schemes() -> tuple[tuple[Scheme, ...], ...]:
    # Row t = 1 of each L = 2 line's coset table, lines in Pauli axis order 1..3.
    return tuple(
        tuple(Scheme(2, ((0, 0), divmod(int(mu), 2))) for mu in sorted(coset))
        for coset in _lagrangian_lines(2)[1][:, 1]
    )
