"""Shared test settings and helpers.

Property tests run a fixed, derandomized sequence of examples with no
example database, so tier-1 results do not depend on earlier runs, and
with no per-example deadline, since timings vary between machines.

The helpers below serve only the tests; test modules import them with
``from conftest import ...``.
"""

import numpy as np
from hypothesis import settings

from whprecode import optimize
from whprecode.errors import NotUnitNormError
from whprecode.heisenberg import shift_operator
from whprecode.wssus import ScatteringFunction

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def unit_vector(v) -> np.ndarray:
    """Normalize a nonzero vector to unit l2 norm."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise NotUnitNormError("cannot normalize the zero vector")
    return x / norm


def gaussian_profile(L, delay_width, doppler_width):
    """The cyclic Gaussian delay-Doppler profile on the L x L grid, every tap nonzero."""
    d = np.minimum(np.arange(L), L - np.arange(L))
    w = np.exp(-((d[:, None] / delay_width) ** 2) - (d[None, :] / doppler_width) ** 2)
    return ScatteringFunction(L, w / w.sum())


def all_shifts(L: int) -> tuple[tuple[int, int], ...]:
    """All L*L shift indices in row-major (mu1, mu2) order."""
    return tuple((m, n) for m in range(L) for n in range(L))


def top_eigenpairs(operand, pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit eigenvector of the map applied to each ``v v*``.

    Returns the (K,) top eigenvalues and (K, L) eigenvectors for the K unit
    pulses in the rows of ``pulses`` (see optimize._rank_one_images).
    """
    images = optimize._rank_one_images(operand, pulses)
    return optimize._top_of(*np.linalg.eigh(images.mats), images)


def explicit_partial_transpose(r: np.ndarray) -> np.ndarray:
    """The L^2 x L^2 partial transpose, on the second factor, of the Weyl-diagonal state of r.

    The state is ``sum_mu r_mu t_mu t_mu* / L`` with ``t_mu = vec(S_mu*)``
    row-major, r an L x L grid indexed by ``mu = (mu1, mu2)``; built entry
    by entry from shift_operator, with none of the library's reduction.
    """
    L = r.shape[0]
    t = [shift_operator(L, mu).conj().T.reshape(-1) for mu in all_shifts(L)]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(r.ravel(), t)) / L
    return rho.reshape(L, L, L, L).transpose(0, 3, 2, 1).reshape(L * L, L * L)
