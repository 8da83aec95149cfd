"""Shared test settings and helpers.

Property tests run a fixed, derandomized sequence of examples with no
example database, so tier-1 results do not depend on earlier runs, and
with no per-example deadline, since timings vary between machines.

The helpers below serve only the tests; test modules import them with
``from conftest import ...``.
"""

from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from whprecode import optimize
from whprecode.bloch import TIE_TOL
from whprecode.errors import NotUnitNormError
from whprecode.heisenberg import _layout, shift_operator
from whprecode.linalg import rank_one_projector
from whprecode.wssus import ScatteringFunction, apply_adjoint_A

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


def shifted(pulses: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``S_nu v`` for each row v and flat shift ``nu2 * L + nu1``, ``nu = (nu1, nu2)``."""
    _, lags, phases = _layout(pulses.shape[-1])
    nu2, nu1 = np.divmod(shift, pulses.shape[-1])
    return phases[nu2] * np.take_along_axis(pulses, lags[:, nu1].T, axis=-1)


def transmit_residual(C, gamma, g):
    """``||A*(g g*) gamma - F gamma||`` with F the Rayleigh quotient, from the public maps."""
    image = apply_adjoint_A(C, rank_one_projector(g)) @ gamma
    return float(np.linalg.norm(image - np.vdot(gamma, image).real * gamma))


def assert_design_measures_the_pair_as_pair_gain(C: ScatteringFunction) -> None:
    """general_design measures K's coset pair once, with the bits of the public pair_gain.

    The measure is read where general_design takes it, from optimize._pair_gain;
    on a certified run it is also the printed best value and convergence.
    """
    measured, measure = [], optimize._pair_gain

    def record(*args):
        measured.append(measure(*args))
        return measured[-1]

    cfg = optimize.OptimizerConfig()
    with mock.patch.object(optimize, "_pair_gain", record):
        design = optimize.general_design(C, cfg)
    expected = optimize.pair_gain(C, *optimize.coset_bound(C).pair)
    assert [[v.hex() for v in pair] for pair in measured] == [[v.hex() for v in expected]]
    value, residual = expected
    if design.certified:
        assert design.trace.best_value == min(1.0, value)
        assert design.trace.converged == (residual <= cfg.tol)


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


def _normalized(w):
    total = sum(w)
    return [v / total for v in w]


def _tied(p0, share, delta, order):
    # Axes order[0] and order[1] hold share of the off-origin power and
    # differ in gain by 2 * delta.
    a = share * (1.0 - p0) / 2.0
    p = [p0, 0.0, 0.0, 0.0]
    p[order[0]], p[order[1]], p[order[2]] = a, a + delta, 1.0 - p0 - 2.0 * a - delta
    return p


def _with_tiny(w, tiny, k):
    # Weight k set to a tiny (often subnormal) value, its mass moved to the largest weight.
    w = list(w)
    big = max(range(4), key=w.__getitem__)
    if big != k:
        w[big] += w[k] - tiny
        w[k] = tiny
    return w


_DIRICHLET = st.builds(lambda seed, alpha: list(np.random.default_rng(seed).dirichlet([alpha] * 4)),
                       st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 3.0]))
_NORMALIZED = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 0.0).map(_normalized)
# Gain differences of 0.5 to 2 TIE_TOL, either way round.
_TIE_DELTAS = [0.0] + [sign * f * TIE_TOL / 2.0
                       for sign in (1.0, -1.0) for f in (0.5, 0.999, 1.0, 1.001, 2.0)]
# Quads over the whole simplex: Dirichlet and uniform draws, near-ties of
# two axes' gains, exact zeros and tiny (often subnormal) weights.
QUADS = st.one_of(
    st.just([0.25] * 4),  # every gain exactly zero
    _DIRICHLET,
    _NORMALIZED,
    st.builds(_tied, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from(_TIE_DELTAS),
              st.permutations([1, 2, 3])).filter(lambda p: min(p) >= 0.0),
    # Exact zeros, concentrated quads among them.
    st.builds(lambda w, zeros: _normalized([0.0 if i in zeros else v for i, v in enumerate(w)]),
              st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
              st.sets(st.integers(0, 3), max_size=3)),
    st.builds(_with_tiny, _NORMALIZED | _DIRICHLET,
              st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.0]),
              st.integers(0, 3)).filter(lambda p: min(p) >= 0.0),
).filter(lambda p: abs(sum(p) - 1.0) <= 1e-10)
