"""Numerical optimizers, brute-force oracles and upper bounds.

Everything here works at general L and serves two purposes: producing
SINR-optimal receivers (a generalized eigenproblem), and independently
validating the L=2 closed form through alternating maximization and
sphere sampling in Bloch coordinates.  The structured lower bound, a few
plain alternating cycles from fixed pulses, draws nothing at random and
starts the optimizer's first restart; the upper bounds (U, the coset bound
K and the PPT relaxation's dual) certify a pulse pair optimal without the
optimizer.  general_design runs that route, and the optimizer where it
fails.  All stochastic routines derive their randomness from an explicit
seed and produce bit-identical results for identical (seed, sample count)
inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .bloch import ScatteringQuad, map_matrix_rep
from .errors import DimensionMismatchError, InvalidWeightsError
from .heisenberg import _lagrangian_lines, _layout
from .wssus import (
    ScatteringFunction,
    _map_rank_one,
    apply_A,
    apply_interference,
    random_unit_vector,
    spreading_eigenvalues,
    validate_density_operator,
)

_BATCH = 1 << 14
# Slack of the cosine-free bounds on cos^2(pi u) (_bloch_bounds): it covers
# the rounding of the computed cos^2(pi u), about 2^-50, and any np.cos
# error up to 2^-32 (see brute_force_bloch_oracle).
_COS_SLACK = 2.0**-30
# Objectives this close are a tie for the third-cycle safeguard and for the
# choice of the best restart (alternating_fidelity_max): near a stationary
# point the objective moves by the square of the residual, below what a
# computed eigenvalue resolves.
_TIE = 1e-14
# Trust radius of each restart's first Newton step, and the floor that keeps
# its quarterings (one per rejected step) from reaching zero.  A first radius
# of 0.1 holds the first three or four steps of small dense restarts back;
# one of 1 overshoots on the ridge of isotropic profiles at L = 12.
_RADIUS = 0.5
_RADIUS_FLOOR = 1e-30
# Twin distance (see _twin_distances) at or below which a live restart
# trails a stationary restart, whose transmit pulse no longer moves, and is
# parked (see alternating_fidelity_max): the pulse is within an angle of
# about 0.28 of the copy's.  On 1,200 random channels at L = 2..8 it gives
# the restart counts and, within 1e-15, the best values of a radius of 0.15
# on the sum of a transmit and a receive distance.  It can park a restart
# that was climbing to a higher optimum than its twin's: with the parked
# restarts moved onto their twin's copy, 236 restarts there end more than
# 1e-12 (up to 1.7e-2) below a run without parking, and the best value of
# 7 channels falls 2.8e-6 to 8.4e-5 below it.  At 0.1 two more channels lose
# and at 0.05 four still do; 5e-4 loses none, but ten seeds of the
# isotropic profile at L = 16 then run every wave to the cycle cap, 42 s
# instead of 0.1 s.
_TWIN_STATIONARY = 7.5e-2
# A pulse pair whose measured gain is at least the upper bound U less this
# is optimal to within it (see fidelity_upper_bound and pair_gain).  On
# random and Gaussian grids at L = 4..64, U is within 1.2e-15 of U in long
# double, and a coset pair's measured gain within 5e-16 of its coset sum.
CERTIFY_TOL = 1e-12
# ppt_certificate: at most this many interior-point iterations; steps go
# this fraction of the way to the boundary; and a relaxed state whose gain
# exceeds the pair's by this margin proves that no certificate exists.  On
# the general decks at seeds 1 and 4242 every attempt ended within 5
# iterations (a cap of 4 loses 3 of their 78 certificates).
_PPT_ITERS = 12
_PPT_STEP = 0.98
_PPT_EXIT = 1e-9
# general_design seeks a PPT certificate up to this L, the largest the
# benchmark decks run.  On their attempt jobs (seeds 1 and 4242) the per-L
# median of an attempt's time over the optimizer's on the same job is
# 0.5-0.7 at L = 4..7 and 0.9-1.0 at L = 8..10.  An attempt's O(L^6) Schur
# solves outgrow the optimizer above this L, so a larger cap needs a
# benchmark workload there first.
_PPT_LARGEST_L = 10
# The primal start's weight on the coset states r* (the rest is uniform)
# and the dual start Y_s = _PPT_DUAL I / L: on those decks they cut the
# iterations from 496 (uniform r, Y_s = I / L) to 292, with the same
# certificates.
_PPT_MIX = 0.9
_PPT_DUAL = 3.0
# alternating_fidelity_max draws its restarts in waves of this many, and
# counts stationary values this close as one optimum (the measurement
# behind the stopping rule grouped them by 8 digits).
_WAVE = 8
_SAME_OPTIMUM = 1e-8
# structured_lower_bound's periodized Gaussians have these widths s, from
# narrow in frequency (s = 1/8) to narrow in time (s = 8), and it runs this
# many plain cycles from them.
_BOUND_WIDTHS = np.geomspace(1 / 8, 8, 13)
_BOUND_CYCLES = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating mean-gain maximizer.

    ``max_iters`` caps the cycles (a transmit then a receive half-step) of
    each wave of restarts, the cycles that start from a Newton point
    included.  ``restarts`` caps the restarts: they run in waves of 8 until
    a stopping rule holds or this many have run.  ``tol`` bounds the
    stationarity residual ``||A*(g g*) gamma - F gamma||`` at which a
    restart stops and counts as converged (see alternating_fidelity_max).
    """

    max_iters: int = 500
    tol: float = 1e-10
    restarts: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, linalg.require_int(getattr(self, name), name, minimum))
        # The smallest positive float as the bound: tol must be positive.
        object.__setattr__(self, "tol", linalg.require_real(self.tol, "tol", math.ulp(0.0)))


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Outcome of an alternating maximization run.

    ``objective_history`` is the best restart's objective after each
    half-step of its wave, ``2 * cycles + 1`` entries for the wave's
    cycles, padded with its final value once that restart has stopped.  It
    is nondecreasing, up to the 1e-14 tie width of the third-cycle
    safeguard: a plain half-step solves its subproblem exactly, and a cycle
    from a Newton point keeps the held objective unless its result is at
    least as good.
    ``restart_values`` and ``residuals`` record the final objective and
    stationarity residual of every restart that ran, in the order drawn
    (a multiple of 8 of them, or ``restarts``), each measured on that
    restart's own final pair: a parked restart (see
    alternating_fidelity_max) reports the gain it reached, at most that of
    the twin it trails, and a residual that may exceed ``tol``.
    ``converged`` is true when the best restart's residual is at most the
    configured ``tol``.
    A run that general_design certifies runs no restart: no history, no
    ``restart_values`` or ``residuals``, and K's coset pair as ``best_pair``.
    """

    objective_history: tuple[float, ...]
    converged: bool
    best_value: float
    best_pair: tuple[np.ndarray, np.ndarray]
    restart_values: tuple[float, ...]
    residuals: tuple[float, ...]


def optimal_receiver(
    C: ScatteringFunction, gamma_proj, scheme, sigma2: float
) -> tuple[np.ndarray, float]:
    """SINR-optimal receive pulse for a fixed transmit projector.

    The best receiver is the top generalized eigenvector of the pair
    (A(Gamma), C_scheme(Gamma) + sigma2 I); the eigenvalue is the SINR it
    achieves, an upper bound over all unit receive pulses.
    """
    sigma2 = linalg.require_real(sigma2, "noise power", 0.0)
    gamma_op = validate_density_operator(gamma_proj, C.L)
    num = apply_A(C, gamma_op)
    den = apply_interference(C, gamma_op, scheme) + sigma2 * np.eye(C.L)
    lam, g = linalg.max_generalized_eigenpair(
        (num + num.conj().T) / 2.0, (den + den.conj().T) / 2.0
    )
    return g, lam


def _half_step_operands(C: ScatteringFunction) -> tuple:
    """Operands of ``A`` and ``A*`` for _rank_one_images, chosen once per call.

    ``A(v v*)`` has rank at most T, the number of nonzero taps, so with
    T < L the top eigenpair comes from a T x T Gram matrix on the tap
    frame; otherwise the L x L map from the diagonal blocks is as cheap.
    """
    if np.count_nonzero(C.weights) < C.L:
        return C.tap_frame()
    return C.diagonal_blocks()


@dataclass(eq=False)
class _Images:
    """Images M of K rank-one operands under A or A*, and the half-step arithmetic on them.

    _rank_one_images makes them, one of two kinds fixed by the operand:
    _Full holds each M as an L x L matrix, _Gram as the T x T Gram
    ``conj(W) W^T`` of its (T, L) tap frame W, with ``M = W^T conj(W)``.
    ``mats`` is the (K, d, d) hermitian stack that eigh solves; ``x[rows]``
    selects images and ``x[rows] = other`` overwrites them.
    """

    mats: np.ndarray

    def __getitem__(self, rows) -> _Images:
        return type(self)(*(a[rows] for a in vars(self).values()))

    def __setitem__(self, rows, other: _Images) -> None:
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            mine[rows] = theirs

    def residuals(self, pulses: np.ndarray) -> np.ndarray:
        """``||M v - (v* M v) v||`` for each unit pulse v: zero exactly when v is an eigenvector."""
        return self.rayleigh(pulses)[1]

    def rayleigh(self, pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``v* M v`` and the residual ``||M v - (v* M v) v||`` for each unit pulse v."""
        image = self.apply(pulses[:, None])[:, 0]
        value = np.einsum("ki,ki->k", pulses.conj(), image).real
        return value, np.linalg.norm(image - value[:, None] * pulses, axis=1)

    def gap_inverse(self, lam: np.ndarray, u: np.ndarray) -> tuple:
        """``R = sum_j v_j v_j* / (f - lambda_j)`` over the non-top eigenpairs of each M in C^L.

        ``(lam, u)`` is the eigendecomposition of ``mats`` and f = lam[:, -1].
        Also returns the rows where every gap ``f - lambda_j`` exceeds the
        top eigenvalue's roundoff; elsewhere R is finite but meaningless.
        """
        f = lam[:, -1:]
        floor = f * np.finfo(float).eps
        gaps = f - lam[:, :-1]
        ok = np.all(gaps > floor, axis=1)
        return self._gap_sum(u, f, np.maximum(gaps, floor)), ok


class _Full(_Images):
    """The L x L images of the diagonal-block path."""

    def lift(self, u: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Top eigenvectors in C^L from the eigenvectors ``u`` of ``mats``."""
        return u[..., -1]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """``M x`` for each row x of a (K, n, L) stack, as rows."""
        return rows @ self.mats.swapaxes(-1, -2)

    def _gap_sum(self, u, f, gaps):
        rest = u[..., :-1]
        return (rest / gaps[:, None, :]) @ rest.conj().swapaxes(-1, -2)


@dataclass(eq=False)
class _Gram(_Images):
    """The T x T tap Grams ``conj(W) W^T`` and their (K, T, L) frames W."""

    frame: np.ndarray

    def lift(self, u: np.ndarray, top: np.ndarray) -> np.ndarray:
        # W^T u is an eigenvector of norm sqrt(top); top >= Tr(gram)/T = 1/T.
        return (u[:, None, :, -1] @ self.frame)[:, 0] / np.sqrt(top)[:, None]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        # x^T M^T = (x^T W^H) W.
        return (rows @ self.frame.conj().swapaxes(-1, -2)) @ self.frame

    def _gap_sum(self, u, f, gaps):
        # The L - T zero eigenvalues of M have no eigenvectors among u; with
        # W^T u_j = sqrt(lambda_j) v_j and gamma the top eigenvector,
        # R = (I - gamma gamma*) / f + sum_j (W^T u_j)(W^T u_j)* / (f (f - lambda_j)).
        scaled = self.frame.swapaxes(-1, -2) @ u  # columns W^T u_j
        top, rest = scaled[..., -1:], scaled[..., :-1]
        # W^T u of the top eigenpair is sqrt(f) gamma.
        inverse = np.eye(scaled.shape[1]) - top @ top.conj().swapaxes(-1, -2) / f[:, None]
        inverse /= f[:, None]
        return inverse + (rest / (f * gaps)[:, None, :]) @ rest.conj().swapaxes(-1, -2)


def _rank_one_images(operand, pulses: np.ndarray) -> _Images:
    """The map's images ``M = map(v v*)`` of K unit pulses v, the rows of ``pulses``.

    ``operand`` is a tap frame ``(rows, coef)`` or a stack of diagonal
    blocks (see _half_step_operands); this is the one place that tells them
    apart.  Returns the images object (_Gram, d = T, or _Full, d = L) whose
    ``mats`` is the (K, d, d) hermitian stack with M's top eigenpairs.
    """
    if isinstance(operand, tuple):
        rows, coef = operand
        frame = pulses[:, rows] * coef  # (K, T, L): rows W_t, map(v v*) = W^T conj(W)
        return _Gram(frame.conj() @ frame.swapaxes(-1, -2), frame)
    return _Full(_map_rank_one(operand, pulses))


def _top_of(lam: np.ndarray, u: np.ndarray, images: _Images) -> tuple:
    """Top eigenvalues and (K, L) unit eigenvectors from the images' eigendecomposition."""
    top = lam[:, -1]
    return top, images.lift(u, top)


def _receive(forward, adjoint, gammas: np.ndarray) -> tuple:
    """The receive half-step from the transmit pulses ``gammas``, and its residuals.

    Returns the objectives and receivers (top eigenpairs of the images
    ``A(gamma gamma*)``), the stationarity residuals
    ``||A*(g g*) gamma - F gamma||``, and the images ``A*(g g*)`` and
    ``A(gamma gamma*)`` (see _rank_one_images).
    """
    ahead = _rank_one_images(forward, gammas)
    top, receivers = _top_of(*np.linalg.eigh(ahead.mats), ahead)
    held = _rank_one_images(adjoint, receivers)
    return top, receivers, held.residuals(gammas), held, ahead


def _reduced_model(
    C: ScatteringFunction, receivers: np.ndarray, eigs: tuple, gammas: np.ndarray, forward: _Images
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``f(r) = lambda_max(A*(r r*))`` on the tangent space at r.

    ``eigs = (lam, u, images)`` is the eigendecomposition of the images
    ``A*(r r*)`` and those images, ``gammas`` their top eigenvectors and
    ``forward`` the images ``N = A(gamma gamma*)``, both objects as
    _rank_one_images returns them.  The tangent vectors
    ``h`` with ``<r, h> = 0`` have real coordinates x, ``h = sum_m x_m b_m``
    over the rows ``b = [U; iU]``, U an orthonormal basis of the complement
    of r.  In them the gradient is ``Re <b_m, g>`` with ``g = 2 (N r - f r)``,
    and the Hessian is the form ``2 h*(N - f) h + 2 y* R y``, the second
    derivative of f along ``r cos s + h sin s``: there
    ``y = Q h + Z conj(h)``, ``Q = sum_mu C(mu) <r, S_mu gamma> S_mu*``,
    ``Z = sum_mu C(mu) (S_mu* r)(S_mu gamma)^T`` and R is the images' gap
    inverse (_Images.gap_inverse).  Returns the rows b (K, 2L - 2, L), the
    gradients (K, 2L - 2), the Hessians (K, 2L - 2, 2L - 2) and the rows
    with nonzero gaps.
    """
    lam, u, held = eigs
    L = C.L
    rows, lags, phases = _layout(L)
    inverse, ok = held.gap_inverse(lam, u)
    # Q^T[m, j] = sum_mu2 C(mu) <r, S_mu gamma> w^(-mu2 m) with mu1 = m - j.
    spread = (C.weights * _ambiguity(receivers, gammas).swapaxes(-1, -2)) @ phases.conj()
    q_t = spread[:, lags, np.arange(L)[:, None]]
    # Z^T[n, j] = sum_a r_(j + a) gamma_(n - a) c[a, n - j - a], with
    # c = C.weights @ phases, the transform _circulant_blocks starts from.
    zc = (C.weights @ phases)[np.arange(L), lags[lags.T]]  # zc[j, n, a]
    z_t = np.einsum("kja,kna,jna->knj", receivers[:, rows], gammas[:, lags], zc)
    comp = np.linalg.qr(receivers[:, :, None], mode="complete")[0][..., 1:].swapaxes(-1, -2)
    # The rows b, then r, and their images under N.
    ext = np.concatenate([comp, 1j * comp, receivers[:, None, :]], axis=1)
    images = forward.apply(ext)
    y = ext @ q_t + ext.conj() @ z_t
    y[:, -1] = 0.0
    # Re <a, b> is the dot product of the float views of the rows, so the
    # last column is Re <b_m, N r>, half the gradient.
    stacked = np.concatenate([ext[:, :-1], y[:, :-1]], axis=-1).view(float)
    images = np.concatenate([images, y @ inverse.swapaxes(-1, -2)], axis=-1).view(float)
    hess = 2.0 * (stacked @ images.swapaxes(-1, -2))
    diag = np.arange(2 * L - 2)
    hess[:, diag, diag] -= 2.0 * lam[:, -1, None]
    return ext[:, :-1], hess[..., -1], hess[..., :-1], ok


def _ambiguity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-ambiguity ``<a, S_mu b>`` of rows a and b at every shift, a (..., mu2, mu1) stack.

    ``<a, S_mu b> = sum_m conj(a_m) w^(mu2 m) b_(m - mu1)``: one product of
    the ``_layout`` phase table per pair of rows; a and b broadcast.
    """
    _, lags, phases = _layout(a.shape[-1])
    return phases @ (a.conj()[..., :, None] * b[..., lags])


def _twin_distances(pulses: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Distance of transmit pulses to representative pulses up to a shift.

    ``pulses`` and ``reps`` stack unit pulses as (..., L) rows that
    broadcast against each other.  For a pulse gamma and a representative
    gamma_s the distance is ``1 - max_nu |<gamma, S_nu gamma_s>|^2``, zero
    exactly when ``gamma = S_nu gamma_s e^ia`` for some nu and a.  A
    restart's receive pulse is the top eigenvector of ``A(gamma gamma*)``,
    and conjugation by S_nu commutes with the map up to phases that cancel,
    so where that eigenvector is simple the receive pulse of
    ``S_nu gamma_s e^ia`` is ``S_nu g_s`` up to a phase: the restart at
    distance zero has the representative's mean gain and stationarity
    residual.
    """
    return 1.0 - (np.abs(_ambiguity(pulses, reps)) ** 2).max(axis=(-2, -1))


def _shifted(pulses: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``S_nu v`` for each row v and flat shift ``nu2 * L + nu1``, ``nu = (nu1, nu2)``."""
    _, lags, phases = _layout(pulses.shape[-1])
    nu2, nu1 = np.divmod(shift, pulses.shape[-1])
    return phases[nu2] * np.take_along_axis(pulses, lags[:, nu1].T, axis=-1)


def _newton_points(
    receivers: np.ndarray, model: tuple, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trust-region Newton points ``normalize(r + h)`` of the reduced model at each receiver.

    In the coordinates of _reduced_model, ``x = (mu I - H)^-1 g`` with
    ``mu = max(0, theta_max + |g| / radius)`` keeps ``|x| <= radius``
    (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983; Absil, Baker &
    Gallivan, Found. Comput. Math. 7(3), 2007); mu = 0 is the Newton step.
    mu also stays above theta_max by many times the eigenvalue's roundoff,
    so the solve never meets a singular matrix.  Also returns the rows
    whose gaps are nonzero (see _Images.gap_inverse) and whose point is finite.
    """
    basis, grad, hess, ok = model
    dim = hess.shape[-1]
    theta = np.linalg.eigvalsh(hess)[:, -1]
    # |theta| + 2 bounds |H|, since H >= 2 (N - f) >= -2.
    margin = 8.0 * dim * np.finfo(float).eps * (np.abs(theta) + 2.0)
    shift = np.maximum(0.0, theta + np.maximum(np.linalg.norm(grad, axis=1) / radius, margin))
    x = np.linalg.solve(shift[:, None, None] * np.eye(dim) - hess, grad[..., None])
    points = receivers + (x.swapaxes(-1, -2) @ basis)[:, 0]
    points /= np.linalg.norm(points, axis=1)[:, None]
    return points, ok & np.all(np.isfinite(points), axis=1)


def alternating_fidelity_max(
    C: ScatteringFunction, L: int, cfg: OptimizerConfig
) -> OptimizationTrace:
    """Maximize the mean gain Tr(A(Gamma) G) by exact alternating eigensteps.

    Each half step globally solves its subproblem: the receive pulse is the
    top eigenvector of A(Gamma), the transmit pulse the top eigenvector of
    the adjoint map applied to G (a higher-order power method; De Lathauwer,
    De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000).  The
    joint problem is nonconvex, so restarts (independent per-restart
    substreams of the master seed) run in lockstep, in waves of _WAVE, and
    the best is returned: among the restarts within _TIE of the largest
    value, the one of smallest residual, as in the third-cycle safeguard.

    A cycle is a transmit then a receive half-step, so every pair ends on a
    receiver matched to its transmit pulse.  Cycles come in threes: two
    plain cycles ``r0 -> r1 -> r2`` of the receive pulse, then one cycle
    from a trust-region Newton point of the reduced objective
    ``f(r) = lambda_max(A*(r r*))`` at r1 (see _reduced_model and
    _newton_points).  The second cycle's transmit half-step already holds
    the eigendecomposition of ``A*(r1 r1*)`` and its receive half-step
    ``A(gamma gamma*)``, the model's ingredients.  The third cycle's result
    is kept only if its objective is at least that of r2; objectives within
    _TIE of each other are a tie, which the smaller residual wins, so that
    roundoff cannot steer the choice.  Each restart keeps a trust radius,
    0.5 at first, doubled (up to 1) when its result is kept and quartered
    when not.  Where the model is undefined (a zero eigenvalue gap, as on
    uniform channels) or its point is not finite, the third cycle runs
    plain from r2.  A restart stops, converged, once its stationarity
    residual ``||A*(g g*) gamma - F gamma||`` (F the objective) is at most
    ``cfg.tol``; stopped restarts leave the batch.

    The gain is invariant under ``(gamma, g) -> (S_nu gamma, S_nu g)`` and
    under separate phases of gamma and g, so restarts mostly converge to
    shift copies of one optimum.  A twin test retires the restarts that
    trail a copy.  It compares the transmit pulse of every live restart
    that has not stopped with that of every stationary restart (see
    _twin_distances: every restart ends on a receive half-step, so its
    receive pulse is a function of its transmit pulse).  A restart whose
    distance to a stationary restart is at most _TWIN_STATIONARY, where
    that restart's objective is at least its own, is parked: it stops and
    leaves the batch as a stationary restart does.
    The wide radius lets the restarts that drift along a flat ridge near a
    stationary optimum stop early, with the gain they have reached, which
    may fall short of the optimum their own run would have reached.  The
    test runs on the first cycle of each three (after each Newton cycle)
    and on every cycle in which a restart has just stopped; run on every
    cycle it cost about a sixth of the optimizer's time on small dense
    channels.  Every reported value and residual is measured on that
    restart's own final pair.

    A wave ends when every restart in it has stopped, stationary or parked,
    or after ``cfg.max_iters`` cycles, where the restarts still live end
    unconverged.  The run then stops if ``cfg.restarts`` have run or, after
    a wave that none ended at the cap, if _enough holds on the n restarts
    run so far; a parked restart counts toward n but finds no optimum.
    Otherwise the next wave's starts are drawn.  One twin rule holds in
    every wave: a live restart may trail every stationary restart drawn so
    far, of its own wave or an earlier one.  Restart 0 starts from the
    pulse of structured_lower_bound, whose value is its first objective bit
    for bit (see _map_rank_one); every half-step after is monotone up to
    _TIE, so the best value is at least that bound less _TIE.  Restart
    i >= 1 draws its start from child i of ``SeedSequence(cfg.seed)`` in
    any wave size, as ``spawn`` numbers its children across calls.

    With T nonzero taps, each half step is a T x T Gram eigenproblem when
    T < L and an L x L one otherwise; the path is fixed once per call and
    changes only the cost of a step, not the iteration.  _rank_one_images
    is the one reader of the path: every later step works on the images
    object it returns (see _Images).
    """
    L = linalg.require_int(L, "dimension", 1)
    if L != C.L:
        raise InvalidWeightsError(f"L={L} does not match scattering function L={C.L}")
    forward, adjoint = _half_step_operands(C)
    seeds = np.random.SeedSequence(cfg.seed)

    # Per restart: its two pulses, its objective and its residual, the start
    # of its next third cycle and its trust radius.  The adjoint images of
    # the live receivers (``held``) feed both the residual and the next
    # transmit half-step.
    gammas = np.empty((cfg.restarts, L), dtype=complex)
    receivers = np.empty_like(gammas)
    values, residuals = np.empty(cfg.restarts), np.empty(cfg.restarts)
    starts = np.empty_like(receivers)
    radius = np.full(cfg.restarts, _RADIUS)
    histories = []
    for first in range(0, cfg.restarts, _WAVE):
        drawn = min(first + _WAVE, cfg.restarts)
        live = np.arange(first, drawn)
        gammas[live] = [
            structured_lower_bound(C).pulse if i == 0 else random_unit_vector(np.random.default_rng(s), L)
            for i, s in zip(live, seeds.spawn(live.size))
        ]
        values[live], receivers[live], residuals[live], held, _ = _receive(forward, adjoint, gammas[live])
        history = [values.copy()]
        histories.append(history)
        for cycle in range(cfg.max_iters + 1):
            going = residuals[live] > cfg.tol
            # The twin test runs after each Newton cycle and whenever a
            # restart has just stopped (see the docstring).
            if going.any() and (cycle % 3 == 0 or not going.all()):
                stationary = np.flatnonzero(residuals[:drawn] <= cfg.tol)
                going[going] = ~_trailing(live[going], stationary, values, gammas)
            if not going.all():
                live, held = live[going], held[going]
            if not live.size or cycle == cfg.max_iters:
                break
            phase = cycle % 3
            images = _rank_one_images(adjoint, starts[live]) if phase == 2 else held
            lam, u = np.linalg.eigh(images.mats)
            top_t, new_gammas = _top_of(lam, u, images)
            top, new_receivers, new_residuals, new_held, ahead = _receive(forward, adjoint, new_gammas)
            if phase == 1:
                # The next cycle starts from r2, or from a Newton point of r1
                # for the restarts that go on (see the docstring).
                starts[live] = new_receivers
                going = new_residuals > cfg.tol
                if L > 1 and going.any():
                    on = slice(None) if going.all() else going
                    ids = live[on]
                    eigs = lam[on], u[on], images[on]
                    model = _reduced_model(C, receivers[ids], eigs, new_gammas[on], ahead[on])
                    points, ok = _newton_points(receivers[ids], model, radius[ids])
                    starts[ids[ok]] = points[ok]
            # The transmit half-step's entry: a third cycle holds the
            # objective of r2 until its result is kept.
            history.append(values.copy())
            if phase < 2:
                history[-1][live] = top_t
                moved = slice(None)
                held = new_held
            else:
                kept = values[live]
                tied = (top >= kept - _TIE) & (new_residuals <= residuals[live])
                moved = (top > kept + _TIE) | tied
                held[moved] = new_held[moved]
                size = radius[live]
                radius[live] = np.where(
                    moved, np.minimum(2.0 * size, 1.0), np.maximum(size / 4.0, _RADIUS_FLOOR)
                )
            rows = live[moved]
            gammas[rows], receivers[rows] = new_gammas[moved], new_receivers[moved]
            values[rows], residuals[rows] = top[moved], new_residuals[moved]
            history.append(values.copy())
        # The stopping rule, never after a wave that ended at the cap.
        if not live.size and _enough(values[:drawn][residuals[:drawn] <= cfg.tol], drawn):
            break

    near = np.flatnonzero(values[:drawn] >= values[:drawn].max() - _TIE)
    best = int(near[np.argmin(residuals[near])])
    # The gain is at most 1; clip roundoff above it, as channel_fidelity does.
    return OptimizationTrace(
        objective_history=tuple(min(1.0, float(h[best])) for h in histories[best // _WAVE]),
        converged=bool(residuals[best] <= cfg.tol),
        best_value=min(1.0, float(values[best])),
        best_pair=(gammas[best].copy(), receivers[best].copy()),
        restart_values=tuple(min(1.0, float(v)) for v in values[:drawn]),
        residuals=tuple(float(r) for r in residuals[:drawn]),
    )


def _enough(optima: np.ndarray, n: int) -> bool:
    """Boender & Rinnooy Kan's rule: stop after n restarts that found ``optima``.

    ``optima`` holds the values of the stationary restarts; values within
    _SAME_OPTIMUM of their neighbour in sorted order are one optimum.  With
    w distinct optima the posterior expected number of optima is
    ``w (n - 1) / (n - w - 2)`` (Math. Programming 37, 1987), and the run
    stops once it falls below ``w + 1/2``, that is once
    ``n > 2 w^2 + 3 w + 2``: in waves of 8, at n = 8 for one optimum and 24
    for two.  Cross-multiplied, the test is exact, and false wherever the
    denominator ``n - w - 2`` is not positive.
    """
    w = int(np.count_nonzero(np.diff(np.sort(optima)) > _SAME_OPTIMUM)) + (optima.size > 0)
    return 2 * w * (n - 1) < (2 * w + 1) * (n - w - 2)


def _trailing(ids: np.ndarray, reps: np.ndarray, values: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Mask of the live restarts ``ids`` that trail a stationary restart with no lower value.

    The twins sought are the stationary restarts ``reps``, whose transmit
    pulse is within _TWIN_STATIONARY of the live one's (see
    _twin_distances); no restart is in both.  Restarts index ``values`` and
    the rows of ``gammas``.
    """
    k, s = np.nonzero(values[reps] >= values[ids, None])
    near = _twin_distances(gammas[ids[k]], gammas[reps[s]]) <= _TWIN_STATIONARY
    trailing = np.zeros(len(ids), dtype=bool)
    trailing[k[near]] = True
    return trailing


def _sampled_max(score, n_samples: int, seed: int, batch: int = _BATCH) -> float:
    """Largest ``score(rng, m)`` entry over n_samples draws, taken in batches.

    One generator seeded with ``seed`` feeds every batch of at most
    ``batch`` draws.  numpy's normal and uniform draws do not depend on how
    a request is split, so where ``score`` draws its m rows in one call, the
    same samples come in any batch size and the result depends only on
    (seed, n_samples).
    """
    rng = np.random.default_rng(linalg.require_int(seed, "seed", 0))
    return max(
        float(np.max(score(rng, min(batch, n_samples - start)))) for start in range(0, n_samples, batch)
    )


def _squared_scores(c: np.ndarray, z2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """b_3^2 z^2 + (1 - z^2)(b_2^2 + (b_1^2 - b_2^2) c) per draw, in place on c and z2.

    ``z2`` holds squared heights and ``c`` the values of cos^2(phi), or
    bounds on them (_bloch_bounds).  The in-place order gives the same bits
    as the expression, about 10% cheaper than its temporaries.
    """
    c *= b2[0] - b2[1]
    c += b2[1]
    c *= 1.0 - z2
    z2 *= b2[2]
    c += z2
    return c


def _bloch_scores(u: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """The oracle's squared score of each row (u_0, u_1) of u, one cosine per row.

    See brute_force_bloch_oracle; ``b2`` holds b_1^2, b_2^2 and b_3^2.
    """
    c = np.cos(np.pi * u[:, 1])
    c *= c
    return _squared_scores(c, u[:, 0] * u[:, 0], b2)


def _bloch_bounds(u: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """An upper bound on each entry of _bloch_scores(u, b2), with no cosine.

    It scores a bound on cos^2(pi u_1) from a = |u_1 - 1/2| in place of the
    cosine: 4a(1 - a) from above when b_1^2 >= b_2^2, else 4a^2 from below
    (the proof is in brute_force_bloch_oracle).
    """
    a = u[:, 1] - 0.5
    np.abs(a, out=a)
    if b2[0] >= b2[1]:
        c = 1.0 - a
        c *= a
        c *= 4.0
        c += _COS_SLACK
    else:
        c = a * a
        c *= 4.0
        c -= _COS_SLACK
    return _squared_scores(c, u[:, 0] * u[:, 0], b2)


def brute_force_bloch_oracle(
    p, n_samples: int, include_axes: bool = True, seed: int = 0
) -> float:
    """Sampled maximum of the L=2 mean-gain objective in Bloch coordinates.

    Draws transmit directions x uniformly on the unit sphere; for each, the
    receive direction is maximized analytically (Cauchy-Schwarz: align
    with the diagonally scaled transmit direction), giving
    1/2 + |(b_1 x_1, b_2 x_2, b_3 x_3)|.  The draw is Archimedes' projection
    (Marsaglia 1972): a uniform height z and a uniform angle phi, one row
    of two uniforms u per direction, with z = u_0 and phi = pi u_1 (the
    squares are blind to signs, so half ranges suffice).  The squared
    coordinates are then (1 - z^2) c, (1 - z^2)(1 - c) and z^2 with
    c = cos^2(phi), a unit vector by construction, and each draw is scored
    in squared form, S = b_3^2 z^2 + (1 - z^2)(b_2^2 + (b_1^2 - b_2^2) c),
    with no division.  One square root is taken of the best score, clipped
    to max_k b_k^2.  Since sqrt(fl(b * b)) == |b| in IEEE arithmetic, the
    clip keeps the result at or below the closed form 1/2 + max_k |b_k|;
    ``include_axes`` adds the three coordinate axes, where the optima sit,
    so the result then equals the closed form to the last bit.

    Only the draws that can still win pay for a cosine; the result is the
    same bits as scoring every draw.  Each batch bounds every draw's
    computed score S by a computed B with no cosine (_bloch_bounds), scores
    the draw of largest B, whose score is t, and then only the draws with
    B > t: every other draw has S <= B <= t, so the batch maximum is
    max(t, the scores taken).  B >= S holds with no margin, by this
    argument.  With a = |u_1 - 1/2| in [0, 1/2], c = sin^2(pi a) lies
    between 4a^2 (Jordan's inequality, sin x >= 2x/pi on [0, pi/2]) and
    4a(1 - a) (cos(pi a) >= 1 - 2a, as cos is concave there).  The computed
    score is nondecreasing in the computed c when b_1^2 >= b_2^2, and
    nonincreasing otherwise: rounding is monotone, and the product with
    b_1^2 - b_2^2 is followed only by adding b_2^2, multiplying by
    1 - z^2 >= 0 and adding b_3^2 z^2.  _bloch_bounds runs those same
    operations on q = 4a(1 - a) + s, or on q = 4a^2 - s when
    b_1^2 < b_2^2, with the slack s = 2^-30; so B >= S wherever q lies on
    that side of the computed c.  It does: the computed c is within
    2^-53 + 2^-50 + 2e of the exact one (the rounding of its square, that
    of pi u_1, cos^2 having slope at most 1, and twice np.cos's error e),
    and the computed q within 2^-50 of 4a(1 - a) + s or 4a^2 - s, a sum
    below s for any e <= 2^-32; np.cos's error is a few ulp, about 2^-52.
    Using the angle as well as the height matters: with z alone,
    b_3^2 z^2 + (1 - z^2) max(b_1^2, b_2^2) is flat where b_3^2 equals
    max(b_1^2, b_2^2), as for (0.5, 0.2, 0.1, 0.2), and keeps every draw.
    No early exit is needed once t reaches max_k b_k^2: in practice that
    happens only where b_1^2 = b_2^2 = b_3^2, and there the product with
    b_1^2 - b_2^2 = 0 makes every B equal its S, so no draw is scored
    after t.
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    quad = ScatteringQuad.coerce(p)
    b = np.diag(map_matrix_rep(quad))[1:]
    b2 = b * b

    def batch_max(rng, m):
        u = rng.random((m, 2))
        bounds = _bloch_bounds(u, b2)
        i = int(np.argmax(bounds))
        t = _bloch_scores(u[i : i + 1], b2)[0]
        return np.max(_bloch_scores(u.compress(bounds > t, axis=0), b2), initial=t)

    best = math.sqrt(min(_sampled_max(batch_max, n_samples, seed), float(np.max(b2))))
    if include_axes:
        best = max(best, float(np.max(np.abs(b))))
    return 0.5 + best


def fidelity_upper_bound(C: ScatteringFunction) -> float:
    """The bound U on the mean gain of every unit pulse pair, from the spreading eigenvalues.

    In the shift basis, ``X = sum_nu Tr(S_nu* X) S_nu / L``, and A scales
    ``S_nu`` by ``lambda(nu)`` (wssus.spreading_eigenvalues), so the gain
    of ``(gamma, g)`` is ``sum_nu lambda(nu) a_nu b_nu / L`` with
    ``a_nu = <gamma, S_nu* gamma>`` and ``b_nu = <g, S_nu g>``.  Here
    ``a_0 = b_0 = 1``, every ``|a_nu|, |b_nu| <= 1``, and by Parseval
    ``sum_(nu != 0) |a_nu|^2 = sum_(nu != 0) |b_nu|^2 = L - 1``.  With
    ``|a_nu b_nu| <= (|a_nu|^2 + |b_nu|^2) / 2`` (Cauchy-Schwarz), the gain
    is at most ``U = (lambda(0) + sum of the L - 1 largest |lambda(nu)|,
    nu != 0) / L``, lambda(0) being the total weight, 1.  At L = 2 it is
    the closed form of bloch.solve_fidelity.
    """
    lam = spreading_eigenvalues(C)
    mags = sorted(np.sqrt(lam.real**2 + lam.imag**2).ravel()[1:].tolist())
    return (float(lam[0, 0].real) + math.fsum(mags[len(mags) - (C.L - 1):])) / C.L


@dataclass(frozen=True, eq=False)
class CosetBound:
    """The largest weight on a coset of a cyclic Lagrangian line, and a pulse pair with that gain.

    ``line`` is the line's generator and ``coset`` a shift nu of the coset
    (heisenberg._lagrangian_lines); ``pair`` is ``(v, S_nu v)`` with v a
    unit eigenvector of the generator's shift operator.
    """

    value: float
    line: tuple[int, int]
    coset: tuple[int, int]
    pair: tuple[np.ndarray, np.ndarray]


def _coset_sums(C: ScatteringFunction) -> np.ndarray:
    """The weight of every coset of _lagrangian_lines(L), (lines, L).

    Read-only and cached on C: coset_bound and ppt_certificate's face both
    read it, so a general job sums the cosets once.
    """
    cosets = _lagrangian_lines(C.L)[1]
    return C._cached("_coset_sums", lambda: (C.weights.ravel()[cosets].sum(axis=-1),))[0]


def coset_bound(C: ScatteringFunction) -> CosetBound:
    """The coset bound K: the largest sum of C over a coset ``nu + Lambda`` of a cyclic Lagrangian line.

    The shifts of a line Lambda commute, and L of them, orthogonal, span the
    algebra of the generator's shift operator, so its L eigenvalues are
    distinct and each eigenvector v has ``|<v, S_lambda v>| = 1`` on Lambda.
    Parseval then leaves ``<v, S_mu v> = 0`` off Lambda, and the pair
    ``(v, S_nu v)`` gains ``sum_mu C(mu) |<v, S_(mu - nu) v>|^2``, the
    weight on ``nu + Lambda`` (King & Ruskai, IEEE Trans. Inf. Theory
    47(1), 2001).  Ties go to the first line in the order of
    _lagrangian_lines, then to the first coset, the line itself: at L = 2
    the closed form's axis n_star, and the line itself when its sign is +1.
    Each coset is summed over one transversal of its line, so the work is
    the L^2 weights once per line.  Cached on C, the pair read-only:
    structured_lower_bound and general_design's pair gain read the same object.

    For the generator ``g = (a, b)``, v is the chirp
    ``v[k a] = w^(a b k (k - n) / 2) / sqrt(n)`` on the orbit ``k < n =
    L / gcd(a, L)`` of a, zero elsewhere, its phases exact from the
    ``_layout`` table at 2L.  One step ``k - 1 -> k`` of
    ``(S_g v)[m] = w^(b m) v[m - a]`` multiplies by ``w^(a b (n + 1) / 2)``,
    and so does the wrap to k = 0, up to ``w^(a b n) = 1``, since L divides
    ``a n``.
    """

    def build():
        L = C.L
        lines, cosets = _lagrangian_lines(L)
        sums = _coset_sums(C)
        line, t = np.unravel_index(np.argmax(sums), sums.shape)
        generator = (int(lines[line, 0]), int(lines[line, 1]))
        coset = divmod(int(cosets[line, t, 0]), L)
        a, b = generator
        n = L // math.gcd(a, L)
        k = np.arange(n)
        v = np.zeros(L, dtype=complex)
        v[k * a % L] = _layout(2 * L)[2][1][a * b * k * (k - n) % (2 * L)] / math.sqrt(n)
        pair = (v, _shifted(v, coset[1] * L + coset[0]))
        return pair, CosetBound(float(sums[line, t]), generator, coset, pair)

    return C._cached("_coset_bound", build)[1]


class _LowerBound(NamedTuple):
    value: float
    pulse: np.ndarray


def structured_lower_bound(C: ScatteringFunction) -> _LowerBound:
    """A mean gain that some unit pulse pair reaches, from fixed candidates; and its transmit pulse.

    The candidates are the transmit pulse of K's coset pair (coset_bound)
    and the unit periodized Gaussians ``g_s[m] ~ exp(-pi s d^2 / L)``,
    ``d = min(m, L - m)``, of the widths _BOUND_WIDTHS: pulses matched to
    the channel's spread (Kozek & Molisch, IEEE JSAC 16(8), 1998; Strohmer
    & Beaver, IEEE Trans. Commun. 51(7), 2003).  They run _BOUND_CYCLES
    plain cycles together, a receive half-step and then _BOUND_CYCLES
    times a transmit and a receive half-step: alternating_fidelity_max's
    half-steps, without the stationarity residuals its _receive measures.
    Each half-step solves its subproblem exactly, so no candidate's
    objective falls, and the value, the largest objective of the last
    receive half-step clipped at 1, is at least K's pair gain and at least
    1/L.  Nothing is drawn at random.  Read-only, cached on C.
    """

    def build():
        d = np.minimum(np.arange(C.L), C.L - np.arange(C.L))
        gaussians = np.exp(-np.pi / C.L * _BOUND_WIDTHS[:, None] * d * d)
        gaussians /= np.linalg.norm(gaussians, axis=1)[:, None]
        gammas = np.concatenate([coset_bound(C).pair[0][None], gaussians])
        forward, adjoint = _half_step_operands(C)
        for cycle in range(_BOUND_CYCLES + 1):
            if cycle:
                held = _rank_one_images(adjoint, receivers)
                gammas = _top_of(*np.linalg.eigh(held.mats), held)[1]
            ahead = _rank_one_images(forward, gammas)
            top, receivers = _top_of(*np.linalg.eigh(ahead.mats), ahead)
        best = np.argmax(top)
        return np.array(min(1.0, top[best])), gammas[best].copy()

    value, pulse = C._cached("_structured_lower_bound", build)
    return _LowerBound(float(value), pulse)


def pair_gain(C: ScatteringFunction, gamma, g) -> tuple[float, float]:
    """Mean gain ``<g, A(gamma gamma*) g>`` of a unit pulse pair and its stationarity residual.

    Both are measured as alternating_fidelity_max measures them, on the
    images ``A*(g g*)``: the gain is ``gamma* A*(g g*) gamma`` and the
    residual ``||A*(g g*) gamma - F gamma||``.
    """
    gamma, g = (linalg.require_unit_vector(v, name)[None] for v, name in ((gamma, "gamma"), (g, "g")))
    if gamma.shape[1] != C.L or g.shape[1] != C.L:
        raise DimensionMismatchError(
            f"pulse lengths {gamma.shape[1]}, {g.shape[1]} do not match L={C.L}"
        )
    value, residual = _rank_one_images(_half_step_operands(C)[1], g).rayleigh(gamma)
    return float(value[0]), float(residual[0])


@functools.lru_cache(maxsize=None)
def _ppt_layout(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index and phase tables of the reduced partial transpose at dimension L.

    For the blocks s (s = 0 at odd L, s = 0 and 1 at even L; see
    ppt_bound), row k of ``D_(s, (a, b))`` holds
    ``phases[s, a, k, b] = w^(b (2k - a - s))`` in column
    ``anti[s, a, k] = (a + s - k) mod L`` and is zero elsewhere.
    """
    n = np.arange(L)
    s = np.arange(2 - L % 2)[:, None, None]
    a, k = n[:, None, None], n[:, None]
    tables = ((n[:, None] + s - n) % L, _layout(L)[2][1 % L][n * (2 * k - a - s[..., None]) % L])
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=8)
def _ppt_tables(L: int) -> tuple:
    """Read-only tables of ppt_certificate at dimension L, O(L^4) entries.

    ``D`` is the (L^2, blocks L^2) stack of the flattened ``D_(s, mu)``, mu
    row-major: the blocks ``G(r)`` are ``r @ D``, and
    ``sum_s Re Tr(X_s D_(s, mu))`` is the real part of ``D @ conj(X)`` for a
    flattened X, each D being hermitian.  _ppt_schur transforms with the
    phases of its first h columns b, ``half``: at even L, h = L / 2, since
    ``w^(2 (L / 2) k) = 1`` makes column ``b + L / 2`` column b times
    ``(-1)^(a + s)``.  ``gather`` reads the L^2 x L^2 matrix, row-major, out
    of its (L, L, h, h) transform over ``(a, a', b' mod h, b mod h)``, and
    ``signs`` (None at odd L) holds ``sigma_s(a, b) sigma_s(a', b')``, with
    ``sigma_s(a, b) = (-1)^(a + s)`` for ``b >= L / 2``, else 1.
    """
    anti, phases = _ppt_layout(L)
    blocks, h = len(anti), L // (2 - L % 2)
    m, s, k = np.ogrid[:L * L, :blocks, :L]
    D = np.zeros((L * L, blocks, L, L), dtype=complex)
    D[m, s, k, anti[s, m // L, k]] = phases[s, m // L, k, m % L]
    D = D.reshape(L * L, -1)
    a, b = np.divmod(np.arange(L * L), L)
    gather = (((a[:, None] * L + a) * h + b % h) * h + b[:, None] % h).ravel().astype(np.int32)
    sigma = np.where((b >= h) & ((a + np.arange(blocks)[:, None]) % 2 == 1), -1, 1).astype(np.int8)
    signs = (sigma[:, :, None] * sigma[:, None]).reshape(blocks, -1) if h < L else None
    tables = (D, np.ascontiguousarray(phases[..., :h]).reshape(blocks * L, L, h), gather, signs)
    for table in tables:
        if table is not None:
            table.setflags(write=False)
    return tables


def _ppt_schur(Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The L^2 x L^2 matrix ``sum_s Re Tr(D_(s, mu) Y_s D_(s, nu) P_s)``, in O(L^5).

    With ``Q[s, a, a', k, k'] = Y_s[anti[s, a, k], k'] P_s[anti[s, a', k'], k]``,
    entry ``((a, b), (a', b'))`` is the real part of
    ``sum_s sum_(k, k') phases[s, a, k, b] phases[s, a', k', b'] Q``: two
    batched products with the phase table, over k' and then over k, on the
    first h columns b and b' (_ppt_tables), then one gather into place.
    """
    blocks, L = Y.shape[:2]
    anti = _ppt_layout(L)[0]
    _, half, gather, signs = _ppt_tables(L)
    h = half.shape[-1]
    s = np.arange(blocks)[:, None, None]
    q = Y[s, anti][:, None] * P[s, anti].swapaxes(-1, -2)[:, :, None]  # [s, a', a, k, k']
    t = (q.reshape(blocks * L, L * L, L) @ half).reshape(blocks, L, L, L, h)
    t = t.transpose(0, 2, 1, 4, 3).reshape(blocks * L, L * h, L) @ half  # [s, a, a', b', b]
    t = np.take(t.real.reshape(blocks, -1), gather, axis=1)
    if signs is None:  # odd L: one block
        return t.reshape(L * L, L * L)
    return (signs[0] * t[0] + signs[1] * t[1]).reshape(L * L, L * L)


def _floors(lam: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of ``X^(-1/2) d X^(-1/2)`` for each ``X = u diag(lam) u*`` of a stack.

    ``X + alpha d`` stays positive semidefinite while ``1 + alpha floor >= 0``.
    """
    root = 1.0 / np.sqrt(lam)
    scaled = root[..., :, None] * (u.conj().swapaxes(-1, -2) @ d @ u) * root[..., None, :]
    return np.linalg.eigvalsh(scaled)[:, 0]


def _reach(floor: float, fraction: float = 1.0) -> float:
    """The step, at most 1, that goes ``fraction`` of the way to the boundary ``1 + alpha floor = 0``."""
    return 1.0 if floor >= -fraction else -fraction / floor


def _hermitian(X: np.ndarray) -> np.ndarray:
    return (X + X.conj().swapaxes(-1, -2)) / 2.0


def _ppt_iterates(gain: np.ndarray, rstar: np.ndarray, D: np.ndarray):
    """The primal-dual iterates (r, Y) of the PPT relaxation of ppt_certificate, one per iteration.

    Mehrotra's predictor-corrector steps in the HKM direction on the
    relaxation ``max gain @ r`` over ``r >= 0, sum r = 1, G_s(r) >= 0`` and
    its dual ``min t`` over ``Y_s >= 0, z >= 0`` with
    ``gain + sum_s Re Tr(Y_s D_(s, .)) + z = t``.  Both start feasible,
    r at ``_PPT_MIX rstar + (1 - _PPT_MIX) / L^2`` and ``Y_s = _PPT_DUAL I / L``,
    and the steps keep them so.
    """
    n = len(gain)
    L, blocks = math.isqrt(n), D.shape[1] // n
    cone = n + blocks * L

    def dual(X):  # sum_s Re Tr(X_s D_(s, mu)) for each mu
        return (D @ X.ravel().conj()).real

    r = _PPT_MIX * rstar + (1.0 - _PPT_MIX) / n
    Y = np.repeat(np.eye(L, dtype=complex)[None] * (_PPT_DUAL / L), blocks, axis=0)
    z = -gain - dual(Y)
    t = 1.0 - z.min()
    z += t
    while True:
        S = (r @ D).reshape(blocks, L, L)
        lam, u = np.linalg.eigh(np.concatenate([S, Y]))
        P = (u[:blocks] / lam[:blocks, None, :]) @ u[:blocks].conj().swapaxes(-1, -2)
        mu = (np.vdot(Y, S).real + z @ r) / cone
        M = _ppt_schur(Y, P)
        M.ravel()[:: n + 1] += z / r
        rd = t - gain - dual(Y) - z
        rp = 1.0 - r.sum()

        def direction(target, corr_y, corr_z, ones=None):
            # HKM: dY = target P - Y - herm(Y dS P) - corr_y; the Schur
            # system gives dr up to a multiple of M^-1 1, fixed by sum(dr) = rp.
            h = dual(target * P - Y - corr_y) + (target - corr_z) / r - z - rd
            if ones is None:
                wh, ones = np.linalg.solve(M, np.stack([h, np.ones(n)], axis=1)).T
            else:
                wh = np.linalg.solve(M, h)
            dt = (wh.sum() - rp) / ones.sum()
            dr = wh - dt * ones
            dS = (dr @ D).reshape(blocks, L, L)
            dY = target * P - Y - _hermitian(Y @ dS @ P) - corr_y
            dz = rd - dual(dY) + dt
            low = _floors(lam, u, np.concatenate([dS, dY]))
            floors = min(low[:blocks].min(), (dr / r).min()), min(low[blocks:].min(), (dz / z).min())
            return dr, dt, dS, dY, dz, ones, floors

        dr, dt, dS, dY, dz, ones, floors = direction(0.0, 0.0, 0.0)
        ap, ad = map(_reach, floors)
        affine = (np.vdot(Y + ad * dY, S + ap * dS).real + (z + ad * dz) @ (r + ap * dr)) / cone
        dr, dt, dS, dY, dz, _, floors = direction(
            mu * (affine / mu) ** 3, _hermitian(dY @ dS @ P), dz * dr, ones
        )
        ap, ad = (_reach(f, _PPT_STEP) for f in floors)
        r, z, t = r + ap * dr, z + ad * dz, t + ad * dt
        Y = _hermitian(Y + ad * dY)
        yield r, Y


@dataclass(frozen=True, eq=False)
class _Face:
    """The duals that complementary slackness allows if the coset pairs are optimal.

    ``rstar`` averages the uniform states on every coset of a cyclic
    Lagrangian line whose weight is K (coset_bound); m runs over the shifts
    of those cosets.  If those states are optimal for the relaxation, so is
    rstar, and every optimal dual has ``Y_s G_s(rstar) = 0`` and reaches
    the bound on each such coset: ``L C(m) + sum_s Re Tr(Y_s D_(s, m)) = K``.
    ``project`` is the projector onto the kernel of each ``G_s(rstar)`` (for
    one coset: rank one at odd L, total rank two at even L), ``spans`` the
    flattened ``E_m = project D_(s, m) project``, ``solve`` the
    pseudoinverse of their Gram matrix ``Re Tr(E_m E_m')`` (singular: the
    E_m of one coset sum to ``L project G(its state) project = 0``) and
    ``target`` the values ``K - L C(m)`` that ``Re Tr(Y E_m)`` must take.
    With K's coset alone, the L = 6 origin-plus-2-taps cells of the sparse
    deck, where three cosets reach K, never certified: their polished
    bounds stalled 1e-9 to 1e-8 above K.
    """

    rstar: np.ndarray
    project: np.ndarray
    spans: np.ndarray
    solve: np.ndarray
    target: np.ndarray

    @classmethod
    def of(cls, C: ScatteringFunction, D: np.ndarray) -> _Face:
        L = C.L
        sums = _coset_sums(C)
        tied = _lagrangian_lines(L)[1][sums >= sums.max() - CERTIFY_TOL]
        rstar = np.bincount(tied.ravel(), minlength=L * L) / tied.size
        coset = np.flatnonzero(rstar)
        lam, u = np.linalg.eigh((rstar @ D).reshape(-1, L, L))
        kernel = u * (lam <= 1e-9 * lam.max())[:, None, :]
        project = kernel @ kernel.conj().swapaxes(-1, -2)
        spans = (project @ D[coset].reshape(len(coset), -1, L, L) @ project).reshape(len(coset), -1)
        gram = (spans.conj() @ spans.T).real
        return cls(rstar, project, spans, np.linalg.pinv(gram, rcond=1e-10, hermitian=True),
                   sums.max() - L * C.weights.ravel()[coset])

    def polish(self, Y: np.ndarray) -> np.ndarray:
        """Factors W of Y moved onto the face, its coset values set to K.

        Y is projected onto the face, then the least-norm combination of
        the E_m that sets the coset values is added; negative eigenvalues
        left by roundoff are dropped.
        """
        Y = (self.project @ Y @ self.project).ravel()
        miss = self.target - (self.spans.conj() @ Y).real
        lam, u = np.linalg.eigh((Y + (self.solve @ miss) @ self.spans).reshape(self.project.shape))
        return u * np.sqrt(np.maximum(lam, 0.0))[:, None, :]


def ppt_bound(C: ScatteringFunction, W) -> float:
    """The bound that the factors ``W_s`` of a PPT dual certify for the mean gain of every unit pulse pair.

    W stacks one ``L x m`` factor per block: one at odd L, two at even L.

    The relaxation.  A pair (gamma, g) has ``r_mu = |<g, S_mu gamma>|^2 / L``
    >= 0, with ``sum_mu r_mu = 1`` (Parseval) and gain ``L sum_mu C(mu) r_mu``.
    With ``t_mu = vec(S_mu*)``, row-major (``t_mu[i, j] = [j = i + mu1]
    w^(-mu2 j)``), and ``x = gamma (x) conj(g)``, ``|<t_mu, x>|^2 = L r_mu``.
    The common shifts ``U_nu = S_nu (x) conj(S_nu)`` have the t_mu as
    eigenvectors with distinct characters (``U_nu t_mu = vec(S_nu S_mu* S_nu*)``),
    so the average of ``U_nu x x* U_nu*`` over nu is the Weyl-diagonal state
    ``rho(r) = sum_mu r_mu t_mu t_mu* / L``.  Partial transposition on the
    second factor takes ``U_nu X U_nu*`` to ``V X^T2 V*``, ``V = S_nu (x) S_nu``
    unitary, and ``(x x*)^T2 = gamma gamma* (x) g g* >= 0``; so
    ``rho(r)^T2 >= 0`` (Peres, PRL 77, 1996).

    The blocks.  Entrywise ``rho[(i, j), (k, l)] = [j - i = l - k]
    rhat_(j - i)(l - j) / L``, ``rhat_a(t) = sum_b r[a, b] w^(b t)``, so
    ``rho^T2[(k, l), (i, j)] = rho[(k, j), (i, l)]`` vanishes unless
    ``k + l = i + j``.  Block ``s' = k + l`` of rho^T2, rows k and columns i,
    holds ``rhat_(s' - i - k)(i - k) / L``; relabelled by ``k -> -k``,
    ``i -> -i`` it is ``G_(-s')(r) / L`` with
    ``G_s(r)[k, i] = rhat_(k + i - s)(k - i)``.  As
    ``G_(s + 2)[k + 1, i + 1] = G_s[k, i]``, the blocks of one parity of s
    are permutations of each other, so ``rho(r)^T2 >= 0`` exactly when
    ``G_0(r) >= 0`` at odd L, where 2 generates Z_L, and when
    ``G_0(r), G_1(r) >= 0`` at even L.

    Weak duality.  ``G_s(r) = sum_mu r_mu D_(s, mu)`` with the hermitian
    ``D_(s, mu)[k, i] = [k + i = s + mu1] w^(mu2 (k - i))``.  For
    ``Y_s = W_s W_s* >= 0``, ``Tr(Y_s G_s(r)) >= 0``, so the gain is at most
    ``L sum_mu C(mu) r_mu + sum_s Tr(Y_s G_s(r)) =
    sum_mu r_mu (L C(mu) + sum_s Re Tr(Y_s D_(s, mu)))``, and, r being a
    probability vector, at most the largest bracket: the value returned.
    Every W gives a valid bound; W only decides how tight it is.  It is
    read from W alone, in O(L^3): ``Y = W W*``, then each bracket sums one
    anti-diagonal of Y against the _ppt_layout phases.
    """
    L = C.L
    anti, phases = _ppt_layout(L)
    W = linalg.require_array(W, "certificate")
    if W.ndim != 3 or W.shape[:2] != (len(anti), L):
        raise DimensionMismatchError(
            f"certificate must stack {len(anti)} matrices of {L} rows at L={L}, got shape {W.shape}"
        )
    Y = W @ W.conj().swapaxes(-1, -2)
    gathered = Y[np.arange(len(anti))[:, None, None], anti, np.arange(L)]
    dual = (gathered[..., None, :] @ phases)[..., 0, :].real.sum(axis=0)
    return float(np.max(L * C.weights + dual))


def ppt_certificate(C: ScatteringFunction, value) -> np.ndarray | None:
    """Factors W of a PPT dual whose ppt_bound is at most ``value + CERTIFY_TOL``, or None.

    ``value`` is K's coset pair's measured gain (pair_gain), passed by the
    caller, general_design; a W returned certifies that no unit pulse pair
    gains more than ``value + CERTIFY_TOL``.  The PPT relaxation
    (ppt_bound), the largest ``L sum_mu C(mu) r_mu`` over ``r >= 0,
    sum_mu r_mu = 1, G_s(r) >= 0``, and its dual are solved together by a
    Mehrotra predictor-corrector interior-point method in the HKM direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996;
    _ppt_iterates).  Each direction solves one L^2 x L^2 Schur system, the
    O(L^5) _ppt_schur plus ``z / r`` on its diagonal for the signs of r.
    The primal starts near rstar, the average of the uniform states on
    every coset of weight K (_Face).

    After each iteration: a primal whose relaxed gain exceeds value by
    _PPT_EXIT proves that the relaxation's optimum lies above the pair's
    gain, and None is returned.  Otherwise the dual is polished onto the
    face that the pairs' optimality would leave (_Face.polish), and the
    checker ppt_bound decides.  None is also returned after _PPT_ITERS
    iterations and when the solver breaks down numerically.  Each
    iteration takes O(L^6) time (the Schur solve) and O(L^4) memory.
    """
    value = linalg.require_real(value, "value")
    D = _ppt_tables(C.L)[0]
    face = _Face.of(C, D)
    gain = C.L * C.weights.ravel()
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for r, Y in itertools.islice(_ppt_iterates(gain, face.rstar, D), _PPT_ITERS):
                if gain @ r > value + _PPT_EXIT:
                    return None
                W = face.polish(Y)
                if ppt_bound(C, W) <= value + CERTIFY_TOL:
                    return W
    except (FloatingPointError, np.linalg.LinAlgError):
        pass  # a solver that breaks down certifies nothing
    return None


@dataclass(frozen=True, eq=False)
class GeneralDesign:
    """general_design's bounds on the optimum, whether K's coset pair reaches it, and the trace."""

    lower_bound: float
    upper_bound: float
    certified: bool
    trace: OptimizationTrace


def general_design(C: ScatteringFunction, cfg: OptimizerConfig) -> GeneralDesign:
    """The best pulse pair found for C, with structured_lower_bound and an upper bound.

    K's coset pair is optimal, and no restart runs, when its gain reaches U
    less CERTIFY_TOL, or a PPT dual's bound, tried at L <= _PPT_LARGEST_L if
    the lower bound is not above it.  Else alternating_fidelity_max runs.
    """
    lower = structured_lower_bound(C).value
    upper = fidelity_upper_bound(C)
    pair = coset_bound(C).pair
    value, residual = pair_gain(C, *pair)
    certified = value >= upper - CERTIFY_TOL
    if not certified and lower <= value + CERTIFY_TOL and C.L <= _PPT_LARGEST_L:
        W = ppt_certificate(C, value)
        if W is not None:
            upper, certified = ppt_bound(C, W), True
    if not certified:
        return GeneralDesign(lower, upper, False, alternating_fidelity_max(C, C.L, cfg))
    # Writable copies of the cached, read-only pair, as alternating_fidelity_max returns.
    trace = OptimizationTrace((), residual <= cfg.tol, min(1.0, value), tuple(v.copy() for v in pair), (), ())
    return GeneralDesign(lower, upper, True, trace)
