"""Numerical optimizers, brute-force oracles and upper bounds.

Everything here works at general L and serves two purposes: producing
SINR-optimal receivers (a generalized eigenproblem), and independently
validating the L=2 closed form through alternating maximization, sphere
sampling in Bloch coordinates, and random-precoder lower-bound searches.
The upper bounds (U, the coset bound K and the PPT relaxation's dual)
certify a pulse pair optimal without the optimizer.
All stochastic routines derive their randomness from an explicit seed and
produce bit-identical results for identical (seed, sample count) inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bloch import ScatteringQuad, map_matrix_rep
from .errors import DimensionMismatchError, InvalidWeightsError
from .heisenberg import _lagrangian_lines, _layout
from .wssus import (
    ScatteringFunction,
    _complex_gaussian,
    _map_rank_one,
    apply_A,
    apply_interference,
    random_unit_vector,
    spreading_eigenvalues,
    validate_density_operator,
)

_BATCH = 1 << 14
# The lower-bound search maps at most this many matrix entries at once.
_BLOCK_ENTRIES = 1 << 22
# Slack of the search's pruning test.  The square root of its bound's
# spread is a weighted 2-norm of a unit pulse's ambiguities <v, S_nu v>,
# whose squares sum to L; each ambiguity is within about L ulp of exact, and
# so is each weight's square root (a tap product, or |lambda(nu)| / sqrt(L)
# from two L x L products, with sum |lambda|^2 / L <= L).  By the triangle
# inequality the bound is within about L^(3/2) ulp of exact, and eigvalsh's
# top eigenvalue of the trace-one image within about L^2 ulp: both under
# 1e-12 at L = 64.  So a sample whose bound falls this far below a computed
# top eigenvalue has a smaller one.  The _LEADS best-bounded samples of each
# batch are solved first to set it.
_PRUNE_MARGIN = 1e-9
_LEADS = 4
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
# Twin distance at or below which a restart trails a shift copy of the lead
# and is parked (see alternating_fidelity_max): each pulse is within an
# angle of about 0.03 of the copy's.  The lead may still climb: on 1,200
# random channels at L = 2..8, one radius of 3e-2 or 1e-1 for the lead and
# the stationary pairs alike lost 1.3e-8 of the best value, this one about
# 1e-14.
_TWIN = 1e-3
# The wider twin distance at which a restart trails a stationary restart,
# whose pair no longer moves.  On another 1,200 such channels it lost no
# best value beyond what _TWIN alone loses, and, with parked restarts then
# moved onto their twin's shift copy, no restart's value fell by more than
# 1e-12; at 0.2 and 0.3 single restarts fell by 6.9e-4 and 5.1e-3, having
# trailed a lower optimum than their own.
_TWIN_STATIONARY = 1.5e-1
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


def _twin_distances(pairs: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Distance of pulse pairs to representative pairs up to a common shift.

    ``pairs`` and ``reps`` stack pairs ``(gamma, g)`` as (..., 2, L) rows
    that broadcast against each other.  For a pair and a representative
    ``(gamma_s, g_s)`` the distance is the minimum over shifts nu of
    ``(1 - |<gamma, S_nu gamma_s>|^2) + (1 - |<g, S_nu g_s>|^2)``.  It is
    zero exactly when ``(gamma, g) = (S_nu gamma_s e^ia, S_nu g_s e^ib)``
    for some nu, a and b, where the mean gain and the stationarity residual
    are the representative's: conjugation by S_nu commutes with the map up
    to phases that cancel.
    """
    overlap = (np.abs(_ambiguity(pairs, reps)) ** 2).sum(axis=-3)
    return 2.0 - overlap.max(axis=(-2, -1))


def _twins(pairs: np.ndarray, reps: np.ndarray, radius) -> np.ndarray:
    """(K, R) mask of the K pulse pairs within ``radius`` of each of R representatives.

    ``radius`` broadcasts to (K, R); a negative radius makes no twin, and
    costs no ambiguity table.  Pairs are (2, L) rows, distances as in
    _twin_distances.
    """
    radius = np.zeros((len(pairs), len(reps))) + radius
    near = radius >= 0.0
    k, s = np.nonzero(near)
    if k.size:
        near[k, s] = _twin_distances(pairs[k], reps[s]) <= radius[k, s]
    return near


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


def _trace_bound(d: int, trace, spread) -> np.ndarray:
    """Upper bound on the top eigenvalue of hermitian d x d matrices M from ``tr M`` and a spread.

    ``spread`` is ``||M - m I||_F^2`` with ``m = trace / d``.  The bound is
    ``min(m + s sqrt(d - 1), ||M||_F)`` with ``s^2 = spread / d`` and
    ``||M||_F^2 = spread + trace m`` (Wolkowicz & Styan, Linear Algebra Appl.
    29, 1980).  Callers sum the spread from nonnegative terms, so s keeps a
    relative error of a few ulp even where ``tr M^2 / d - m^2`` would cancel.
    """
    mean = trace / d
    return np.fmin(mean + np.sqrt(spread / d) * math.sqrt(d - 1), np.sqrt(spread + trace * mean))


def _ambiguity_terms(C: ScatteringFunction) -> tuple[np.ndarray, list]:
    """A diagonal and mass terms that give _trace_bound of ``A(v v*)`` for any unit pulse v.

    Returns ``(diag, terms)``.  The bounded matrix N has the top eigenvalue
    of ``A(v v*)`` and splits as a diagonal D, ``diag``, plus a rest R with
    ``||R||_F^2 = _ambiguity_mass(terms, v)`` and ``<R, D - m I> = 0``,
    ``m = tr N / d``; so ``||N - m I||_F^2 = ||D - m I||_F^2 + ||R||_F^2``,
    a sum of nonnegative terms.  With T >= L nonzero taps N is the L x L
    image (_spectral_terms).  Otherwise N is the T x T tap Gram, whose
    entries are ``sqrt(C(mu_s) C(mu_t)) <S_mu_s v, S_mu_t v>``;
    ``S_mu_s* S_mu_t`` is ``S_(mu_t - mu_s)`` up to a unit phase, so D holds
    ``C(mu_t)`` and R, the off-diagonal part, has K(nu) the sum of
    ``C(mu_s) C(mu_t)`` over the pairs of distinct taps with difference nu.
    """
    mu1, mu2 = C._tap_shifts()
    if mu1.size >= C.L:
        return _spectral_terms(C)
    weights = C.weights[mu1, mu2]
    s, t = np.nonzero(~np.eye(weights.size, dtype=bool))
    return weights, _folded(C.L, mu1[t] - mu1[s], mu2[t] - mu2[s], weights[s] * weights[t])


def _spectral_terms(C: ScatteringFunction) -> tuple[np.ndarray, list]:
    """_ambiguity_terms of the L x L image ``N = A(v v*)``, from the spreading eigenvalues.

    ``A(S_nu) = lambda(nu) S_nu`` (spreading_eigenvalues) and
    ``v v* = sum_nu <S_nu v, v> S_nu / L``, so
    ``||N||_F^2 = sum_nu |lambda(nu)|^2 |<v, S_nu v>|^2 / L``.  The term at
    nu = 0 is ``(tr N)^2 / L`` with ``tr N = lambda(0)``, so D is
    ``(lambda(0) / L) I`` and R, ``N - D``, has ``K(nu) = |lambda(nu)|^2 / L``
    for nu != 0.
    """
    L = C.L
    lam = spreading_eigenvalues(C).ravel()
    nu1, nu2 = np.divmod(np.arange(1, L * L), L)
    weights = (lam.real[1:] ** 2 + lam.imag[1:] ** 2) / L
    return np.full(L, lam[0].real / L), _folded(L, nu1, nu2, weights)


def _folded(L: int, nu1: np.ndarray, nu2: np.ndarray, weights: np.ndarray) -> list:
    """_ambiguity_mass terms of the kernel K: ``weights`` summed per shift nu, -nu folded onto nu.

    ``|<v, S_-nu v>| = |<v, S_nu v>|``, so a kernel on nu and -nu needs one
    ambiguity; a shift with ``2 nu = 0`` is its own partner.  One term
    ``(nu1, phase columns, K)`` per distinct nu1 of the folded kernel, each
    K entry twice, for the real and the imaginary part.
    """
    nu1, nu2 = nu1 % L, nu2 % L
    flat = np.minimum(nu1 * L + nu2, -nu1 % L * L + -nu2 % L)
    kernel = np.bincount(flat, weights, L * L).reshape(L, L)
    phases = _layout(L)[2]
    cols = [np.flatnonzero(row) for row in kernel]
    return [(n, phases[:, c], np.repeat(kernel[n, c], 2)) for n, c in enumerate(cols) if c.size]


def _ambiguity_mass(terms: list, pulses: np.ndarray) -> np.ndarray:
    """``sum_nu K(nu) |<v, S_nu v>|^2`` for each row v (terms from _ambiguity_terms).

    ``<v, S_nu v> = sum_m conj(v_m) w^(nu2 m) v_(m - nu1)``: per nu1 one
    product with the columns of the ``_layout`` phase table, squared in
    place as real and imaginary parts side by side.
    """
    lags = _layout(pulses.shape[-1])[1]
    conj = pulses.conj()
    mass = np.zeros(len(pulses))
    for nu1, cols, kernel in terms:
        amb = ((conj * pulses.take(lags[:, nu1], axis=1)) @ cols).view(float)
        amb *= amb
        mass += amb @ kernel
    return mass


def _bounded_images(operand, terms, pulses: np.ndarray) -> tuple:
    """_trace_bound of each image ``A(v v*)`` of the rows v, and a maker of chosen images.

    ``terms`` is _ambiguity_terms'; the bound forms no image.  The maker
    maps an index into the rows to the ``mats`` of _rank_one_images on
    those rows alone, bit for bit the images of the whole stack (see
    _map_rank_one).
    """
    diag, kernel = terms
    trace = diag.sum()
    spread = ((diag - trace / diag.size) ** 2).sum() + _ambiguity_mass(kernel, pulses)
    upper = _trace_bound(diag.size, trace, spread)
    return upper, lambda keep: _rank_one_images(operand, pulses[keep]).mats


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
    trail a copy (see _twin_distances and _twins).  It compares every live
    restart that has not stopped with every stationary restart and with
    the lead, the live restart of largest objective.  A restart whose
    distance to a stationary restart is at most _TWIN_STATIONARY, or to the
    lead at most _TWIN, where that pair's objective is at least its own, is
    parked: it stops and leaves the batch as a stationary restart does.
    The wider radius lets the restarts that drift along a flat ridge near a
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
    Otherwise the next wave's starts are drawn and its restarts may trail
    the stationary restarts of earlier waves.  After a wave that reached the
    cap they trail none: on the flat ridge of isotropic profiles at L = 16
    a stationary restart of such a wave can sit 1e-10 below the optimum,
    and the next wave, parked behind it at once, would end where the capped
    one did.  Restart i draws its start from child i of
    ``SeedSequence(cfg.seed)`` in any wave size, as ``spawn`` numbers its
    children across calls.

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

    # Per restart: the pair, its objective and its residual, the start of
    # its next third cycle and its trust radius.  The adjoint images of the
    # live receivers (``held``) feed both the residual and the next transmit
    # half-step.
    # Each restart's pair (gamma, g) is one (2, L) row of ``pulses``.
    pulses = np.empty((cfg.restarts, 2, L), dtype=complex)
    gammas, receivers = pulses[:, 0], pulses[:, 1]
    values, residuals = np.empty(cfg.restarts), np.empty(cfg.restarts)
    starts = np.empty_like(receivers)
    radius = np.full(cfg.restarts, _RADIUS)
    # The stationary restarts, which the live ones may trail, and the live
    # ones; each wave's history; the restarts drawn so far.
    reps = live = np.empty(0, dtype=int)
    histories = []
    drawn = cycles = 0
    while True:
        going = residuals[live] > cfg.tol
        # The twin test runs after each Newton cycle and whenever a
        # restart has just stopped (see the docstring).
        if going.any() and (cycles % 3 == 0 or not going.all()):
            reps = np.append(reps, live[~going])
            going[going] = ~_trailing(live[going], reps, values, pulses)
        if not going.all():
            live, held = live[going], held[going]
        if not live.size or cycles == cfg.max_iters:
            stationary = residuals[:drawn] <= cfg.tol
            if drawn == cfg.restarts or (not live.size and _enough(values[:drawn][stationary], drawn)):
                break
            # The next wave (see the docstring); restarts at the cap end there.
            reps = np.flatnonzero(stationary) if not live.size else reps[:0]
            live = np.arange(drawn, min(drawn + _WAVE, cfg.restarts))
            drawn += live.size
            gammas[live] = [random_unit_vector(np.random.default_rng(s), L) for s in seeds.spawn(live.size)]
            values[live], receivers[live], residuals[live], held, _ = _receive(forward, adjoint, gammas[live])
            history = [values.copy()]
            histories.append(history)
            cycles = 0
            continue
        phase = cycles % 3
        cycles += 1
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
        # The transmit half-step's entry: a third cycle holds the objective
        # of r2 until its result is kept.
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


def _trailing(ids: np.ndarray, reps: np.ndarray, values: np.ndarray, pulses: np.ndarray) -> np.ndarray:
    """Mask of the restarts of ``ids`` that trail a twin with no lower value.

    The twins sought are the stationary restarts ``reps`` (within
    _TWIN_STATIONARY) and the lead, the restart of ``ids`` with the largest
    value, which is never its own twin (within _TWIN).  Restarts index
    ``values`` and the pair rows of ``pulses`` (see _twins).
    """
    others = np.append(reps, ids[np.argmax(values[ids])])
    radius = np.append(np.full(reps.size, _TWIN_STATIONARY), _TWIN)
    # A pair that cannot be trailed gets a negative radius, so no table.
    allowed = (values[others] >= values[ids, None]) & (ids[:, None] != others)
    return _twins(pulses[ids], pulses[others], np.where(allowed, radius, -1.0)).any(axis=1)


def _sampled_max(score, n_samples: int, seed: int, batch: int = _BATCH) -> float:
    """Largest ``score(rng, m, best)`` entry over n_samples draws, taken in batches.

    One generator seeded with ``seed`` feeds every batch of at most
    ``batch`` draws.  numpy's normal and uniform draws do not depend on how
    a request is split, so where ``score`` draws its m rows in one call, the
    same samples come in any batch size and the result depends only on
    (seed, n_samples).  ``best`` is the largest entry of the earlier
    batches (-inf before the first).
    """
    rng = np.random.default_rng(linalg.require_int(seed, "seed", 0))
    best = -np.inf
    for start in range(0, n_samples, batch):
        best = max(best, float(np.max(score(rng, min(batch, n_samples - start), best))))
    return best


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
    in squared form, b_3^2 z^2 + (1 - z^2)(b_2^2 + (b_1^2 - b_2^2) c), with
    no division.  One square root is taken of the best score, clipped to
    max_k b_k^2.  Since sqrt(fl(b * b)) == |b| in IEEE arithmetic, the
    clip keeps the result at or below the closed form 1/2 + max_k |b_k|;
    ``include_axes`` adds the three coordinate axes, where the optima sit,
    so the result then equals the closed form to the last bit.
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    quad = ScatteringQuad.coerce(p)
    b = np.diag(map_matrix_rep(quad))[1:]
    b2 = b * b

    def scores(rng, m, best):
        u = rng.random((m, 2))
        z2 = u[:, 0] * u[:, 0]
        c = np.cos(np.pi * u[:, 1])
        # The docstring's score, evaluated in place: the same bits as the
        # expression, about 10% cheaper than its temporaries.
        c *= c
        c *= b2[0] - b2[1]
        c += b2[1]
        c *= 1.0 - z2
        z2 *= b2[2]
        c += z2
        return c

    best = math.sqrt(min(_sampled_max(scores, n_samples, seed), float(np.max(b2))))
    if include_axes:
        best = max(best, float(np.max(np.abs(b))))
    return 0.5 + best


def fidelity_lower_bound_search(
    C: ScatteringFunction, L: int, n_samples: int, seed: int = 0
) -> float:
    """Best mean gain over randomly drawn transmit pulses.

    Samples unit precoders uniformly on the complex sphere and records the
    largest top eigenvalue of A applied to their projectors; a valid lower
    bound on the gain supremum (and at most 1, since the map is unital and
    trace preserving).  The top eigenvalue comes from the T x T tap Gram
    matrix when the channel has T < L nonzero taps, as in
    alternating_fidelity_max.

    Samples are drawn in batches of at most _BATCH rows and at most
    _BLOCK_ENTRIES matrix entries (a power-of-two row count that divides
    _BATCH), so the batches hold the same samples at every L.  Every sample
    of a batch gets a trace bound on its top eigenvalue from the pulse's
    ambiguity function, weighted by the tap pairs on the tap Gram and by the
    spreading eigenvalues on the L x L map (see _ambiguity_terms), with no
    image formed.  eigvalsh on the _LEADS best-bounded samples sets the
    threshold ``max(best, their top) - _PRUNE_MARGIN``, and only the samples
    whose bound reaches it have their images formed and solved.  Neither
    changes the result: it is the float that eigvalsh on every sample would
    give.
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    L = linalg.require_int(L, "dimension", 1)
    if L != C.L:
        raise InvalidWeightsError(f"L={L} does not match scattering function L={C.L}")
    forward = _half_step_operands(C)[0]
    terms = _ambiguity_terms(C)
    rows = 1 << (max(1, _BLOCK_ENTRIES // (L * L)).bit_length() - 1)

    def top(rng, m, best):
        vecs = _complex_gaussian(rng, (m, L))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        upper, images = _bounded_images(forward, terms, vecs)
        lead = np.argpartition(upper, -min(_LEADS, upper.size))[-_LEADS:]
        best = max(best, float(np.max(np.linalg.eigvalsh(images(lead))[:, -1])))
        keep = upper >= best - _PRUNE_MARGIN
        keep[lead] = False
        if keep.any():
            best = max(best, float(np.max(np.linalg.eigvalsh(images(keep))[:, -1])))
        return best

    return min(1.0, _sampled_max(top, n_samples, seed, min(_BATCH, rows)))


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
    the L^2 weights once per line.

    For the generator ``g = (a, b)``, v is the chirp
    ``v[k a] = w^(a b k (k - n) / 2) / sqrt(n)`` on the orbit ``k < n =
    L / gcd(a, L)`` of a, zero elsewhere, its phases exact from the
    ``_layout`` table at 2L.  One step ``k - 1 -> k`` of
    ``(S_g v)[m] = w^(b m) v[m - a]`` multiplies by ``w^(a b (n + 1) / 2)``,
    and so does the wrap to k = 0, up to ``w^(a b n) = 1``, since L divides
    ``a n``.
    """
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
    return CosetBound(float(sums[line, t]), generator, coset, pair)


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

    ``value`` is the measured gain of K's coset pair (coset_bound,
    pair_gain); a W returned certifies that no unit pulse pair gains more
    than ``value + CERTIFY_TOL``.  The PPT relaxation (ppt_bound), the
    largest ``L sum_mu C(mu) r_mu`` over ``r >= 0, sum_mu r_mu = 1,
    G_s(r) >= 0``, and its dual are solved together by a Mehrotra
    predictor-corrector interior-point method in the HKM direction
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
