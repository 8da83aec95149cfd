"""Numerical optimizers and brute-force oracles.

Everything here works at general L and serves two purposes: producing
SINR-optimal receivers (a generalized eigenproblem), and independently
validating the L=2 closed form through alternating maximization, sphere
sampling in Bloch coordinates, and random-precoder lower-bound searches.
All stochastic routines derive their randomness from an explicit seed and
produce bit-identical results for identical (seed, sample count) inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bloch import ScatteringQuad, map_matrix_rep
from .errors import InvalidWeightsError
from .wssus import (
    ScatteringFunction,
    _complex_gaussian,
    _map_rank_one,
    apply_A,
    apply_interference,
    random_unit_vector,
    validate_density_operator,
)

_BATCH = 1 << 14
# The lower-bound search maps at most this many matrix entries at once.
_BLOCK_ENTRIES = 1 << 22
# Slack of the search's pruning test.  For its trace-one PSD matrices of
# size d, the eigenvalue bounds and eigvalsh's top eigenvalue are each within
# about d^2 ulp of exact (under 1e-12 at d = 64), so a matrix whose upper
# bound falls this far below a lower bound has a smaller computed top
# eigenvalue than the matrix that lower bound belongs to.
_PRUNE_MARGIN = 1e-9
# Objectives this close are a tie for the extrapolation safeguard
# (alternating_fidelity_max): near a stationary point the objective moves by
# the square of the residual, below what a computed eigenvalue resolves.
_TIE = 1e-14


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating mean-gain maximizer.

    ``max_iters`` caps the cycles (a transmit then a receive half-step) of
    the whole run, extrapolated cycles included.  ``tol`` bounds the
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
    half-step of the run, ``2 * cycles + 1`` entries, padded with its final
    value once that restart has stopped.  It is nondecreasing, up to the
    1e-14 tie width of the extrapolation safeguard: a plain half-step solves
    its subproblem exactly, and an extrapolated cycle keeps the held
    objective unless its result is at least as good.
    ``restart_values`` and ``residuals`` record every restart's final
    objective and stationarity residual; ``converged`` is true when the
    best restart's residual is at most the configured ``tol``.
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
    """Operands of ``A`` and ``A*`` for _top_eigenpairs, chosen once per call.

    ``A(v v*)`` has rank at most T, the number of nonzero taps, so with
    T < L the top eigenpair comes from a T x T Gram matrix on the tap
    frame; otherwise the L x L map from the diagonal blocks is as cheap.
    """
    if np.count_nonzero(C.weights) < C.L:
        return C.tap_frame()
    return C.diagonal_blocks()


def _rank_one_images(operand, pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Hermitian matrices with the top eigenpairs of the map applied to each ``v v*``.

    ``operand`` is a tap frame ``(rows, coef)`` or a stack of diagonal
    blocks (see _half_step_operands); ``pulses`` holds K unit pulses as rows.
    Returns the (K, d, d) hermitian stack, with its (K, T, L) tap frames on
    the tap-frame path (d = T) and None on the diagonal-block path (d = L).
    """
    if isinstance(operand, tuple):
        rows, coef = operand
        frame = pulses[:, rows] * coef  # (K, T, L): rows W_t, map(v v*) = W^T conj(W)
        return frame.conj() @ frame.swapaxes(-1, -2), frame
    return _map_rank_one(operand, pulses), None


def _top_eigenpairs(operand, pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit eigenvector of the map applied to each ``v v*``.

    Returns the (K,) top eigenvalues and (K, L) eigenvectors for the K unit
    pulses in the rows of ``pulses`` (see _rank_one_images).
    """
    return _top_of_images(*_rank_one_images(operand, pulses))


def _top_of_images(mats: np.ndarray, frame: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalues and (K, L) unit eigenvectors of _rank_one_images output."""
    lam, u = np.linalg.eigh(mats)
    top = lam[:, -1]
    if frame is None:
        return top, u[..., -1]
    # W^T u is an eigenvector of norm sqrt(top); top >= Tr(gram)/T = 1/T.
    return top, (u[:, None, :, -1] @ frame)[:, 0] / np.sqrt(top)[:, None]


def _stationarity_residuals(
    mats: np.ndarray, frame: np.ndarray | None, pulses: np.ndarray
) -> np.ndarray:
    """``||M v - (v* M v) v||`` for each unit pulse v and map image M.

    ``(mats, frame)`` holds the images M of K rank-one operands (see
    _rank_one_images); on the tap-frame path ``M v = W^T (conj(W) v)``.
    The value is zero exactly when v is an eigenvector of M.
    """
    if frame is None:
        image = np.einsum("kij,kj->ki", mats, pulses)
    else:
        image = np.einsum("ktl,kt->kl", frame, np.einsum("ktl,kl->kt", frame.conj(), pulses))
    value = np.einsum("ki,ki->k", pulses.conj(), image).real
    return np.linalg.norm(image - value[:, None] * pulses, axis=1)


def _phase_aligned(pulses: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each row of ``pulses`` times the phase that makes its product with ``ref``'s row real."""
    inner = np.einsum("ki,ki->k", ref.conj(), pulses)
    size = np.abs(inner)
    phase = np.divide(inner.conj(), size, out=np.ones_like(inner), where=size > 0.0)
    return pulses * phase[:, None]


def _extrapolated(r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Squared extrapolation (SQUAREM) of two cycles ``r0 -> r1 -> r2`` of unit pulses.

    Each pulse is first phase-aligned to the one before it.  With
    ``d1 = r1 - r0``, ``d2 = r2 - 2 r1 + r0`` and
    ``alpha = -max(1, |d1| / |d2|)``, the point is
    ``r0 - 2 alpha d1 + alpha^2 d2``, normalized (Varadhan & Roland, Scand.
    J. Stat. 35(2), 2008); ``alpha = -1`` gives r2.  It is formed divided
    by ``alpha^2``, as ``t^2 r0 + 2 t d1 + d2`` with ``t = min(1, |d2| / |d1|)``,
    which cannot overflow.  Where that vanishes (d2 = 0, d1 != 0), it is r2.
    """
    r1 = _phase_aligned(r1, r0)
    r2 = _phase_aligned(r2, r1)
    d1 = r1 - r0
    d2 = r2 - r1 - d1
    n1, n2 = np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1)
    t = np.divide(n2, n1, out=np.ones_like(n1), where=n2 < n1)[:, None]
    point = t * t * r0 + 2.0 * t * d1 + d2
    size = np.linalg.norm(point, axis=1)[:, None]
    return np.divide(point, size, out=r2, where=size > 0.0)


def _top_eigenvalue_bounds(mats: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the top eigenvalue of each matrix in a hermitian stack.

    The lower bound is the Rayleigh quotient ``y* M y / y* y`` of one power
    step ``y = M x`` from the rows x of ``start`` (0 where y is below the
    normal range).  The upper bound is ``min(m + s sqrt(d - 1), ||M||_F)``
    with ``m = tr M / d`` and ``s^2 = ||M - m I||_F^2 / d`` (Wolkowicz &
    Styan, Linear Algebra Appl. 29, 1980); both squared norms are sums of
    nonnegative terms, so s keeps a relative error of a few ulp even where
    ``tr M^2 / d - m^2`` would cancel.
    """
    d = mats.shape[-1]
    y = np.einsum("kij,kj->ki", mats, start)
    num = np.einsum("ki,kij,kj->k", y.conj(), mats, y).real
    den = np.einsum("ki,ki->k", y.conj(), y).real
    lower = np.divide(num, den, out=np.zeros_like(num), where=den >= np.finfo(float).tiny)
    diag = np.einsum("kii->ki", mats).real
    mean = diag.sum(-1) / d
    sq = mats.real**2 + mats.imag**2
    sq[:, np.arange(d), np.arange(d)] = 0.0
    off = sq.sum((-2, -1))
    dev = diag - mean[:, None]
    spread = np.sqrt((off + (dev * dev).sum(-1)) / d)
    return lower, np.fmin(mean + spread * math.sqrt(d - 1), np.sqrt(off + (diag * diag).sum(-1)))


def _pruned_top_eigenvalue(mats: np.ndarray, start: np.ndarray, best: float) -> float:
    """``max(best, largest top eigenvalue in mats)``, solving only matrices that can win.

    A matrix whose upper bound is below ``max(best, largest lower bound)``
    less _PRUNE_MARGIN cannot hold the maximum, so eigvalsh runs on the
    others, always including the one with the largest lower bound.  The
    result is the float that eigvalsh on the whole stack would give.
    """
    lower, upper = _top_eigenvalue_bounds(mats, start)
    lead = int(np.argmax(lower))
    keep = upper >= max(best, float(lower[lead])) - _PRUNE_MARGIN
    keep[lead] = True
    return max(best, float(np.max(np.linalg.eigvalsh(mats[keep])[:, -1])))


def alternating_fidelity_max(
    C: ScatteringFunction, L: int, cfg: OptimizerConfig
) -> OptimizationTrace:
    """Maximize the mean gain Tr(A(Gamma) G) by exact alternating eigensteps.

    Each half step globally solves its subproblem: the receive pulse is the
    top eigenvector of A(Gamma), the transmit pulse the top eigenvector of
    the adjoint map applied to G (a higher-order power method; De Lathauwer,
    De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000).  The
    joint problem is nonconvex, so several restarts (independent per-restart
    substreams of the master seed) run in lockstep and the best is returned.

    A cycle is a transmit then a receive half-step, so every pair ends on a
    receiver matched to its transmit pulse.  Cycles come in threes: two
    plain cycles ``r0 -> r1 -> r2`` of the receive pulse, then one cycle
    from their squared extrapolation (see _extrapolated), whose result is
    kept only if its objective is at least that of r2.  Objectives within
    _TIE of each other are a tie, which the smaller residual wins, so that
    roundoff cannot steer the choice.  A restart stops, converged, once its
    stationarity residual ``||A*(g g*) gamma - F gamma||`` (F the
    objective) is at most ``cfg.tol``; stopped restarts leave the batch.
    The run ends when every restart has stopped or after ``cfg.max_iters``
    cycles.

    With T nonzero taps, each half step is a T x T Gram eigenproblem when
    T < L and an L x L one otherwise; the path is fixed once per call and
    changes only the cost of a step, not the iteration.
    """
    L = linalg.require_int(L, "dimension", 1)
    if L != C.L:
        raise InvalidWeightsError(f"L={L} does not match scattering function L={C.L}")
    forward, adjoint = _half_step_operands(C)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    gammas = np.stack(
        [random_unit_vector(np.random.default_rng(s), L) for s in children]
    )

    # Per restart: the pair, its objective and its residual.  The adjoint
    # images of the live receivers feed both the residual and the next
    # transmit half-step.
    values, receivers = _top_eigenpairs(forward, gammas)
    mats, frame = _rank_one_images(adjoint, receivers)
    residuals = _stationarity_residuals(mats, frame, gammas)
    history = [values.copy()]
    anchors = np.empty((2, *receivers.shape), dtype=complex)
    live = np.arange(cfg.restarts)
    cycles = 0
    while True:
        going = residuals[live] > cfg.tol
        if not going.all():
            live, mats = live[going], mats[going]
            frame = None if frame is None else frame[going]
        if not live.size or cycles == cfg.max_iters:
            break
        phase = cycles % 3
        cycles += 1
        if phase < 2:
            anchors[phase, live] = receivers[live]
            images = mats, frame
        else:
            images = _rank_one_images(adjoint, _extrapolated(*anchors[:, live], receivers[live]))
        top_t, new_gammas = _top_of_images(*images)
        top, new_receivers = _top_eigenpairs(forward, new_gammas)
        new_images = _rank_one_images(adjoint, new_receivers)
        new_residuals = _stationarity_residuals(*new_images, new_gammas)
        # The transmit half-step's entry: an extrapolated cycle holds the
        # objective of r2 until its result is kept.
        history.append(values.copy())
        if phase < 2:
            history[-1][live] = top_t
            moved = slice(None)
            mats, frame = new_images
        else:
            held = values[live]
            tied = (top >= held - _TIE) & (new_residuals <= residuals[live])
            moved = (top > held + _TIE) | tied
            mats[moved] = new_images[0][moved]
            if frame is not None:
                frame[moved] = new_images[1][moved]
        rows = live[moved]
        gammas[rows], receivers[rows] = new_gammas[moved], new_receivers[moved]
        values[rows], residuals[rows] = top[moved], new_residuals[moved]
        history.append(values.copy())

    best = int(np.argmax(values))
    # The gain is at most 1; clip roundoff above it, as channel_fidelity does.
    return OptimizationTrace(
        objective_history=tuple(min(1.0, float(h[best])) for h in history),
        converged=bool(residuals[best] <= cfg.tol),
        best_value=min(1.0, float(values[best])),
        best_pair=(gammas[best].copy(), receivers[best].copy()),
        restart_values=tuple(min(1.0, float(v)) for v in values),
        residuals=tuple(float(r) for r in residuals),
    )


def _sampled_max(score, n_samples: int, seed: int) -> float:
    """Largest ``score(rng, m, best)`` entry over n_samples draws, taken in batches.

    One generator seeded with ``seed`` feeds every batch of at most _BATCH
    draws, so the result depends only on (seed, n_samples).  ``best`` is
    the largest entry of the earlier batches (-inf before the first).
    """
    rng = np.random.default_rng(linalg.require_int(seed, "seed", 0))
    best = -np.inf
    for start in range(0, n_samples, _BATCH):
        best = max(best, float(np.max(score(rng, min(_BATCH, n_samples - start), best))))
    return best


def brute_force_bloch_oracle(
    p, n_samples: int, include_axes: bool = True, seed: int = 0
) -> float:
    """Sampled maximum of the L=2 mean-gain objective in Bloch coordinates.

    Draws transmit directions uniformly on the sphere (normalized 3-d
    Gaussians); for each, the receive direction is maximized analytically
    (Cauchy-Schwarz: align with the diagonally scaled transmit direction),
    giving 1/2 + |(b_1 x_1, b_2 x_2, b_3 x_3)|.  The result never exceeds
    the closed form and equals it when ``include_axes`` injects the three
    coordinate axes, where the optima sit.
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    quad = ScatteringQuad.coerce(p)
    b = np.diag(map_matrix_rep(quad))[1:]

    def gains(rng, m, best):
        x = rng.standard_normal((m, 3))
        norms = np.linalg.norm(x, axis=1)
        norms[norms == 0.0] = 1.0
        x /= norms[:, None]
        return np.sqrt((x * x) @ (b * b))

    best = _sampled_max(gains, n_samples, seed)
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

    Each batch is mapped in blocks of at most _BLOCK_ENTRIES matrix entries
    (a power-of-two row count), and eigvalsh runs only on the matrices whose
    trace upper bound can still reach the best Rayleigh lower bound (see
    _pruned_top_eigenvalue).  Neither changes the result: it is the float
    that eigvalsh on every sample would give.
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    L = linalg.require_int(L, "dimension", 1)
    if L != C.L:
        raise InvalidWeightsError(f"L={L} does not match scattering function L={C.L}")
    forward = _half_step_operands(C)[0]
    rows = 1 << (max(1, _BLOCK_ENTRIES // (L * L)).bit_length() - 1)

    def top(rng, m, best):
        vecs = _complex_gaussian(rng, (m, L))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        for start in range(0, m, rows):
            block = vecs[start:start + rows]
            mats, frame = _rank_one_images(forward, block)
            # The power step starts from v, or from conj(W) v on the tap Gram.
            first = block if frame is None else np.einsum("ktl,kl->kt", frame.conj(), block)
            best = _pruned_top_eigenvalue(mats, first, best)
        return best

    return min(1.0, _sampled_max(top, n_samples, seed))
