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


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating mean-gain maximizer."""

    max_iters: int = 500
    tol: float = 1e-12
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

    ``objective_history`` is the best restart's per-half-step objective
    sequence (nondecreasing: each half step solves its subproblem exactly);
    ``restart_values`` records every restart's final objective.
    """

    objective_history: tuple[float, ...]
    converged: bool
    best_value: float
    best_pair: tuple[np.ndarray, np.ndarray]
    restart_values: tuple[float, ...]


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
    mats, frame = _rank_one_images(operand, pulses)
    lam, u = np.linalg.eigh(mats)
    top = lam[:, -1]
    if frame is None:
        return top, u[..., -1]
    # W^T u is an eigenvector of norm sqrt(top); top >= Tr(gram)/T = 1/T.
    return top, (u[:, None, :, -1] @ frame)[:, 0] / np.sqrt(top)[:, None]


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
    the adjoint map applied to G.  The objective is therefore nondecreasing,
    but the joint problem is nonconvex, so multiple restarts (independent
    per-restart substreams of the master seed) are run in lockstep and the
    best is returned.  A restart counts as converged once its full-cycle
    objective increment drops to ``cfg.tol`` or below.

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

    # Each cycle is a transmit then a receive half-step, so the returned pair
    # always ends on a receiver matched to its transmit pulse.
    obj, receivers = _top_eigenpairs(forward, gammas)
    history = [obj]
    converged = np.zeros(cfg.restarts, dtype=bool)
    for _ in range(cfg.max_iters):
        prev = obj
        obj_t, gammas = _top_eigenpairs(adjoint, receivers)
        obj, receivers = _top_eigenpairs(forward, gammas)
        history += [obj_t, obj]
        converged |= obj - prev <= cfg.tol
        if converged.all():
            break

    finals = history[-1]
    best = int(np.argmax(finals))
    # The gain is at most 1; clip roundoff above it, as channel_fidelity does.
    return OptimizationTrace(
        objective_history=tuple(min(1.0, float(h[best])) for h in history),
        converged=bool(converged[best]),
        best_value=min(1.0, float(finals[best])),
        best_pair=(gammas[best].copy(), receivers[best].copy()),
        restart_values=tuple(min(1.0, float(v)) for v in finals),
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
