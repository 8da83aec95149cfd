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


def _top_eigenpairs(operand, pulses: np.ndarray, eigenvectors: bool = True):
    """Top eigenvalue, and unit eigenvector, of the map applied to each ``v v*``.

    ``operand`` is a tap frame ``(rows, coef)`` or a stack of diagonal
    blocks (see _half_step_operands); ``pulses`` holds K unit pulses as rows.
    Returns the (K,) top eigenvalues, with the (K, L) eigenvectors unless
    ``eigenvectors`` is false.
    """
    if isinstance(operand, tuple):
        rows, coef = operand
        frame = pulses[:, rows] * coef  # (K, T, L): rows W_t, map(v v*) = W^T conj(W)
        gram = frame.conj() @ frame.swapaxes(-1, -2)
        if not eigenvectors:
            return np.linalg.eigvalsh(gram)[:, -1]
        lam, u = np.linalg.eigh(gram)
        top = lam[:, -1]
        # W^T u is an eigenvector of norm sqrt(top); top >= Tr(gram)/T = 1/T.
        vec = (u[:, None, :, -1] @ frame)[:, 0] / np.sqrt(top)[:, None]
        return top, vec
    mapped = _map_rank_one(operand, pulses)
    if not eigenvectors:
        return np.linalg.eigvalsh(mapped)[:, -1]
    lam, v = np.linalg.eigh(mapped)
    return lam[:, -1], v[..., -1]


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
    """Largest ``score(rng, m)`` entry over n_samples draws, taken in batches.

    One generator seeded with ``seed`` feeds every batch of at most _BATCH
    draws, so the result depends only on (seed, n_samples).
    """
    rng = np.random.default_rng(linalg.require_int(seed, "seed", 0))
    best = -np.inf
    for start in range(0, n_samples, _BATCH):
        best = max(best, float(np.max(score(rng, min(_BATCH, n_samples - start)))))
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

    def gains(rng, m):
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
    """
    n_samples = linalg.require_int(n_samples, "n_samples", 1)
    L = linalg.require_int(L, "dimension", 1)
    if L != C.L:
        raise InvalidWeightsError(f"L={L} does not match scattering function L={C.L}")
    forward = _half_step_operands(C)[0]

    def gains(rng, m):
        vecs = _complex_gaussian(rng, (m, L))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        return _top_eigenpairs(forward, vecs, eigenvectors=False)

    return min(1.0, _sampled_max(gains, n_samples, seed))
