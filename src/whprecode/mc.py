"""Monte Carlo verification of the averaged gain and interference formulas.

Samples channel realizations, measures the per-trial gain ``|<g, H gamma>|^2``
and the interference leaking from the other occupied slots, and compares the
sample means against the analytic trace expressions.  Noise is never sampled:
the SINR denominator uses the configured power directly, which matches the
long-term measure being estimated and keeps the variance down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bloch import ScatteringQuad, solve_fidelity
from .errors import DimensionMismatchError
from .heisenberg import shift_operator
from .wssus import (
    ScatteringFunction,
    _interference_level,
    _rayleigh_taps,
    _sinr_ratio,
    channel_fidelity,
    coerce_scheme_shifts,
)

_CHUNK = 1 << 15


@dataclass(frozen=True)
class McReport:
    """Sampled vs analytic link statistics for one pulse pair and scheme."""

    trials: int
    seed: int
    sigma2: float
    mean_gain: float
    mean_interf: float
    stderr_gain: float
    stderr_interf: float
    analytic_gain: float
    analytic_interf: float
    sinr_empirical: float
    sinr_analytic: float


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the evenly-spread-scattering sweep."""

    p0: float
    fidelity: float
    mc_gain: float
    stderr: float


class _RunningMoments:
    """Single-pass mean/variance accumulator merged chunk by chunk."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_chunk(self, values: np.ndarray) -> None:
        n = values.size
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.sum((values - chunk_mean) ** 2))
        delta = chunk_mean - self.mean
        total = self.count + n
        self.mean += delta * n / total
        self.m2 += chunk_m2 + delta * delta * self.count * n / total
        self.count = total

    def stderr(self) -> float:
        return math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _inner(a, b) -> complex:
    # Plain left-to-right complex arithmetic: BLAS dot kernels may use FMA,
    # which breaks the exact cancellation that orthogonal pulses rely on
    # (zero coupling must be exactly zero, so silent slots stay silent).
    return sum((complex(x).conjugate() * complex(y) for x, y in zip(a, b)), 0j)


def estimate_expectations(
    C: ScatteringFunction,
    gamma,
    g,
    scheme,
    sigma2: float,
    trials: int,
    seed: int = 0,
) -> McReport:
    """Estimate mean gain and interference over sampled channel realizations.

    Per trial the channel is ``H = sum_mu Sigma(mu) S_mu`` with independent
    zero-mean taps of power C(mu); the gain is ``|<g, H gamma>|^2`` and the
    interference sums ``|<g, H S_nu gamma>|^2`` over the scheme's nonzero
    shifts nu.  Because H enters only through fixed inner products, the
    trials reduce to matrix-vector products against precomputed coupling
    coefficients and run vectorized in chunks; the result is deterministic
    given the seed.
    """
    trials = linalg.require_int(trials, "trials", 2)
    seed = linalg.require_int(seed, "seed", 0)
    sigma2 = linalg.require_real(sigma2, "noise power", 0.0)
    gamma = linalg.require_unit_vector(gamma, "gamma")
    g = linalg.require_unit_vector(g, "g")
    for name, v in (("gamma", gamma), ("g", g)):
        if v.shape != (C.L,):
            raise DimensionMismatchError(f"{name} must be a length-{C.L} vector")
    shifts = coerce_scheme_shifts(scheme, C.L)
    interferers = [mu for mu in shifts if mu != (0, 0)]

    ops = C.kraus_operators()[1]
    # Coupling of each tap, in the order _rayleigh_taps draws, into the
    # reference slot and into the shifted pulses occupying the other slots.
    gain_coupling = np.array([_inner(g, S @ gamma) for S in ops])
    interf_coupling = np.empty((len(ops), len(interferers)), dtype=complex)
    for j, nu in enumerate(interferers):
        shifted = shift_operator(C.L, nu) @ gamma
        for i, S in enumerate(ops):
            interf_coupling[i, j] = _inner(g, S @ shifted)

    rng = np.random.default_rng(seed)
    gain_stats = _RunningMoments()
    interf_stats = _RunningMoments()
    remaining = trials
    while remaining > 0:
        m = min(remaining, _CHUNK)
        taps = _rayleigh_taps(C, rng, (m,))
        gain_stats.add_chunk(np.abs(taps @ gain_coupling) ** 2)
        interf_stats.add_chunk(np.sum(np.abs(taps @ interf_coupling) ** 2, axis=1))
        remaining -= m

    gamma_op = linalg.rank_one_projector(gamma / np.linalg.norm(gamma))
    g_op = linalg.rank_one_projector(g / np.linalg.norm(g))
    analytic_gain = channel_fidelity(C, gamma_op, g_op)
    analytic_interf = _interference_level(C, gamma_op, g_op, shifts)
    return McReport(
        trials=trials,
        seed=seed,
        sigma2=sigma2,
        mean_gain=gain_stats.mean,
        mean_interf=interf_stats.mean,
        stderr_gain=gain_stats.stderr(),
        stderr_interf=interf_stats.stderr(),
        analytic_gain=analytic_gain,
        analytic_interf=analytic_interf,
        sinr_empirical=_sinr_ratio(gain_stats.mean, sigma2, interf_stats.mean),
        sinr_analytic=_sinr_ratio(analytic_gain, sigma2, analytic_interf),
    )


def sweep_p0(grid, trials: int, seed: int = 0) -> list[SweepRow]:
    """Sweep the evenly-spread family: origin power p0, remainder split 3 ways.

    For each grid value the closed form is solved and the resulting pulse
    pair's mean gain is re-estimated by Monte Carlo; the analytic column
    reproduces 1/2 + (2/3)|p0 - 1/4|.  Per-row seeds derive from the master
    seed so rows are independent and the table is reproducible.
    """
    seed = linalg.require_int(seed, "seed", 0)
    rows = []
    for i, p0 in enumerate(linalg.require_array(grid, "grid", float).reshape(-1)):
        rest = (1.0 - p0) / 3.0
        quad = ScatteringQuad(p0, rest, rest, rest)
        solution = solve_fidelity(quad)
        C = quad.to_scattering_function()
        row_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        report = estimate_expectations(
            C,
            solution.precoder,
            solution.equalizer,
            ((0, 0),),
            sigma2=0.0,
            trials=trials,
            seed=row_seed,
        )
        rows.append(
            SweepRow(
                p0=float(p0),
                fidelity=solution.fidelity,
                mc_gain=report.mean_gain,
                stderr=report.stderr_gain,
            )
        )
    return rows
