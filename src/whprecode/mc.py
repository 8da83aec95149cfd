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

# Trials per moment chunk: _RunningMoments merges each chunk's values at once.
_CHUNK = 1 << 15
# Tap draws held at once.  A chunk is drawn and reduced in sub-blocks of at
# most _TAP_DRAWS // T trials, but never fewer than two trials (see
# estimate_expectations), so memory is O(L^2 + _TAP_DRAWS) at any L.
_TAP_DRAWS = 1 << 15


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
    coefficients.  They run vectorized in sub-blocks of at most
    ``_TAP_DRAWS`` tap draws, so memory stays O(L^2 + _TAP_DRAWS) at any L
    and trial count; the result is deterministic given the seed, and the
    same to the last bit at any sub-block size.
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

    # Coupling of each tap, in the order _rayleigh_taps draws, into the
    # reference slot and into the shifted pulses occupying the other slots.
    # One shift operator per tap is built and dropped: each equals its row
    # of C.kraus_operators() bit for bit, so the products round as they
    # would against that stack, which is never held.
    mu1, mu2 = C._tap_shifts()
    shifted = [shift_operator(C.L, nu) @ gamma for nu in interferers]
    gain_coupling = np.empty(mu1.size, dtype=complex)
    interf_coupling = np.empty((mu1.size, len(interferers)), dtype=complex)
    for i, mu in enumerate(zip(mu1.tolist(), mu2.tolist())):
        S = shift_operator(C.L, mu)
        gain_coupling[i] = _inner(g, S @ gamma)
        interf_coupling[i] = [_inner(g, S @ v) for v in shifted]

    # Each chunk of trials is drawn in sub-blocks into one reused buffer.
    # Successive draws continue one stream, and a row of ``taps @ coupling``
    # rounds the same whichever rows share the call, except that a lone row
    # goes to another BLAS kernel: so a sub-block of one trial is only ever
    # a whole chunk of one, and the chunk's values keep their bits.
    # The buffer and the chunk's value arrays share one allocation: glibc's
    # malloc keeps one such block in its heap from call to call, where
    # three separate ones were trimmed after each call and faulted back in
    # on the next (about 125 page faults per L = 2 call of 10k-60k trials).
    taps_per_trial = mu1.size
    block = max(2, _TAP_DRAWS // taps_per_trial)
    split = 2 * (block + 1) * taps_per_trial
    work = np.empty(split + 2 * min(trials, _CHUNK))
    buffer = work[:split].view(complex).reshape(block + 1, taps_per_trial)
    gains, interfs = work[split:].reshape(2, -1)
    rng = np.random.default_rng(seed)
    gain_stats = _RunningMoments()
    interf_stats = _RunningMoments()
    for start in range(0, trials, _CHUNK):
        m = min(trials - start, _CHUNK)
        done = 0
        while done < m:
            n = min(block, m - done)
            if m - done - n == 1:
                n += 1
            taps = _rayleigh_taps(C, rng, out=buffer[:n])
            gains[done : done + n] = np.abs(taps @ gain_coupling) ** 2
            interfs[done : done + n] = np.sum(np.abs(taps @ interf_coupling) ** 2, axis=1)
            done += n
        gain_stats.add_chunk(gains[:m])
        interf_stats.add_chunk(interfs[:m])

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
