"""Second-order channel statistics and the operator maps they induce.

A wide-sense stationary uncorrelated-scattering channel on C^L is a random
superposition ``H = sum_mu Sigma(mu) S_mu`` of cyclic time-frequency shifts
whose coefficients are uncorrelated across shifts with mean powers given by
a normalized scattering function ``C(mu)``.  Averaging the channel's action
on rank-one transmit projectors yields the completely positive map

    A(X) = sum_mu C(mu) S_mu X S_mu*,

which is unital, trace preserving, hermiticity preserving and spectrum
flattening (its output is majorized by its input).  This module holds the
scattering-function container, the map ``A`` and its adjoint, the averaged
interference map for a multiplexing scheme, the mean gain ("channel
fidelity") and SINR functionals, the Rayleigh tap sampler, and a property
checker for the map's structural identities.

Each of these maps, ``X -> sum_mu w(mu) S_mu X S_mu*`` for a weight grid
``w``, multiplies every cyclic diagonal ``x_d[n] = X[(n+d) % L, n]`` by a
circulant block, so one kernel on the diagonals serves them all.  On a
rank-one operand ``v v*`` the map ``A`` is also a sum of T outer products
``sqrt(C(mu)) S_mu v``, one per nonzero tap; ``tap_frame()`` indexes them.
The nonzero taps are listed once, row-major, by ``_tap_shifts()``; the tap
frame, the Kraus stack ``kraus_operators()``, the Rayleigh sampler and the
Monte Carlo couplings all follow that order, and all of them are read off
the exact tables of ``heisenberg._layout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidDensityOperatorError,
    InvalidSchemeError,
    InvalidWeightsError,
    WHPrecodeError,
)
from .heisenberg import _layout, _reduced_shift

WEIGHT_SUM_TOL = 1e-9
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ScatteringFunction:
    """Nonnegative mean powers C(mu) on the L x L grid of shift indices.

    ``weights[mu1, mu2]`` is the power the channel scatters onto the shift
    ``S_(mu1, mu2)``.  The total is one: there is no overall path loss, so
    the statistics describe only how power spreads over delay and Doppler.

    Attributes:
        L: dimension of the signal space.
        weights: (L, L) array of nonnegative reals summing to 1 within 1e-9.
    """

    L: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", linalg.require_int(self.L, "dimension", 1))
        w = linalg.require_array(self.weights, "weights", float, finite=False)
        if not isinstance(self.weights, (list, tuple)):  # w may share the caller's memory
            w = w.copy()
        if w.shape != (self.L, self.L):
            raise InvalidWeightsError(
                f"weights must have shape ({self.L}, {self.L}), got {w.shape}"
            )
        # Written so that NaN fails both checks.
        if not w.min() >= 0.0:
            raise InvalidWeightsError("weights must be nonnegative numbers")
        total = float(w.sum())
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise InvalidWeightsError(f"weights must sum to 1 within 1e-9, got {total!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_quad(cls, p0: float, p1: float, p2: float, p3: float) -> "ScatteringFunction":
        """L=2 scattering function from the four per-shift powers.

        The arguments follow Pauli order: p0 at (0,0), p1 at (1,0),
        p2 at (1,1), p3 at (0,1).  Four floats skip linalg.require_array's
        walk of a nested list; anything else meets it, and its messages.
        """
        quad = (p0, p3, p1, p2)
        if all(isinstance(p, (float, np.floating)) for p in quad):
            return cls(2, np.array(quad, dtype=float).reshape(2, 2))
        return cls(2, [[p0, p3], [p1, p2]])

    @classmethod
    def uniform(cls, L: int) -> "ScatteringFunction":
        """Maximally spread statistics: equal power on all L*L shifts."""
        L = linalg.require_int(L, "dimension", 1)
        return cls(L, np.full((L, L), 1.0 / (L * L)))

    @classmethod
    def concentrated(cls, L: int, mu: tuple[int, int]) -> "ScatteringFunction":
        """All power on the single shift mu."""
        L = linalg.require_int(L, "dimension", 1)
        w = np.zeros((L, L))
        w[_reduced_shift(mu, L)] = 1.0
        return cls(L, w)

    def _tap_shifts(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (mu1, mu2) of the nonzero taps in row-major order."""
        return np.nonzero(self.weights > 0.0)

    def _cached(self, name: str, build):
        """The tuple ``build()`` made on first use, its arrays (nested one deep) read-only."""
        cached = self.__dict__.get(name)
        if cached is None:
            cached = build()
            for entry in cached:
                for table in entry if isinstance(entry, tuple) else (entry,):
                    if isinstance(table, np.ndarray):
                        table.setflags(write=False)
            object.__setattr__(self, name, cached)
        return cached

    def diagonal_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-diagonal blocks of the map ``A`` and of its adjoint, each (L, L, L)."""

        def build():
            blocks = _circulant_blocks(self.weights)
            return blocks, blocks.conj().swapaxes(-1, -2)

        return self._cached("_blocks", build)

    def tap_frame(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Tap frames of ``A`` and of its adjoint, each ``(rows, coef)`` of shape (T, L).

        Over the T nonzero taps, ``W = v[rows] * coef`` stacks the vectors
        ``sqrt(C(mu)) S_mu v`` (first frame) or ``sqrt(C(mu)) S_mu* v``
        (second), so the map applied to ``v v*`` is ``W^T conj(W)``.
        """

        def build():
            rows, lags, phases = _layout(self.L)
            mu1, mu2 = self._tap_shifts()
            amp = np.sqrt(self.weights[mu1, mu2])[:, None]
            # (S_mu v)[m] = w^(mu2 m) v[m - mu1], (S_mu* v)[j] = w^-(mu2 (j + mu1)) v[j + mu1].
            back = rows[mu1]
            adjoint = (back, amp * phases[mu2[:, None], back].conj())
            return (lags[:, mu1].T, amp * phases[mu2]), adjoint

        return self._cached("_frame", build)

    def kraus_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The Kraus stack of the tap list: read-only weights (T,) and shift operators (T, L, L).

        One entry per nonzero weight in the row-major order of
        ``_tap_shifts()``, each ``S_t`` equal to ``shift_operator(L, mu_t)``
        bit for bit, so that ``A(X) = sum_t w[t] S_t X S_t*``.  It holds
        T L^2 entries, so no library path builds it: the Monte Carlo builds
        one shift operator at a time instead.
        """

        def build():
            mu1, mu2 = self._tap_shifts()
            _, lags, phases = _layout(self.L)
            ops = np.zeros((mu1.size, self.L, self.L), dtype=complex)
            ops[np.arange(mu1.size)[:, None], np.arange(self.L), lags[:, mu1].T] = phases[mu2]
            return self.weights[mu1, mu2], ops

        return self._cached("_kraus", build)


@dataclass(frozen=True)
class CpPropertyReport:
    """Worst observed violations of the averaged map's structural identities.

    All violation fields are max-abs deviations over the sampled density
    operators; ``majorization_margin`` is the smallest partial-sum gap
    between the sorted spectra of input and output (nonnegative up to
    roundoff when the output is majorized by the input).
    """

    samples: int
    seed: int
    unital_violation: float
    trace_violation: float
    hermiticity_violation: float
    majorization_margin: float


def coerce_scheme_shifts(scheme, L: int) -> tuple[tuple[int, int], ...]:
    """Normalize a scheme (or iterable of shift pairs) to distinct shifts mod L.

    The origin (0, 0) must be present: it is the slot whose gain is being
    optimized, and interference is summed over the remaining slots.
    """
    scheme_L = getattr(scheme, "L", None)
    if scheme_L is not None and scheme_L != L:
        raise DimensionMismatchError(f"scheme dimension {scheme_L} does not match L={L}")
    shifts = getattr(scheme, "shifts", scheme)
    if not np.iterable(shifts):
        raise InvalidSchemeError(f"scheme must be shift pairs, not {type(shifts).__name__}")
    reduced = tuple(_reduced_shift(mu, L) for mu in shifts)
    if len(set(reduced)) != len(reduced):
        raise InvalidSchemeError(f"scheme shifts must be distinct mod {L}: {reduced}")
    if (0, 0) not in reduced:
        raise InvalidSchemeError("scheme must contain the origin shift (0, 0)")
    return reduced


def validate_density_operator(M, L: int | None = None) -> np.ndarray:
    """Check trace one, hermiticity and positive semidefiniteness of M."""
    try:
        A = linalg.require_hermitian(M, name="density operator")
    except WHPrecodeError as exc:
        raise InvalidDensityOperatorError(str(exc)) from None
    if L is not None and A.shape != (L, L):
        raise InvalidDensityOperatorError(f"density operator shape {A.shape}, expected L={L}")
    trace = complex(np.trace(A)).real
    # Written so that NaN fails each check.
    if not abs(trace - 1.0) <= DENSITY_TRACE_TOL:
        raise InvalidDensityOperatorError(f"trace must be 1 within 1e-10, got {trace!r}")
    if not np.linalg.eigvalsh(A)[0] >= -DENSITY_EIG_TOL:
        raise InvalidDensityOperatorError("density operator must be positive semidefinite")
    return A


def _circulant_blocks(w: np.ndarray) -> np.ndarray:
    """Blocks of  X -> sum_mu w(mu) S_mu X S_mu*  on the cyclic diagonals of X.

    ``B[d][n, j] = c[(n - j) mod L, d]`` with
    ``c[mu1, d] = sum_mu2 w(mu1, mu2) exp(2*pi*i*mu2*d/L)``.
    """
    _, lags, phases = _layout(w.shape[0])
    return np.ascontiguousarray((w @ phases)[lags].transpose(2, 0, 1))


def _from_diagonals(diags: np.ndarray) -> np.ndarray:
    """The (K, L, L) stack ``X_k[(n + d) % L, n] = diags[d, n, k]``: a scatter, no arithmetic."""
    L = diags.shape[0]
    out = np.empty(diags.shape, dtype=complex)
    out[_layout(L)[0], np.arange(L)] = diags
    return out.transpose(2, 0, 1)


def _map_operand(blocks: np.ndarray, X) -> np.ndarray:
    """The map with these blocks applied to one (L, L) operand."""
    L = blocks.shape[0]
    A = linalg.require_square(X, "operand")
    if A.shape != (L, L):
        raise DimensionMismatchError(f"operand shape {A.shape} does not match L={L}")
    diags = A[_layout(L)[0], np.arange(L)]
    return _from_diagonals(blocks @ diags[..., None])[0]


def _map_rank_one(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The map applied to the projectors v v* of the rows of ``vectors``.

    The diagonals come straight from the vectors, so the (R, L, L) stack of
    projectors is never formed.  Each image has the same bits whichever
    rows share the call: BLAS takes the rows in panels and rounds a ragged
    last panel in another kernel (OpenBLAS on x86-64: panels of 4), so the
    rows are padded with zeros to a multiple of 8.  So the first objective
    of the optimizer's restart 0, one row of a wave, is the value of
    optimize.structured_lower_bound, one row of its stack, bit for bit.
    """
    R, L = vectors.shape
    vt = np.zeros((L, R + -R % 8), dtype=complex)
    vt[:, :R] = vectors.T
    diags = vt[_layout(L)[0]]  # diags[d, n, k] = v_k[(n + d) % L] conj(v_k[n])
    diags *= vt.conj()
    diags = blocks @ diags  # the rank-one diagonals are freed before the scatter
    return _from_diagonals(diags[..., :R])


def apply_A(C: ScatteringFunction, X) -> np.ndarray:
    """Averaged channel action  sum_mu C(mu) S_mu X S_mu*.

    Hermitian inputs give hermitian outputs and the trace is preserved;
    applied to a transmit projector this is the mean received operator
    before equalization.
    """
    return _map_operand(C.diagonal_blocks()[0], X)


def spreading_eigenvalues(C: ScatteringFunction) -> np.ndarray:
    """The eigenvalues of ``A`` on the shift basis: ``A(S_nu) = lambda[nu] S_nu``.

    ``S_mu S_nu S_mu* = w^(mu2 nu1 - mu1 nu2) S_nu`` with ``w = exp(2 pi i / L)``,
    so ``lambda[nu1, nu2] = sum_mu C(mu) w^(mu2 nu1 - mu1 nu2)``, the
    symplectic Fourier transform of C: two L x L products with the
    ``_layout`` phase table.  ``lambda[0, 0]`` is the total weight, 1, and
    at L = 2 the other three are twice the Pauli diagonal of
    ``bloch.map_matrix_rep``.  Read-only, cached on C.
    """

    def build():
        phases = _layout(C.L)[2]
        return (phases @ C.weights.T @ phases.conj(),)

    return C._cached("_spreading", build)[0]


def apply_adjoint_A(C: ScatteringFunction, Y) -> np.ndarray:
    """Adjoint map  sum_mu C(mu) S_mu* Y S_mu.

    Satisfies the pairing Tr(A(X) Y) = Tr(X A*(Y)), which turns the
    receiver-side view of the mean gain into a transmitter-side one.
    """
    return _map_operand(C.diagonal_blocks()[1], Y)


def apply_interference(C: ScatteringFunction, X, scheme) -> np.ndarray:
    """Averaged interference operator  sum_{mu in scheme, mu != 0} S_mu A(X) S_mu*.

    Each occupied slot of the multiplexing scheme other than the origin
    contributes a shifted copy of the averaged channel output.  Since
    ``S_nu S_mu`` is ``S_(nu+mu)`` up to a phase, the sum is itself an
    averaged map, with the scattering function rolled by each slot.
    """
    lags = _layout(C.L)[1]
    grid = np.zeros((C.L, C.L))
    for nu1, nu2 in coerce_scheme_shifts(scheme, C.L):
        if (nu1, nu2) != (0, 0):
            grid += C.weights[lags[:, nu1]][:, lags[:, nu2]]  # C(mu - nu)
    return _map_operand(_circulant_blocks(grid), X)


def channel_fidelity(C: ScatteringFunction, gamma_proj, g_proj) -> float:
    """Mean channel gain Tr(A(Gamma) G) for transmit/receive operators in M1.

    For rank-one Gamma = gamma gamma* and G = g g* this equals
    ``sum_mu C(mu) |<g, S_mu gamma>|^2``, a value in [0, 1]; the result is
    clipped to that interval against roundoff.
    """
    gamma_op = validate_density_operator(gamma_proj, C.L)
    g_op = validate_density_operator(g_proj, C.L)
    value = complex(np.trace(apply_A(C, gamma_op) @ g_op)).real
    return float(min(1.0, max(0.0, value)))


def sinr(C: ScatteringFunction, gamma_proj, g_proj, scheme, sigma2: float) -> float:
    """Long-term SINR  Tr(A(Gamma) G) / (sigma2 + Tr(C_scheme(Gamma) G)).

    Noise enters as a fixed power ``sigma2 >= 0``.  When the denominator is
    zero (noiseless transmission with no averaged interference) the value
    is reported as ``math.inf`` rather than raising: that case legitimately
    arises for a single noiseless stream.
    """
    sigma2 = linalg.require_real(sigma2, "noise power", 0.0)
    gamma_op = validate_density_operator(gamma_proj, C.L)
    g_op = validate_density_operator(g_proj, C.L)
    gain = complex(np.trace(apply_A(C, gamma_op) @ g_op)).real
    return _sinr_ratio(gain, sigma2, _interference_level(C, gamma_op, g_op, scheme))


def _interference_level(C: ScatteringFunction, gamma_op, g_op, scheme) -> float:
    """Averaged interference Tr(C_scheme(Gamma) G) of validated operators."""
    return complex(np.trace(apply_interference(C, gamma_op, scheme) @ g_op)).real


def _sinr_ratio(gain: float, sigma2: float, interference: float) -> float:
    """gain / (sigma2 + interference), ``math.inf`` when the denominator is zero."""
    denom = sigma2 + interference
    return math.inf if denom <= 0.0 else float(gain / denom)


def _complex_gaussian(
    rng: np.random.Generator, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Array of x + iy with x, y independent standard normals: the one complex draw.

    A writable complex view of one ``(*shape, 2)`` float draw, pairs read as
    (x, y), so no complex temporary is built and callers may scale it in
    place.  Its bits equal the arithmetic form ``z[..., 0] + 1j * z[..., 1]``,
    whose added zero parts are exact.  Given ``out``, a C-contiguous complex
    array, the draw fills it in place instead, and ``shape`` is not read:
    its float view takes the pairs in the same order, so successive draws
    into one buffer continue the stream that a single larger draw would.
    """
    if out is None:
        return rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    rng.standard_normal(out=out.view(float))
    return out


def _rayleigh_taps(
    C: ScatteringFunction, rng: np.random.Generator, shape=(), out: np.ndarray | None = None
) -> np.ndarray:
    """Rayleigh taps  sqrt(C(mu)/2) (x + iy)  over the tap list ``C._tap_shifts()``, last axis.

    Each tap is circularly symmetric complex Gaussian with E|tap|^2 = C(mu),
    independent of the others; zero-power shifts get no tap at all.  The
    draw is deterministic given the generator's state.  Scaling the draw in
    place runs the same complex multiply as the product
    ``(x + iy) * sqrt(C(mu)/2)``, so the taps equal it bit for bit, a zero
    product's sign included.  Given ``out``, a C-contiguous complex
    ``(*shape, T)`` buffer, the taps are drawn into it (see
    _complex_gaussian), so a caller that draws in blocks holds one buffer;
    the scales are cached on C for such a caller's repeated draws.
    """
    scale = C._cached("_rayleigh", lambda: (np.sqrt(C.weights[C._tap_shifts()] / 2.0),))[0]
    taps = _complex_gaussian(rng, (*shape, scale.size), out)
    taps *= scale
    return taps


def random_unit_vector(rng: np.random.Generator, L: int) -> np.ndarray:
    """Unit vector uniform on the complex sphere in C^L."""
    v = _complex_gaussian(rng, (L,))
    return v / np.linalg.norm(v)


def random_density_operator(rng: np.random.Generator, L: int) -> np.ndarray:
    """Random trace-one positive semidefinite matrix (normalized Wishart)."""
    G = _complex_gaussian(rng, (L, L))
    W = G @ G.conj().T
    W = (W + W.conj().T) / 2.0  # BLAS products are not bitwise symmetric
    return W / np.trace(W).real


def verify_cp_properties(C: ScatteringFunction, samples: int, seed: int = 0) -> CpPropertyReport:
    """Measure the map's unitality, trace/hermiticity preservation and flattening.

    Applies A to ``samples`` random density operators and records the worst
    deviation for each identity.  A correct implementation keeps the three
    violation fields at roundoff level and the majorization margin above
    -1e-10.
    """
    samples = linalg.require_int(samples, "samples", 1)
    seed = linalg.require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    eye = np.eye(C.L, dtype=complex)
    unital = float(np.max(np.abs(apply_A(C, eye) - eye)))
    trace_violation = 0.0
    herm_violation = 0.0
    margin = math.inf
    for _ in range(samples):
        X = random_density_operator(rng, C.L)
        AX = apply_A(C, X)
        trace_violation = max(
            trace_violation, abs(complex(np.trace(AX) - np.trace(X)).real)
        )
        herm_violation = max(herm_violation, float(np.max(np.abs(AX - AX.conj().T))))
        eigs_in = np.sort(np.linalg.eigvalsh(X))[::-1]
        eigs_out = np.sort(np.linalg.eigvalsh((AX + AX.conj().T) / 2.0))[::-1]
        gaps = np.cumsum(eigs_in) - np.cumsum(eigs_out)
        margin = min(margin, float(np.min(gaps)))
    return CpPropertyReport(
        samples=samples,
        seed=seed,
        unital_violation=unital,
        trace_violation=trace_violation,
        hermiticity_violation=herm_violation,
        majorization_margin=margin,
    )
