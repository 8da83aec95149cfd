"""Closed-form pulse design for the two-dimensional dispersive channel.

At L=2 every hermitian operator has real coordinates in the Pauli basis,
X = (1/2) sum_i x_i sigma_i, and the rank-one transmit/receive projectors
are exactly the vectors with x_0 = 1 and a unit 3-vector part (the Bloch
sphere).  In these coordinates the averaged channel map is diagonal,

    a = diag(1/2, p0+p1-1/2, p0+p2-1/2, p0+p3-1/2),

where p_i is the power scattered onto the shift aliased to sigma_i.  The
mean-gain maximization over precoder/equalizer pairs therefore reduces to
picking the diagonal entry of largest magnitude:

    F = (1/2) * (1 + max_k |2(p0 + p_k) - 1|),

attained on the corresponding coordinate axis, with the receive axis
flipped when that entry is negative.  This module implements the
parameterization, the diagonal representation, the closed-form solver, the
optimal pulse constructions and the qualitative channel classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidWeightsError
from .heisenberg import pauli
from .linalg import require_hermitian
from .wssus import ScatteringFunction

BLOCH_TOL = 1e-10
TIE_TOL = 1e-12

# Unit vectors whose projectors are (sigma_0 +- sigma_n)/2, n = 1..3.
_AXIS_PLUS = (
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 0.0], dtype=complex),
)
_AXIS_MINUS = (
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([0.0, 1.0], dtype=complex),
)
# Sign convention of the reference pulse table: the time-localized pulse
# for axis 3 is the "-" projector (0, 1), the other two are "+".
_TABLE_SIGNS = (+1, +1, -1)


class ChannelClass(enum.Enum):
    """Qualitative regimes of a four-weight scattering profile."""

    NON_DISPERSIVE = "non_dispersive"
    SINGLE_DISPERSIVE = "single_dispersive"
    COMPLETELY_OVERSPREAD = "completely_overspread"
    UNDERSPREAD = "underspread"
    GENERIC = "generic"


@dataclass(frozen=True)
class ScatteringQuad:
    """The four shift powers of an L=2 channel, in Pauli order.

    p0 weights the identity, p1 the time shift, p2 the joint time-frequency
    shift, p3 the frequency shift.  Nonnegative, total one within 1e-9:
    validated as the L=2 scattering function they define.
    """

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_function", ScatteringFunction.from_quad(*self.as_tuple()))

    @classmethod
    def coerce(cls, p) -> "ScatteringQuad":
        if isinstance(p, ScatteringQuad):
            return p
        return cls(*(float(v) for v in p))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p0, self.p1, self.p2, self.p3)

    def to_scattering_function(self) -> ScatteringFunction:
        return self._function


@dataclass(frozen=True, eq=False)
class FidelitySolution:
    """Closed-form maximizer of the mean channel gain at L=2.

    Attributes:
        fidelity: the maximal mean gain, in [1/2, 1].
        n_star: dominant Pauli axis (1..3); smallest index on ties.
        sign: +1/-1, the relative receive-axis orientation
            sign(2(p0 + p_n) - 1), with sign(0) taken as +1.
        x_opt / y_opt: Bloch 4-vectors of the optimal transmit/receive
            projectors (y_opt is x_opt with component n_star scaled by sign).
        precoder / equalizer: unit pulses in C^2 realizing the optimum.
        degenerate: True when several axes tie at the maximum.
        tied: all axis indices attaining the maximum (within 1e-12).
    """

    fidelity: float
    n_star: int
    sign: int
    x_opt: np.ndarray
    y_opt: np.ndarray
    precoder: np.ndarray
    equalizer: np.ndarray
    degenerate: bool
    tied: tuple[int, ...]


def bloch_to_matrix(x) -> np.ndarray:
    """Hermitian matrix (1/2) sum_i x_i sigma_i of a real 4-vector."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (4,):
        raise DimensionMismatchError(f"expected a real 4-vector, got shape {v.shape}")
    out = np.zeros((2, 2), dtype=complex)
    for i in range(4):
        out += 0.5 * v[i] * pauli(i)
    return out


def matrix_to_bloch(X) -> np.ndarray:
    """Pauli coordinates x_i = Tr(X sigma_i) of a hermitian 2x2 matrix."""
    A = require_hermitian(X)
    if A.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 matrix, got shape {A.shape}")
    return np.array([complex(np.trace(A @ pauli(i))).real for i in range(4)])


def is_on_bloch_manifold(x) -> bool:
    """True iff x parameterizes a rank-one projector: x0 = 1, |vec(x)| = 1 within 1e-10."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (4,):
        return False
    return abs(v[0] - 1.0) <= BLOCH_TOL and abs(np.linalg.norm(v[1:]) - 1.0) <= BLOCH_TOL


def map_matrix_rep(p) -> np.ndarray:
    """Diagonal Pauli-basis representation of the averaged channel map.

    Returns diag(1/2, p0+p1-1/2, p0+p2-1/2, p0+p3-1/2); entry (k, l) equals
    (1/4) sum_n p_n Tr(sigma_n sigma_k sigma_n sigma_l).
    """
    q = ScatteringQuad.coerce(p)
    return np.diag(
        [0.5, q.p0 + q.p1 - 0.5, q.p0 + q.p2 - 0.5, q.p0 + q.p3 - 0.5]
    )


def _axis_index(n) -> int:
    """The Pauli axis index n as an int; ValueError unless n is an integer in 1..3.

    Python and numpy integers pass; booleans, floats and anything else do not.
    """
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n <= 3:
        return int(n)
    raise ValueError(f"axis index must be an integer in 1..3, got {n!r}")


def axis_unit_vector(n: int, sign: int = +1) -> np.ndarray:
    """Unit pulse whose projector is (sigma_0 + sign*sigma_n)/2, n in 1..3."""
    n = _axis_index(n)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    table = _AXIS_PLUS if sign > 0 else _AXIS_MINUS
    return table[n - 1].copy()


def optimal_projectors(n: int, sign: int = +1) -> tuple[np.ndarray, np.ndarray]:
    """Transmit/receive projector pair ((sigma_0+sigma_n)/2, (sigma_0+sign*sigma_n)/2)."""
    n = _axis_index(n)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    X = 0.5 * (pauli(0) + pauli(n))
    Y = 0.5 * (pauli(0) + sign * pauli(n))
    return X, Y


def optimal_precoder_vector(n: int) -> np.ndarray:
    """Reference optimal pulse for axis n: (1,1)/sqrt2, (1,i)/sqrt2, (0,1).

    Axis 1 is flat in time (a single frequency bin), axis 3 is a single
    time sample, axis 2 sits between the two.  The axis-3 entry is the
    "-" orientation of the projector pair; both orientations attain the
    same gain and ``optimal_projectors`` exposes either.
    """
    n = _axis_index(n)
    return axis_unit_vector(n, _TABLE_SIGNS[n - 1])


def solve_fidelity(p) -> FidelitySolution:
    """Closed-form maximum of the mean gain and the pulses attaining it.

    The optimum is (1/2)(1 + max_k |2(p0+p_k)-1|) over the three axes;
    ties go to the smallest axis index and are reported via ``degenerate``
    and ``tied``.  The equalizer follows the precoder's axis, flipped when
    2(p0+p_n)-1 is negative (sign(0) is taken as +1, where the objective
    is insensitive to the choice).
    """
    gains = 2.0 * np.diag(map_matrix_rep(p))[1:]  # 2(p0 + p_k) - 1, k = 1..3
    mags = np.abs(gains)
    best = float(np.max(mags))
    tied = tuple(k + 1 for k in range(3) if best - mags[k] <= TIE_TOL)
    n_star = tied[0]
    sign = +1 if gains[n_star - 1] >= 0.0 else -1
    fidelity = 0.5 * (1.0 + best)

    x_opt = np.zeros(4)
    x_opt[0] = 1.0
    x_opt[n_star] = 1.0
    y_opt = x_opt.copy()
    y_opt[n_star] *= sign

    precoder = optimal_precoder_vector(n_star)
    # The equalizer tracks the precoder's orientation so that the pair's
    # realized gain equals the closed form for either table sign.
    equalizer = axis_unit_vector(n_star, _TABLE_SIGNS[n_star - 1] * sign)
    return FidelitySolution(
        fidelity=float(fidelity),
        n_star=n_star,
        sign=sign,
        x_opt=x_opt,
        y_opt=y_opt,
        precoder=precoder,
        equalizer=equalizer,
        degenerate=len(tied) > 1,
        tied=tied,
    )


def classify_channel(p) -> ChannelClass:
    """Qualitative regime of a quad, by decreasing specificity.

    Non-dispersive (one weight is all the power), single-dispersive
    (exactly two weights vanish, so all dispersion lives on one axis),
    completely overspread (uniform weights, the mean-gain floor), then
    underspread (some weight above one half), else generic.
    """
    q = ScatteringQuad.coerce(p)
    w = q.as_tuple()
    tol = 1e-9
    if any(abs(v - 1.0) <= tol for v in w):
        return ChannelClass.NON_DISPERSIVE
    if sum(1 for v in w if v <= tol) == 2:
        return ChannelClass.SINGLE_DISPERSIVE
    if all(abs(v - 0.25) <= tol for v in w):
        return ChannelClass.COMPLETELY_OVERSPREAD
    if any(v > 0.5 for v in w):
        return ChannelClass.UNDERSPREAD
    return ChannelClass.GENERIC


def worst_case_fidelity(p0: float) -> float:
    """Mean-gain optimum when the off-origin power is spread evenly.

    Spreading (1-p0) uniformly over the three nonzero shifts minimizes the
    achievable gain for fixed p0, giving 1/2 + (2/3)|p0 - 1/4|.
    """
    if not 0.0 <= p0 <= 1.0:
        raise InvalidWeightsError(f"p0 must lie in [0, 1], got {p0}")
    return 0.5 + (2.0 / 3.0) * abs(p0 - 0.25)
