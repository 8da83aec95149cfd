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
from .linalg import require_array, require_hermitian, require_int, require_real
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
    validated as the L=2 scattering function they define, and stored as floats.
    """

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        # from_quad reads the four powers as a real weight array, so each is a number.
        object.__setattr__(self, "_function", ScatteringFunction.from_quad(*self.as_tuple()))
        for name in ("p0", "p1", "p2", "p3"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def coerce(cls, p) -> "ScatteringQuad":
        """The quad p, or the one built from a sequence of four real numbers."""
        if isinstance(p, ScatteringQuad):
            return p
        values = tuple(p) if np.iterable(p) and not isinstance(p, str) else ()
        if len(values) != 4:
            raise InvalidWeightsError(f"a quad must be four numbers p0..p3, got {p!r}")
        return cls(*values)

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
    v = require_array(x, "Bloch vector", float).reshape(-1)
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
    try:
        v = require_array(x, "Bloch vector", float).reshape(4)
    except ValueError:  # unreadable (a WHPrecodeError) or not four entries
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


def _require_sign(sign) -> int:
    """Return sign, raising unless it is the integer +1 or -1 (bool and float fail)."""
    if require_int(sign, "sign", -1, 1) == 0:
        raise InvalidWeightsError("sign must be +1 or -1, got 0")
    return int(sign)


def axis_unit_vector(n: int, sign: int = +1) -> np.ndarray:
    """Unit pulse whose projector is (sigma_0 + sign*sigma_n)/2, n in 1..3."""
    return _axis_pulse(require_int(n, "axis index", 1, 3), _require_sign(sign))


def _axis_pulse(n: int, sign: int) -> np.ndarray:
    """``axis_unit_vector(n, sign)`` for an axis and sign already checked."""
    return (_AXIS_PLUS if sign > 0 else _AXIS_MINUS)[n - 1].copy()


def optimal_projectors(n: int, sign: int = +1) -> tuple[np.ndarray, np.ndarray]:
    """Transmit/receive projector pair ((sigma_0+sigma_n)/2, (sigma_0+sign*sigma_n)/2)."""
    n = require_int(n, "axis index", 1, 3)
    sign = _require_sign(sign)
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
    n = require_int(n, "axis index", 1, 3)
    return _axis_pulse(n, _TABLE_SIGNS[n - 1])


def solve_fidelity(p) -> FidelitySolution:
    """Closed-form maximum of the mean gain and the pulses attaining it.

    The optimum is (1/2)(1 + max_k |2(p0+p_k)-1|) over the three axes;
    ties go to the smallest axis index and are reported via ``degenerate``
    and ``tied``.  The equalizer follows the precoder's axis, flipped when
    2(p0+p_n)-1 is negative (sign(0) is taken as +1, where the objective
    is insensitive to the choice).
    """
    q = ScatteringQuad.coerce(p)
    # 2(p0 + p_k) - 1, k = 1..3: twice the diagonal of map_matrix_rep, in
    # the same floating-point operations, so the same bits.
    gains = [2.0 * (q.p0 + pk - 0.5) for pk in (q.p1, q.p2, q.p3)]
    mags = [abs(g) for g in gains]
    best = max(mags)
    tied = tuple(k + 1 for k in range(3) if best - mags[k] <= TIE_TOL)
    n_star = tied[0]
    sign = +1 if gains[n_star - 1] >= 0.0 else -1
    fidelity = 0.5 * (1.0 + best)

    x_opt = [1.0, 0.0, 0.0, 0.0]
    x_opt[n_star] = 1.0
    y_opt = list(x_opt)
    y_opt[n_star] = float(sign)

    table_sign = _TABLE_SIGNS[n_star - 1]
    return FidelitySolution(
        fidelity=fidelity,
        n_star=n_star,
        sign=sign,
        x_opt=np.array(x_opt),
        y_opt=np.array(y_opt),
        precoder=_axis_pulse(n_star, table_sign),
        # The equalizer tracks the precoder's orientation so that the pair's
        # realized gain equals the closed form for either table sign.
        equalizer=_axis_pulse(n_star, table_sign * sign),
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
    p0 = require_real(p0, "p0", 0.0, 1.0)
    return 0.5 + (2.0 / 3.0) * abs(p0 - 0.25)
