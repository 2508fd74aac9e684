"""Bell-type tests and entanglement witnesses for bright GHZ states.

The Mermin-like combination takes the four setting triples 111, 122, 212,
221 over bases 1 (+-45) and 2 (circular) with primed Stokes operators, so
no-photon events answer -1 instead of dropping out; any local realistic
model keeps the combination at or below 2.  The lossless, the lossy and
the w2 Mermin terms are each one call of the `stokes` shell kernel.  On the
diagonal bright states the combination reduces to |4t + 2 p_vac| with t
the only independent tensor element, whose closed-form double sum this
module cross-checks against the kernel at every point.

Normalization convention for the Bell test: the retained amplitude box
carries squared mass 1 - norm_residual of the untruncated state, and the
Mermin expectations are reported as partial sums of that state's
expectation series, i.e. the unit-state evaluation scaled back by the
retained mass.  Renormalizing the box instead would inflate correlations
and vacuum weight together and bias the test toward violation; near the
threshold the inflation exceeds the distance to the classical bound, so
the convention moves the detected crossing by more than the bisection
tolerance.  The witnesses are a statement about whatever state is handed
to them, so they stay on the unit-norm truncated state, where their
closed-form identities are exact.

Detector loss is binomial thinning at efficiency eta on all six
detectors.  The lossy per-party response on counts (k_a, k_b) averages
(kappa_a - kappa_b)/(kappa_a + kappa_b) over the thinned counts and
assigns -1 to the all-lost outcome; that is a congruence of the lossless
response table by the thinning matrix, computed here as one dense matrix
product per shell rather than term-by-term rational sums, which keeps
threshold sweeps over a gain grid at interactive speed for an error far
below the 1e-3 bisection tolerance.  Thinning commutes with the basis
rotations, so the lossy responses feed the same kernel; at eta = 1 the
thinning matrix is exactly the identity and the result is the lossless one.

Both witnesses flag entanglement strictly below zero: w1 transplants the
three-qubit GHZ projector witness to normalized Stokes operators, and w2
adds the non-vacuum projector to the Mermin operator, lowering the
separable bound to half the local realistic one.

Every gain grid, for the library sweeps and the CLI threshold commands
alike, runs through one engine here: a point that fails becomes a NaN value
marked failed, and the threshold is bisected, in the sweep's direction, when
it is first read.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from brightghz.state import (
    DEFAULT_POLICY,
    BGHZState,
    NumericPolicy,
    build_bghz,
)
from brightghz.stokes import (
    _closed_form_t,
    _diagonal_block,
    _mermin_form,
    _shell_block,
    stokes_expectation,
)

__all__ = [
    "SweepResult",
    "MerminEvaluation",
    "WitnessEvaluation",
    "evaluate_mermin",
    "mermin_lhs",
    "gamma_threshold",
    "per_party_loss_factor",
    "lossy_mermin_lhs",
    "eta_threshold",
    "witness_w1",
    "evaluate_w2",
    "witness_w2",
    "find_crossing",
    "mermin_sweep",
    "eta_threshold_sweep",
    "witness_sweep",
]

CLASSICAL_BOUND = 2.0


@dataclass(frozen=True)
class SweepResult:
    """One observable evaluated over a strictly increasing grid.

    diagnostics carries one dict per point.  A point whose evaluation
    failed has value NaN and diagnostics {"failed": True, "error": ...}.
    bracket, when not None, is the first pair of grid neighbours across
    which the value crosses the sweep's level in the sweep's direction;
    threshold is the crossing bisected inside it, computed on first access
    (None without a bracket), so a caller that never reads it never pays
    for the bisection.  An evaluation that fails during the bisection
    raises from that access.
    """

    axis: tuple[float, ...]
    values: tuple[float, ...]
    diagnostics: tuple[dict, ...]
    bracket: tuple[float, float] | None = None
    bisect: Callable[[float, float], float] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.axis, self.axis[1:])):
            raise ValueError("axis must be strictly increasing")
        if not len(self.axis) == len(self.values) == len(self.diagnostics):
            raise ValueError("axis, values, diagnostics must align")

    @cached_property
    def threshold(self) -> float | None:
        return None if self.bracket is None else self.bisect(*self.bracket)


@dataclass(frozen=True)
class MerminEvaluation:
    """Shell-kernel Mermin LHS next to its closed-form reduction."""

    gamma: float
    lhs: float
    reduced: float
    agreement: float


@dataclass(frozen=True)
class WitnessEvaluation:
    gamma: float
    value: float
    closed_form: float
    agreement: float


def _prepare(gamma, policy, state):
    if state is None:
        state = build_bghz(gamma, policy)
    return state


def _vacuum_probability(state: BGHZState) -> float:
    amp = state.amps.get((0, 0))
    return float(abs(amp) ** 2) if amp is not None else 0.0


def mermin_lhs(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """Mermin-like LHS with primed operators, scaled by the retained mass."""
    state = _prepare(gamma, policy, state)
    total = _mermin_form(state, lambda k, rows: _shell_block("S1p", k)[rows, rows])
    return (1.0 - state.norm_residual) * abs(total)


def evaluate_mermin(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> MerminEvaluation:
    """mermin_lhs plus the reduced form.

    The reduced form |4t + 2 p_vac| follows from <S'S'S'> = T - p_vac on
    states whose support is exchange-diagonal, with t the closed-form
    double sum; agreement records its difference from the kernel's LHS.
    Both carry the same retained-mass scale.
    """
    state = _prepare(gamma, policy, state)
    lhs = mermin_lhs(gamma, policy, state)
    t = _closed_form_t(state)
    reduced = (1.0 - state.norm_residual) * abs(4.0 * t + 2.0 * _vacuum_probability(state))
    return MerminEvaluation(
        gamma=state.gamma, lhs=lhs, reduced=reduced, agreement=abs(lhs - reduced)
    )


def find_crossing(fn, level, lo, hi, tol=1e-3):
    """Bisect fn(x) = level on [lo, hi]; fn(lo) and fn(hi) must straddle it.

    Returns the midpoint of the final bracket, accurate to tol in x, or
    to the float spacing there when that is coarser.  tol must be finite
    and positive.  A non-finite value at an endpoint or a midpoint raises
    ValueError: NaN sits on neither side of the level, so no bracket
    survives it.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    def offset(x):
        value = fn(x)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} at {x}")
        return value - level

    flo = offset(lo)
    fhi = offset(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(
            f"no crossing: endpoints give {flo + level} and {fhi + level}, "
            f"both on the same side of {level}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: no narrower bracket exists
        fmid = offset(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gamma_threshold(
    policy: NumericPolicy = DEFAULT_POLICY,
    gamma_min: float = 0.05,
    gamma_max: float = 0.85,
    tol: float = 1e-3,
) -> float:
    """Gain at which the Mermin violation dies, bisected to tol.

    Requires the LHS to sit above 2 at gamma_min and at or below 2 at
    gamma_max; raises "no crossing" otherwise (e.g. on a range that ends
    while the inequality is still violated).  The default gamma_max lies
    past the crossing near 0.77, inside the 0.9 guard, so it does not warn.
    """
    return find_crossing(
        lambda g: mermin_lhs(g, policy), CLASSICAL_BOUND, gamma_min, gamma_max, tol
    )


# largest table built so far per efficiency, most recently used last; bounded
# for long sweeps, well above the efficiencies a few eta bisections visit
LOSS_TABLES_MAX = 64
_LOSS_TABLES: dict[float, np.ndarray] = {}


def _loss_table(eta: float, kmax: int) -> np.ndarray:
    """Table L[k_a, k_b] of lossy per-party responses up to kmax photons.

    L = B V B^T with B the binomial thinning matrix and V the lossless
    response (count asymmetry, -1 on the double vacuum).  eta outside
    [0, 1], NaN included, raises ValueError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    got = _LOSS_TABLES.pop(eta, None)
    if got is None or got.shape[0] <= kmax:
        dim = kmax + 1
        B = np.zeros((dim, dim))
        for k in range(dim):
            B[k, : k + 1] = [math.comb(k, j) * eta**j * (1.0 - eta) ** (k - j) for j in range(k + 1)]
        counts = np.arange(dim, dtype=float)
        totals = counts[:, None] + counts[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            V = np.where(totals > 0, (counts[:, None] - counts[None, :]) / totals, 0.0)
        V[0, 0] = -1.0
        got = B @ V @ B.T
    _LOSS_TABLES[eta] = got
    if len(_LOSS_TABLES) > LOSS_TABLES_MAX:
        del _LOSS_TABLES[next(iter(_LOSS_TABLES))]
    return got


def per_party_loss_factor(k_a: int, k_b: int, eta: float) -> float:
    """Expected one-party response to counts (k_a, k_b) at efficiency eta.

    Each photon survives independently with probability eta; surviving
    counts answer their count asymmetry, losing everything answers -1.
    """
    if k_a < 0 or k_b < 0:
        raise ValueError("photon counts must be non-negative")
    return float(_loss_table(eta, max(k_a, k_b))[k_a, k_b])


def lossy_mermin_lhs(
    gamma: float,
    eta: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """Mermin-like LHS with every detector thinned to efficiency eta.

    Thinning commutes with the (photon-number-conserving) basis rotations,
    so each party's shell block is the rotated diagonal lossy response, and
    the Mermin kernel combines the parties exactly as without loss.
    Reported in the untruncated-state normalization; at eta = 1 it equals
    mermin_lhs exactly.
    """
    state = _prepare(gamma, policy, state)
    table = _loss_table(eta, max((shell[0] for shell in state._shells), default=0))

    def block(k, rows):
        kappa = np.arange(k + 1)
        return _diagonal_block(table[kappa, k - kappa], k, rows)

    return (1.0 - state.norm_residual) * abs(_mermin_form(state, block))


def eta_threshold(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    tol: float = 1e-3,
    state: BGHZState | None = None,
) -> float:
    """Detector efficiency below which the Mermin violation dies.

    Bisects lossy_mermin_lhs = 2 in eta on one state, built here or
    reused when given; requires a violation at eta = 1 (raises "not
    violated at eta=1" otherwise).  The lower bracket starts just above 0
    because eta = 0 gives exactly 2.  At eta = 1, the upper bracket, the
    lossy LHS equals mermin_lhs exactly, so the violation check's value
    stands in for it.
    """
    state = _prepare(gamma, policy, state)
    lossless = mermin_lhs(gamma, policy, state=state)
    if lossless <= CLASSICAL_BOUND:
        raise ValueError(f"not violated at eta=1 (gamma={gamma})")
    return find_crossing(
        lambda e: lossless if e == 1.0 else lossy_mermin_lhs(gamma, e, policy, state=state),
        CLASSICAL_BOUND,
        1e-6,
        1.0,
        tol,
    )


def witness_w1(
    gamma: float,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """GHZ projector witness in normalized Stokes operators.

    (3/2) S0 S0 S0 - S1 S1 S1 - (1/2)(S3 S3 S0 + S0 S3 S3 + S3 S0 S3);
    negative expectation flags entanglement, the three-qubit GHZ state
    reaching -1.  projected evaluates on the vacuum-removed state.
    """
    state = _prepare(gamma, policy, state)
    if projected:
        state = state._vacuum_projected
    value = 1.5 * stokes_expectation(state, ("S0", "S0", "S0"))
    value -= stokes_expectation(state, ("S1", "S1", "S1"))
    value -= 0.5 * (
        stokes_expectation(state, ("S3", "S3", "S0"))
        + stokes_expectation(state, ("S0", "S3", "S3"))
        + stokes_expectation(state, ("S3", "S0", "S3"))
    )
    return value


def evaluate_w2(
    gamma: float,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> WitnessEvaluation:
    """Mermin-operator witness with the non-vacuum projector added.

    value is <S1 S2 S2 + S2 S1 S2 + S2 S2 S1 - S1 S1 S1> + <Pi Pi Pi>, the
    Mermin part being the negated shell kernel on unprimed operators;
    closed_form is -4t + 1 - p_vac on the same state, t the closed-form
    double sum, and agreement records their difference.  Negative value
    flags entanglement (separable bound 0).
    """
    state = _prepare(gamma, policy, state)
    if projected:
        state = state._vacuum_projected
    m_value = -_mermin_form(state, lambda k, rows: _shell_block("S1", k)[rows, rows])
    value = m_value + stokes_expectation(state, ("Pi", "Pi", "Pi"))
    closed = -4.0 * _closed_form_t(state) + 1.0 - _vacuum_probability(state)
    return WitnessEvaluation(
        gamma=state.gamma,
        value=value,
        closed_form=closed,
        agreement=abs(value - closed),
    )


def witness_w2(
    gamma: float,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    return evaluate_w2(gamma, projected, policy, state).value


def _sweep(gammas, evaluate, level=None, rising=False, bisect_value=None) -> SweepResult:
    """Evaluate evaluate(g) -> (value, diagnostics) at every gain, then
    bracket the first crossing of level: falling through it (value > level
    >= next) or, when rising, rising through it (value < level <= next).

    The bisection calls bisect_value(g), which must equal evaluate(g)[0];
    it defaults to that, and a sweep passes a leaner function when the
    diagnostics cost extra.  A point that raises RuntimeError (ResummationError
    included) or ValueError becomes NaN marked failed, and NaN brackets
    nothing.
    """
    gammas = tuple(float(g) for g in gammas)
    if any(g < 0 for g in gammas):
        raise ValueError("gains must be >= 0")
    values, diagnostics = [], []
    for g in gammas:
        try:
            value, diag = evaluate(g)
        except (RuntimeError, ValueError) as err:
            value, diag = math.nan, {"failed": True, "error": str(err)}
        values.append(value)
        diagnostics.append(diag)
    bracket = None
    if level is not None:
        for a, b, va, vb in zip(gammas, gammas[1:], values, values[1:]):
            if (va < level <= vb) if rising else (va > level >= vb):
                bracket = (a, b)
                break
    return SweepResult(
        axis=gammas,
        values=tuple(values),
        diagnostics=tuple(diagnostics),
        bracket=bracket,
        bisect=lambda a, b: find_crossing(
            bisect_value or (lambda g: evaluate(g)[0]), level, a, b
        ),
    )


def mermin_sweep(gammas, policy: NumericPolicy = DEFAULT_POLICY) -> SweepResult:
    """Mermin LHS over a gain grid; the threshold is where it falls through 2.

    At gain 0 the LHS is exactly 2, so a grid starting there brackets
    nothing at its first point.
    """

    def evaluate(g):
        e = evaluate_mermin(g, policy)
        return e.lhs, {"reduced": e.reduced, "agreement": e.agreement}

    return _sweep(
        gammas, evaluate, CLASSICAL_BOUND, bisect_value=lambda g: mermin_lhs(g, policy)
    )


def eta_threshold_sweep(gammas, policy: NumericPolicy = DEFAULT_POLICY) -> SweepResult:
    """eta_threshold per grid point; NaN with violated False where the
    inequality is not violated even with perfect detectors.  No threshold."""

    def evaluate(g):
        try:
            return eta_threshold(g, policy), {"violated": True}
        except ValueError:
            return math.nan, {"violated": False}

    return _sweep(gammas, evaluate)


def witness_sweep(
    which: int,
    gammas,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> SweepResult:
    """w1 or w2 over a gain grid; the threshold is where the witness rises
    through 0 and loses its negativity."""
    if which not in (1, 2):
        raise ValueError(f"witness index must be 1 or 2, got {which}")

    def evaluate(g):
        if which == 1:
            return witness_w1(g, projected, policy), {}
        e = evaluate_w2(g, projected, policy)
        return e.value, {"agreement": e.agreement}

    return _sweep(gammas, evaluate, 0.0, rising=True)
