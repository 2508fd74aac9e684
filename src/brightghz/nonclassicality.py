"""Bell-type tests and entanglement witnesses for bright GHZ states.

The Mermin-like combination takes the four setting triples 111, 122, 212,
221 over bases 1 (+-45) and 2 (circular) with primed Stokes operators, so
no-photon events answer -1 instead of dropping out; any local realistic
model keeps the combination at or below 2.  On the diagonal bright states
the combination reduces to |4t + 2 p_vac| with t the only independent
tensor element, whose closed-form double sum this module cross-checks
against the kernel at every point.

The three Bell forms live here as constants, each a `stokes` form of
(diagonal weight, band weight, selector triple) entries that
`stokes._form_terms` evaluates as one term per photon shell: the Mermin
form, and the witnesses w1 and w2.  The Mermin combination <111> - <122> -
<212> - <221> needs only the basis-1 bands: a basis-2 upper band is the
basis-1 one times i, so each mixed setting is minus the basis-1 cube on the
band.  The combination is the basis-1 form weighted by J - 3 Sigma (J all
ones, Sigma[q, q'] = (-1)^(q-q')): -2 on the diagonal, 4 on the band.  The
lossless and the lossy Mermin tests both read its per-shell terms.
Arguments are checked once, at the public entry (_state_at, _projected);
past it, evaluate_mermin and mermin_lhs share the private LHS _mermin_lhs,
each value is one stokes._form_value, and each record is series_core._record.

Normalization convention for the Bell test: the retained amplitude box
carries squared mass 1 - norm_residual of the untruncated state, and the
Mermin expectations are reported as partial sums of that state's
expectation series, i.e. the unit-state evaluation scaled back by the
retained mass.  Renormalizing the box instead would inflate correlations
and vacuum weight together and bias the test toward violation; near the
threshold the inflation exceeds the distance to the classical bound, so
the convention moves the detected crossing.  The witnesses are a
statement about whatever state is handed to them, so they stay on the
unit-norm truncated state, where their closed-form identities are exact.

Detector loss is binomial thinning at efficiency eta on all six
detectors.  If j of a party's k photons survive, the surviving split is
hypergeometric, so the primed response averages to (k_a - k_b)/k over
every j >= 1, and all k photons are lost, answering -1, with probability
beta_k = (1 - eta)^k.  The lossy response on shell k is therefore
alpha_k (2 kappa - k)/k - beta_k with alpha_k = 1 - beta_k: thinning maps
the primed basis-1 block B to alpha_k B - beta_k I.  B has a zero diagonal
on every shell past the vacuum, so the entrywise cube is
alpha_k^3 B*B*B - beta_k^3 I; on the vacuum, where alpha_0 = 0 and
beta_0 = 1, it is -I, the lossless cube.  The lossy Mermin sum is thus
sum_k (alpha_k^3 m_k + 2 beta_k^3 p_k) over the lossless per-shell terms
m_k of the Mermin form and the shell masses p_k.  With c = 1 - eta,
beta_k = c^k and alpha_k^3 = 1 - 3 c^k + 3 c^2k - c^3k, so the sum is one
polynomial P in c whose coefficients come from one form pass on a state,
kept on the state; each efficiency sums P and P' in plain floats, upward
in c, only as far as P's last bit needs (_lossy_at).  Its constant
coefficient, all that survives at eta = 1, is the lossless sum itself
(m_0 = 2 p_0), so the lossy LHS at eta = 1 is the lossless one bit for
bit.  The expansion cancels between its c^k, c^2k and c^3k coefficients as
eta falls, which costs a few units in the last place against the per-shell
sum.  eta_threshold solves it for 2 by Newton in c, to a few ulps.

Both witnesses flag entanglement strictly below zero: w1 transplants the
three-qubit GHZ projector witness to normalized Stokes operators, and w2
adds the non-vacuum projector to the Mermin operator, lowering the
separable bound to half the local realistic one.

Every gain grid, for the library sweeps and the CLI threshold commands
alike, runs through one engine here: a point that fails becomes a NaN value
marked failed, and the threshold is solved for by find_crossing, in the
sweep's direction and to a few ulps, when it is first read.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from brightghz.series_core import _count, _real, _record, _shown, _typed
from brightghz.state import DEFAULT_POLICY, BGHZState, NumericPolicy, _state_at
from brightghz.stokes import _form_terms, _form_value

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

# The three Bell forms, each a stokes form of (diagonal weight, band
# weight, selector triple) entries: the Mermin combination as the primed
# basis-1 cube weighted by J - 3 Sigma (module docstring), w1 as written in
# witness_w1, and the Mermin part of w2 as the negated unprimed Mermin form.
_MERMIN_FORM = ((-2.0, 4.0, ("S1p",) * 3),)
_W1_FORM = (
    (1.5, 1.5, ("S0", "S0", "S0")),
    (-1.0, -1.0, ("S1", "S1", "S1")),
    (-0.5, -0.5, ("S3", "S3", "S0")),
    (-0.5, -0.5, ("S0", "S3", "S3")),
    (-0.5, -0.5, ("S3", "S0", "S3")),
)
_W2_FORM = ((2.0, -4.0, ("S1", "S1", "S1")), (1.0, 1.0, ("Pi", "Pi", "Pi")))


@dataclass(frozen=True)
class SweepResult:
    """One observable evaluated over a strictly increasing grid.

    diagnostics carries one dict per point.  A point whose evaluation
    failed has value NaN and diagnostics {"failed": True, "error": ...}.
    bracket, when not None, is the first pair of grid neighbours across
    which the value crosses the sweep's level in the sweep's direction.
    threshold is the computed value's crossing inside it to a few ulps,
    searched for by bisect (_sweep) only when first read; an evaluation
    that fails in the search raises from that read.  A bracket without
    bisect is rejected.
    """

    axis: tuple[float, ...]
    values: tuple[float, ...]
    diagnostics: tuple[dict, ...]
    bracket: tuple[float, float] | None = None
    bisect: Callable[[float, float], float] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if any(map(math.isnan, self.axis)) or any(
            b <= a for a, b in zip(self.axis, self.axis[1:])
        ):
            raise ValueError("axis must be strictly increasing, without NaN")
        if not len(self.axis) == len(self.values) == len(self.diagnostics):
            raise ValueError("axis, values, diagnostics must align")
        if self.bracket is not None and self.bisect is None:
            raise ValueError("a bracket needs the bisect that solves inside it")

    @cached_property
    def threshold(self) -> float | None:
        """The computed value's crossing inside bracket to a few ulps, or where
        it jumps across the level (a cutoff step); None without a bracket."""
        return None if self.bracket is None else self.bisect(*self.bracket)


@dataclass(frozen=True)
class MerminEvaluation:
    """Band-kernel Mermin LHS next to its closed-form reduction."""

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


def mermin_lhs(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """Mermin-like LHS with primed operators, scaled by the retained mass."""
    return _mermin_lhs(_state_at(gamma, policy, state))


def _mermin_lhs(state: BGHZState) -> float:
    """mermin_lhs on a state that a public entry has already checked."""
    return (1.0 - state.norm_residual) * abs(_form_value(state, _MERMIN_FORM))


def evaluate_mermin(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> MerminEvaluation:
    """mermin_lhs plus the reduced form.

    The reduced form |4t + 2 p_vac| follows from <S'S'S'> = T - p_vac on
    states whose support is exchange-diagonal, with t the state's
    closed-form double sum (computed once per state); agreement records
    its difference from the kernel's LHS.
    Both carry the same retained-mass scale.  The closed form holds only on
    exchange-symmetric boxes, A[q, m] = A[m, q], like every bright state.
    """
    state = _state_at(gamma, policy, state)
    lhs, t = _mermin_lhs(state), state._closed_form_t
    reduced = (1.0 - state.norm_residual) * abs(4.0 * t + 2.0 * state._vacuum_probability)
    return _record(
        MerminEvaluation, gamma=state.gamma, lhs=lhs, reduced=reduced, agreement=abs(lhs - reduced)
    )


def find_crossing(fn, level, lo, hi, tol=1e-3):
    """Solve fn(x) = level on [lo, hi] by ITP; fn(lo) and fn(hi) must straddle it.

    ITP (interpolate, truncate, project: Oliveira and Takahashi, ACM TOMS
    47(1), 2020) keeps a sign-change bracket as bisection does, but steps
    from the regula falsi point, moved toward the midpoint by k1 w**k2
    (w the bracket width, k1 = 0.2 over the starting width, k2 = 2) and
    held within a radius of the midpoint that still leaves the bracket no
    wider than tol after one step more than bisection takes.  So on any
    fn, jumps included, it evaluates fn at most once past bisection's
    count, and where fn is smooth it converges superlinearly.  Widths and
    steps are formed from half-widths, so a bracket as wide as the floats
    does not overflow.

    Returns the midpoint of the final bracket, which is at most tol wide
    (or two adjacent floats, when the float spacing there is coarser), so
    the result is within tol / 2 of a crossing.  level, lo and hi must be
    finite reals with lo below hi, and tol a finite positive real (_real: a
    bool is none); fn is not called otherwise.  A non-finite value at an
    endpoint or a step raises ValueError: NaN sits on neither side of the
    level, so no bracket survives it.
    """
    level, tol = _real("level", level), _real("tol", tol, 0)
    lo, hi = _real("lo", lo), _real("hi", hi)
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got lo={lo}, hi={hi}")

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
    start_half = hi / 2 - lo / 2
    # bisection's count, the least n with 2 h / 2**n <= tol for a half-width
    # h no greater than the exact one, plus n0 = 1
    (m, e), (mt, et) = math.frexp(math.nextafter(start_half, 0.0)), math.frexp(tol)
    steps = max(0, e + 1 - et + (m > mt)) + 1
    # the final half-width the steps aim at: tol / 2, less room for what
    # rounding the midpoints adds (a unit in the last place or so)
    aim = tol / 2 - 2 * math.ulp(max(-lo, hi))
    while hi - lo > tol:
        mid = lo / 2 + hi / 2
        if mid in (lo, hi):
            break  # adjacent floats: no narrower bracket exists
        half = hi / 2 - lo / 2
        # the step may stray this far from the midpoint and still leave a
        # bracket that the steps left after it take to the aim
        try:
            radius = math.ldexp(aim, steps) - half if aim > 0 else 0.0
        except OverflowError:
            radius = half
        steps -= 1
        # regula falsi, as an offset from the midpoint (NaN from two infinite
        # offsets falls back to the midpoint), truncated by k1 (2 half)**2
        weight = flo / (flo - fhi)
        falsi = 0.0 if math.isnan(weight) else half * (2.0 * weight - 1.0)
        truncated = abs(falsi) - 0.4 * half * (half / start_half)
        x = mid + math.copysign(max(0.0, min(truncated, radius)), falsi)
        if not lo < x < hi:
            x = mid
        fx = offset(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo / 2 + hi / 2


def gamma_threshold(
    policy: NumericPolicy = DEFAULT_POLICY,
    gamma_min: float = 0.05,
    gamma_max: float = 0.85,
) -> float:
    """Gain at which the Mermin violation dies: mermin_sweep((gamma_min,
    gamma_max), policy).threshold, the crossing of the computed LHS through
    2 to a few ulps, or the gain where a cutoff step jumps across 2.

    The LHS must lie above 2 at gamma_min, which gain 0 (LHS 2) never does,
    and at or below 2 at gamma_max; "no crossing" otherwise, naming each end's
    LHS or failed evaluation.  The default gamma_max, past the crossing near
    0.77 and inside the 0.9 guard, does not warn.  policy and the gains (reals
    in [0, inf), gamma_min below gamma_max) are checked before any work.
    """
    policy = _typed("policy", policy, NumericPolicy)
    lo = _real("gamma_min", gamma_min, 0, closed="[)")
    hi = _real("gamma_max", gamma_max, 0, closed="[)")
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got gamma_min={lo}, gamma_max={hi}")
    sweep = mermin_sweep((lo, hi), policy)
    if sweep.threshold is None:
        ends = [d.get("error", f"LHS {v}") for v, d in zip(sweep.values, sweep.diagnostics)]
        raise ValueError(f"no crossing: at gamma_min={lo}, {ends[0]}; at gamma_max={hi}, {ends[1]}")
    return sweep.threshold


# bench/tracing.py reads len(_LOSS_TABLES); ROADMAP item 12 removes that read and this dict
_LOSS_TABLES: dict = {}


_MAX_PHOTONS = 2**53


def per_party_loss_factor(k_a: int, k_b: int, eta: float) -> float:
    """Expected one-party response to counts (k_a, k_b) at efficiency eta.

    Each photon survives independently with probability eta; surviving
    counts answer their count asymmetry, losing everything answers -1.
    That is alpha_k (k_a - k_b)/k - beta_k on k = k_a + k_b > 0 photons,
    and -1 on none.  Counts are integers in [0, 2**53] (_MAX_PHOTONS), the
    floats' exact integers, and eta a real in [0, 1], converted once (_real).
    """
    k_a, k_b = _count("k_a", k_a, 0, _MAX_PHOTONS), _count("k_b", k_b, 0, _MAX_PHOTONS)
    k = k_a + k_b
    beta = (1.0 - _real("eta", eta, 0, 1, "[]")) ** k
    return (1.0 - beta) * (k_a - k_b) / k - beta if k else -1.0


def _lossy_lhs(state: BGHZState) -> tuple[tuple, float, float]:
    """The module docstring's polynomial P in c = 1 - eta, built from one
    Mermin form product and kept in the state's __dict__ (so it dies with
    the state), as (terms, d_0, scale): terms holds (d_j, j d_j, 2**60 t_j)
    for j >= 1, t_j = sum over i >= j of (1 + i) |d_i|, and the LHS is
    scale |P(c)|, scale the retained mass.

    Shell k >= 1 puts -3 m_k on c^k, 3 m_k on c^2k and 2 p_k - m_k on c^3k,
    m_k the product's column sums; as m_0 = 2 p_0, d_0 is the eta = 1 value,
    the product's whole sum, the very reduction that mermin_lhs reads.
    """
    lossy = state.__dict__.get("_lossy_lhs")
    if lossy is None:
        product = _form_terms(state, _MERMIN_FORM)
        terms, masses = product.sum(axis=0), state._moments[0]
        d = np.zeros(3 * len(terms) - 2)
        d[0] = product.sum()
        d[1 : len(terms)] = -3.0 * terms[1:]
        d[2 : 2 * len(terms) - 1 : 2] += 3.0 * terms[1:]
        d[3::3] += 2.0 * masses[1:] - terms[1:]
        powers = np.arange(len(d), dtype=float)
        tails = np.cumsum((np.abs(d) * (powers + 1.0))[::-1])[::-1] * 2.0**60
        rows = zip(d[1:].tolist(), (powers * d)[1:].tolist(), tails[1:].tolist())
        state.__dict__["_lossy_lhs"] = lossy = (tuple(rows), float(d[0]), 1.0 - state.norm_residual)
    return lossy


def _lossy_at(lossy: tuple, c: float) -> tuple[float, float]:
    """(LHS, its slope in c) of a _lossy_lhs polynomial at c in [0, 1].

    Sums P and P' upward in j, c^j by repeated products, the terms past
    d_0 apart, and stops before the first j with t_j c^(j-1) <= 2**-60 |P|,
    P the sum so far: the terms left out add at most that, under 1/128 of
    P's last bit, and rounding at most 2**-53 (|P| + (J + 1) sum |d_j| c^j)
    over the J terms read past d_0 (likewise for P').  c = 0 gives d_0.
    """
    terms, d_0, scale = lossy
    p, rest, slope, x = d_0, 0.0, 0.0, 1.0  # x = c^(j-1)
    for d, slope_d, tail in terms:
        if tail * x <= abs(p):
            break
        slope += slope_d * x
        x *= c
        rest += d * x
        p = d_0 + rest
    return scale * abs(p), math.copysign(scale, p) * slope


def lossy_mermin_lhs(
    gamma: float,
    eta: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """Mermin-like LHS with every detector thinned to efficiency eta.

    The closed form over the lossless per-shell Mermin terms and shell
    masses given in the module docstring.  Reported in the
    untruncated-state normalization; at eta = 1 it equals mermin_lhs
    exactly.  eta is a real in [0, 1], converted once (_real).
    """
    c = 1.0 - _real("eta", eta, 0, 1, "[]")
    return _lossy_at(_lossy_lhs(_state_at(gamma, policy, state)), c)[0]


class _NotViolated(ValueError):
    """eta_threshold at a gain where even perfect detectors see no violation."""


def eta_threshold(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """Detector efficiency below which the Mermin violation dies.

    Solves lossy_mermin_lhs = 2 on one state, built here or reused when
    given, by Newton in c = 1 - eta on its polynomial, through the same
    evaluator, in [0, 1 - 1e-6].  Requires the LHS above 2 at eta = 1 ("not
    violated at eta=1" otherwise).  Steps are at least 2**-53 long; one
    that leaves the bracket or does not halve the step before last bisects
    it, until it is 2**-52 wide.  eta = 1e-6 is evaluated only if no point
    fell to 2, raising "no crossing" if above 2; a point at or below 2 gives
    a crossing even if the LHS is back above 2 at 1e-6.  The result is the
    crossing of this state's float polynomial to 2 ulps plus (ulp(2) + scale
    E) / |LHS'|, E = 2**-53 (|P| + (J + 1) sum |d_j| c^j) the rounding of the
    J terms _lossy_at reads; on a 0.01 grid of gains it stays within 0.81 of
    the bound without E (3.0 ulps from gain 0.3 up, 19.4 at 0.075, where the
    LHS is flattest).  The state's own truncation error is not included.
    """
    state = _state_at(gamma, policy, state)
    lossy = _lossy_lhs(state)
    lossless, slope = _lossy_at(lossy, 0.0)
    if lossless <= CLASSICAL_BOUND:
        raise _NotViolated(f"not violated at eta=1 (gamma={state.gamma})")
    value, lo, hi = lossless, 0.0, 1.0 - 1e-6
    c, last, before, end = 0.0, hi, hi, hi
    while hi - lo > 2.0**-52:
        step = (CLASSICAL_BOUND - value) / slope if slope else math.inf
        x = c + math.copysign(max(abs(step), 2.0**-53), step)
        if not (lo < x < hi and abs(x - c) <= before / 2):
            x = lo / 2 + hi / 2
        last, before, c = abs(x - c), last, x
        value, slope = _lossy_at(lossy, c)
        if value == CLASSICAL_BOUND:
            return 1.0 - c
        lo, hi = (c, hi) if value > CLASSICAL_BOUND else (lo, c)
    if hi == end and (value := _lossy_at(lossy, end)[0]) > CLASSICAL_BOUND:
        raise ValueError(f"no crossing: the LHS is {lossless} at eta=1 and {value} at eta=1e-6")
    return 1.0 - (lo / 2 + hi / 2)


def _projected(projected) -> bool:
    """projected as a bool; ValueError naming it unless it is a bool or a NumPy bool."""
    if not isinstance(projected, (bool, np.bool_)):
        raise ValueError(f"projected must be a bool, got {_shown(projected)}")
    return bool(projected)


def witness_w1(
    gamma: float,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> float:
    """GHZ projector witness in normalized Stokes operators.

    (3/2) S0 S0 S0 - S1 S1 S1 - (1/2)(S3 S3 S0 + S0 S3 S3 + S3 S0 S3);
    negative expectation flags entanglement, the three-qubit GHZ state
    reaching -1.  projected, a bool, evaluates on the vacuum-removed
    state.  The five terms are one form, so one moment pass.
    """
    state = _state_at(gamma, policy, state, _projected(projected))
    return _form_value(state, _W1_FORM)


def evaluate_w2(
    gamma: float,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> WitnessEvaluation:
    """Mermin-operator witness with the non-vacuum projector added.

    value is <S1 S2 S2 + S2 S1 S2 + S2 S2 S1 - S1 S1 S1> + <Pi Pi Pi>, the
    Mermin part being the negated unprimed Mermin form (_W2_FORM),
    evaluated with the projector as one form in one moment pass;
    closed_form is -4t + 1 - p_vac on the same state, t its closed-form
    double sum (computed once per state), and agreement records their
    difference.  Negative value flags entanglement (separable bound 0).
    projected, a bool, evaluates on the vacuum-removed state.
    """
    state = _state_at(gamma, policy, state, _projected(projected))
    value = _form_value(state, _W2_FORM)
    closed = -4.0 * state._closed_form_t + 1.0 - state._vacuum_probability
    return _record(
        WitnessEvaluation,
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


def _sweep(gammas, evaluate, level=None, rising=False) -> SweepResult:
    """Evaluate evaluate(g) -> (value, diagnostics) at every gain, then
    bracket the first crossing of level: falling through it (value > level
    >= next) or, when rising, rising through it (value < level <= next).

    The threshold search reads evaluate(g)[0], the value the grid points carry,
    by find_crossing at tol 16 ulps of the bracket's top (with fewer, its aim
    leaves ITP no room to project): the crossing to a few ulps, or where the
    value jumps across the level.  A point that raises RuntimeError
    (ResummationError included) or ValueError becomes NaN marked failed, and
    NaN brackets nothing.  The grid must be an iterable of reals in [0, inf)
    (_real: no bool or string), strictly increasing; it is checked before the
    first evaluation.
    """
    gammas = tuple(_real("gammas", g, 0, closed="[)") for g in _typed("gammas", gammas, Iterable))
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be strictly increasing")
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
        bisect=lambda a, b: find_crossing(lambda g: evaluate(g)[0], level, a, b, 16 * math.ulp(b)),
    )


def mermin_sweep(gammas, policy: NumericPolicy = DEFAULT_POLICY) -> SweepResult:
    """Mermin LHS over a gain grid; the threshold is where it falls through 2.

    At gain 0 the LHS is exactly 2, so a grid starting there brackets
    nothing at its first point.
    """

    def evaluate(g):
        e = evaluate_mermin(g, policy)
        return e.lhs, {"reduced": e.reduced, "agreement": e.agreement}

    return _sweep(gammas, evaluate, CLASSICAL_BOUND)


def eta_threshold_sweep(gammas, policy: NumericPolicy = DEFAULT_POLICY) -> SweepResult:
    """eta_threshold per grid point; NaN with violated False where the
    inequality is not violated even with perfect detectors, and any other
    failure marked failed as in every sweep.  No threshold."""

    def evaluate(g):
        try:
            return eta_threshold(g, policy), {"violated": True}
        except _NotViolated:
            return math.nan, {"violated": False}

    return _sweep(gammas, evaluate)


def witness_sweep(
    which: int,
    gammas,
    projected: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> SweepResult:
    """w1 or w2 over a gain grid; the threshold is where the witness rises
    through 0 and loses its negativity; projected must be a bool."""
    which = _count("which", which, 1, 2)
    projected = _projected(projected)

    def evaluate(g):
        if which == 1:
            return witness_w1(g, projected, policy), {}
        e = evaluate_w2(g, projected, policy)
        return e.value, {"agreement": e.agreement}

    return _sweep(gammas, evaluate, 0.0, rising=True)
