"""Resummed emission amplitudes, photon statistics, and the bright GHZ state.

A single n-beam source prepares sum_k C_k (Adag)**k |vac> with the series
data of `series_core` resummed by `pade`.  The probability of finding k
emitted n-tuples is p(k) = |C_k|**2 * (k!)**n.  Two such three-beam
emissions, one feeding the a-modes and one the b-modes of three observers,
prepare the bright GHZ state

    |BGHZ> = sum_{q,m} C_q C_m (Adag)**q (Bdag)**m |vac>,

which lives on the exchange-symmetric diagonal: every observer holds the
same occupation pair (q photons polarized a, m polarized b).

Statistics and states read one photon ladder, _retained_weights, where the
cutoff is decided: each factor magnitude |u_q| of the state is the square
root of a normalized three-beam weight, taken at working precision, then
made a float.  The amplitude box is rank one, A[q, m] = u_q u_m, so one
float outer product of those cutoff + 1 factor amplitudes fills it.  The
factor amplitudes and the shell moments of their box, all that the Stokes
kernels read of a state, are memoized per gain point and cutoff request: a
warm build_bghz does no working-precision work and bins nothing, only the
lookup and the outer product.  A built state's amps is a read-only mapping
read off its box.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, inf

import numpy as np
from mpmath import mp, mpf

from brightghz.pade import DiagonalResummer, PoleProximityError
from brightghz.series_core import c_series

__all__ = [
    "CUTOFF_CAP",
    "DEFAULT_POLICY",
    "NumericPolicy",
    "BrightStateSpec",
    "TripleDistribution",
    "BGHZState",
    "ResummationError",
    "resummed_coefficient",
    "photon_distribution",
    "build_bghz",
    "project_out_vacuum",
]

TAIL_TARGET = 1e-10
CUTOFF_CAP = 60
# Deep emission orders stop meeting the strict ladder tolerance long before
# their values turn into noise.  A value whose final two diagonal entries
# agree to this relative level is still good to ~0.1 percent, which enters
# probabilities squared at ~0.2 percent: ample for any downstream float
# use.  Anything looser is treated as unresolved.
SOFT_AGREEMENT = 1e-3
# Gain from which three-beam statistics, and with them the bright state,
# stop converging; at or past it the builders warn.
GAMMA_GUARD = 0.9


class ResummationError(RuntimeError):
    """Diagonal ladder failed to settle; carries the deepest order reached."""

    def __init__(self, message: str, order_reached: int):
        super().__init__(message)
        self.order_reached = order_reached


def _is_count(value) -> bool:
    """True for an integer in the operator.index sense that is not a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


@dataclass(frozen=True)
class NumericPolicy:
    """Precision and truncation knobs shared by every resummed quantity.

    The only carrier of these four values: specs, states, kernels and the
    CLI all read them from here.  cutoff None means: grow the photon cutoff
    until the estimated omitted probability mass drops below TAIL_TARGET,
    capped at CUTOFF_CAP.  tol must lie below SOFT_AGREEMENT: a looser
    strict level stops the ladder as soon as two early orders roughly agree.
    """

    pade_order: int = 40
    tol: float = 1e-10
    bits: int = 256
    cutoff: int | None = None

    def __post_init__(self):
        for name in ("pade_order", "bits", "cutoff"):
            value = getattr(self, name)
            if not (_is_count(value) or name == "cutoff" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.pade_order < 2:
            raise ValueError(f"pade_order must be >= 2, got {self.pade_order}")
        if not 0 < self.tol < SOFT_AGREEMENT:
            raise ValueError(
                f"tol must be > 0 and below the soft level {SOFT_AGREEMENT}, got {self.tol}"
            )
        if self.bits < 64:
            raise ValueError(f"bits must be >= 64, got {self.bits}")
        if self.cutoff is not None and self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")

    def key(self) -> tuple:
        """Identity of a resummed value: everything but the cutoff."""
        return (self.pade_order, self.tol, self.bits)


DEFAULT_POLICY = NumericPolicy()


@dataclass(frozen=True)
class BrightStateSpec:
    """One emission configuration: beam count, gain, and numeric policy.

    The policy carries pade_order, tol, bits and the cutoff; the spec holds
    no copies of them.
    """

    n: int
    gamma: float
    policy: NumericPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"beam count n must be >= 1, got {self.n}")
        if not 0 <= self.gamma < inf:
            raise ValueError(f"gain must be finite and >= 0, got {self.gamma}")

    @property
    def validity_warning(self) -> bool:
        """True past the gain where three-beam statistics stop converging."""
        return self.n >= 3 and self.gamma >= GAMMA_GUARD


@dataclass(frozen=True)
class TripleDistribution:
    """Normalized p(k) over retained k, with an estimate of the omitted tail.

    probs sums to 1 - tail_bound; mean is None when the retained weights
    show no decay (diverged set) or the tail estimate is infinite.
    """

    n: int
    gamma: float
    probs: tuple[float, ...]
    tail_bound: float
    mean: float | None
    diverged: bool

    @property
    def cutoff(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class BGHZState:
    """Bright GHZ state on the exchange-symmetric diagonal, unit norm.

    amps maps photon counts (q, m) to the amplitude of the joint ket in
    which every one of the three observers holds q photons in its a-mode
    and m in its b-mode.  norm_residual records |1 - sum|amp|^2| before
    renormalization, a joint measure of truncation loss and resummation drift.
    Any mapping of amplitudes can be given as amps.  build_bghz and
    project_out_vacuum hand over a read-only box instead (_from_box), and
    amps is then a read-only mapping view of it, in q-major order.
    """

    gamma: float
    cutoff: int
    amps: Mapping[tuple[int, int], complex]
    norm_residual: float
    vacuum_projected: bool = False

    @cached_property
    def _box(self) -> np.ndarray:
        """The amplitudes as a dense complex array A[q, m], zero off the keys.

        Built once per state, with one vectorized conversion, and shared by
        every Stokes kernel call on it; a state from _from_box holds it
        already.  A key that is not a pair of non-negative integer photon
        counts raises ValueError naming it.
        """
        try:
            index = np.fromiter(itertools.chain.from_iterable(self.amps), float)
            valid = set(map(len, self.amps)) <= {2} and np.all(
                (index >= 0) & (index < np.inf) & (index == np.trunc(index))
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            bad = next((key for key in self.amps if not _is_count_pair(key)), None)
            raise ValueError(f"amplitude key {bad!r} is not a pair of photon counts")
        index = index.astype(np.intp).reshape(-1, 2)
        box = np.zeros((index.max(initial=0) + 1,) * 2, complex)
        box[index[:, 0], index[:, 1]] = np.fromiter(self.amps.values(), complex, len(index))
        return box

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-shell moments of the box: all that the selector kernels read of a state.

        _shell_moments(self._box), built once per state; build_bghz hands a
        state the moments memoized for its gain.
        """
        return _shell_moments(self._box)

    @classmethod
    def _from_box(
        cls,
        gamma: float,
        cutoff: int,
        box: np.ndarray,
        norm_residual: float,
        moments: tuple[np.ndarray, np.ndarray] | None = None,
        vacuum_projected: bool = False,
    ) -> BGHZState:
        """The state with amplitude box `box`, made read-only, and its shell moments if known.

        amps is a read-only view of the box (_BoxAmplitudes); a
        vacuum-projected state's view has no (0, 0) key.
        """
        box.setflags(write=False)
        state = cls(
            gamma=gamma,
            cutoff=cutoff,
            amps=_BoxAmplitudes(box, int(vacuum_projected)),
            norm_residual=norm_residual,
            vacuum_projected=vacuum_projected,
        )
        # what the cached properties would store
        state.__dict__["_box"] = box
        if moments is not None:
            state.__dict__["_moments"] = moments
        return state

    @cached_property
    def _vacuum_projected(self) -> BGHZState:
        """project_out_vacuum(self), built once per state for the projected witnesses."""
        return project_out_vacuum(self)


class _BoxAmplitudes(Mapping):
    """Read-only mapping view {(q, m): complex(box[q, m])} of an amplitude box.

    Keys run over the box in q-major order, the order project_out_vacuum
    sums in, from flat entry `first` on: 0, or 1 to leave out the (0, 0)
    entry of a vacuum-projected box.  Any other key raises KeyError.
    """

    __slots__ = ("_box", "_first")

    def __init__(self, box: np.ndarray, first: int = 0):
        self._box = box
        self._first = first

    def __getitem__(self, key) -> complex:
        side = len(self._box)
        try:
            q, m = key
            if q % 1 == 0 == m % 1 and 0 <= q < side and 0 <= m < side:
                if q * side + m >= self._first:
                    return complex(self._box[int(q), int(m)])
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        pairs = itertools.product(range(len(self._box)), repeat=2)
        return itertools.islice(pairs, self._first, None)

    def __len__(self) -> int:
        return self._box.size - self._first

    def __repr__(self) -> str:
        return repr(dict(self))


def _shell_moments(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-shell moments (M, N) of an amplitude box.

    M[p, k] = sum (q - m)^p |A[q, m]|^2 for p = 0..3 and the band moment
    N[k] = sum conj(A[q, m]) ((q+1) m)^(3/2) A[q+1, m-1], both over the
    pairs on shell k = q + m, for k up to twice the box's largest photon
    count; the stokes module docstring derives every selector triple from
    them.
    """
    q = np.arange(len(box))
    shells = 2 * len(box) - 1
    k = np.add.outer(q, q)
    mass = (box.real**2 + box.imag**2).ravel()
    powers = np.subtract.outer(q, q).ravel() ** np.arange(4)[:, None]
    moments = np.array([np.bincount(k.ravel(), w, shells) for w in powers * mass])
    # over (q, m) -> (q+1, m-1), entry [q, m-1], on shell k[q, m]
    band = (box[:-1, 1:].conj() * np.outer(q[1:], q[1:]) ** 1.5 * box[1:, :-1]).ravel()
    on = k[:-1, 1:].ravel()
    hops = np.bincount(on, band.real, shells) + 1j * np.bincount(on, band.imag, shells)
    moments.setflags(write=False)
    hops.setflags(write=False)
    return moments, hops


def _is_count_pair(key) -> bool:
    """BGHZState._box's test on the index array, for one key."""
    try:
        return all(c >= 0 and c % 1 == 0 for c in key) and len(key) == 2
    except TypeError:
        return False


# Resummer per coefficient series, and per gain point the settled series
# value or the ResummationError its ladder ended in.  _RESUMMERS is bounded
# by construction: its key (n, k, L) does not depend on the gain.  Every
# new gain adds about cutoff + 1 values per beam count, so _VALUES is a
# most-recently-used dict capped at VALUES_MAX entries, over ten times what
# any benchmark workload holds.
_RESUMMERS: dict[tuple[int, int, int], DiagonalResummer] = {}
_VALUES: dict[tuple, object] = {}
VALUES_MAX = 32768
# Bright-state factor per gain point and cutoff request, most recently used
# last: the cutoff (the auto one, when the policy pins none), the read-only
# normalized factor amplitudes u_q, the norm residual and the read-only shell
# moments of the box u u^T.  Rebuilding them climbs the photon ladder again,
# re-reading every cached value, redoes the working-precision square roots
# and normalization and bins the box by shell: nearly all of a warm
# build_bghz.  Keyed like _VALUES (three beams, no tuple number) plus the
# pinned cutoff or None, and holding only successful builds.  An entry holds
# at most CUTOFF_CAP + 1 numbers for any auto cutoff, so the cap of
# VALUES_MAX // (CUTOFF_CAP + 1) entries (537) holds no more factor numbers
# than _VALUES holds values; with the moments (4 x 121 floats and 121
# complex at the auto cutoff's most) an entry is about 7 kB, under 4 MB in all.
_FACTORS: dict[tuple, tuple[int, np.ndarray, float, tuple[np.ndarray, np.ndarray]]] = {}


def _resummer(n: int, k: int, L: int) -> DiagonalResummer:
    key = (n, k, L)
    got = _RESUMMERS.get(key)
    if got is None:
        got = DiagonalResummer(c_series(k, n, L).coeffs)
        _RESUMMERS[key] = got
    return got


def _series_value(n: int, k: int, gamma: float, policy: NumericPolicy):
    """Resummed value of sum_j c_j u^j at u = -gamma**2, as a working-precision real.

    A value is usable when the ladder meets the strict policy tolerance,
    or failing that when the last two orders tried both have values that
    agree to SOFT_AGREEMENT relative; otherwise the order budget genuinely
    cannot resolve this coefficient and ResummationError is raised.  A
    skipped final order (None) never settles, so two early orders cannot
    stand in for a ladder that broke down later, and a ladder without any
    value (PoleProximityError) fails at order 0.  Failures are cached like
    values, so a warm gain never walks a failed ladder again.
    """
    key = (n, k, float(gamma)) + policy.key()
    got = _VALUES.pop(key, None)
    if got is None:
        resummer = _resummer(n, k, 2 * policy.pade_order + 1)
        u = -(Fraction(gamma) ** 2)
        try:
            result = resummer.resum(
                u, max_order=policy.pade_order, tol=policy.tol, bits=policy.bits
            )
        except PoleProximityError as err:
            got = ResummationError(
                f"diagonal ladder for n={n}, k={k} has no value at gamma={gamma}: {err}",
                order_reached=0,
            )
        else:
            got = result.value
            if not result.converged:
                vals = [v for _, v in result.diagnostics[-2:]]
                settled = (
                    len(vals) == 2
                    and None not in vals
                    and vals[-1] != 0
                    and abs(vals[-1] - vals[-2]) <= SOFT_AGREEMENT * abs(vals[-1])
                )
                if not settled:
                    got = ResummationError(
                        f"diagonal ladder for n={n}, k={k} did not settle at"
                        f" gamma={gamma} within order {result.order_used}",
                        order_reached=result.order_used,
                    )
    _VALUES[key] = got
    if len(_VALUES) > VALUES_MAX:
        del _VALUES[next(iter(_VALUES))]
    if isinstance(got, ResummationError):
        # raise a fresh copy, so the cached error never holds a traceback
        raise ResummationError(str(got), got.order_reached)
    return got


def resummed_coefficient(
    n: int, k: int, gamma: float, policy: NumericPolicy = DEFAULT_POLICY
) -> complex:
    """Emission coefficient C_k = (i*gamma)**k times the resummed series value."""
    if n < 1:
        raise ValueError(f"beam count n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"tuple number k must be >= 0, got {k}")
    if not 0 <= gamma < inf:
        raise ValueError(f"gain must be finite and >= 0, got {gamma}")
    if gamma == 0:
        return complex(1.0) if k == 0 else complex(0.0)
    s = _series_value(n, k, gamma, policy)
    with mp.workprec(policy.bits):
        magnitude = float(mpf(gamma) ** k * s)
    return (1j) ** (k % 4) * magnitude


def _weight(n: int, gamma: float, k: int, policy: NumericPolicy):
    """Unnormalized p-weight |C_k|^2 (k!)^n as a working-precision real."""
    with mp.workprec(policy.bits):
        if gamma == 0:
            return mpf(1) if k == 0 else mpf(0)
        s = _series_value(n, k, gamma, policy)
        return mpf(gamma) ** (2 * k) * s * s * mpf(factorial(k)) ** n


def _tail_estimate(w: list) -> float:
    """Geometric extrapolation of the omitted mass from the last two weights."""
    if len(w) < 2 or w[-1] == 0:
        return 0.0
    if w[-2] == 0:
        return float("inf")
    r = w[-1] / w[-2]
    if r >= 1:
        return float("inf")
    return float(w[-1] * r / (1 - r))


def _omitted_mass(w: list, mass) -> float:
    """Best estimate of the probability mass beyond the retained weights w.

    mass is sum(w).  The weights of a normalized emission state must
    total exactly 1, so the retained-sum shortfall measures the omitted
    mass directly; it stays honest even while the weight ratio is still
    climbing toward its limit, where a geometric extrapolation from the
    last two entries undershoots.  The larger of the two estimates is
    kept, which also preserves the geometric bound as the conservative
    choice whenever the ratio is falling instead.
    """
    geometric = _tail_estimate(w)
    if geometric == float("inf"):
        return geometric
    shortfall = float(1 - mass)
    return max(geometric, shortfall, 0.0)


# Precision of the statistics built from the weights: the retained mass,
# the tail estimate, the normalization and the mean.  Pinned, so a caller's
# global mpmath precision cannot move them; 53 bits is the precision the
# checked-in golden CSVs were made at.
_STATS_BITS = 53


def _retained_weights(n: int, gamma: float, policy: NumericPolicy) -> tuple[list, object, float]:
    """(w, mass, tail): the retained weights |C_k|^2 (k!)^n, their sum and the omitted mass.

    The one place the cutoff is decided: pinned, or grown until the tail
    drops below TAIL_TARGET of the total, a ladder fails or CUTOFF_CAP.  One
    pass: each appended weight is added once to the running mass, left to
    right as sum() adds.  mass and tail are taken at _STATS_BITS whatever the
    global mpmath precision; the weights are working-precision reals.
    """
    with mp.workprec(_STATS_BITS):
        w: list = []
        mass = 0
        for k in range(2 if policy.cutoff is None else policy.cutoff + 1):
            w.append(_weight(n, gamma, k, policy))
            mass = mass + w[-1]
        tail = _omitted_mass(w, mass)
        if policy.cutoff is None:
            while not tail < TAIL_TARGET * float(mass + tail) and len(w) - 1 < CUTOFF_CAP:
                try:
                    w.append(_weight(n, gamma, len(w), policy))
                except ResummationError:
                    # the order budget cannot resolve deeper coefficients; stop
                    # here and let the omitted-mass estimate carry the rest
                    break
                mass = mass + w[-1]
                tail = _omitted_mass(w, mass)
    return w, mass, tail


def photon_distribution(spec: BrightStateSpec) -> TripleDistribution:
    """Probability of observing k emitted n-tuples, up to an adaptive cutoff.

    The weights and the cutoff are _retained_weights', the ladder build_bghz
    reads too; the statistics run at _STATS_BITS whatever the global precision.
    """
    if spec.validity_warning:
        warnings.warn(
            f"gain {spec.gamma} is at or past the n={spec.n} validity boundary;"
            " photon statistics may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    w, mass, tail = _retained_weights(spec.n, spec.gamma, spec.policy)
    with mp.workprec(_STATS_BITS):
        # no decay across the last five retained orders marks a diverging tail
        scaled = [float(w[k]) * k * k for k in range(len(w))]
        diverged = len(scaled) >= 5 and all(
            scaled[k + 1] >= scaled[k] for k in range(len(scaled) - 5, len(scaled) - 1)
        )
        if tail == float("inf"):
            diverged = True
            probs = tuple(float(x / mass) for x in w)
            tail_bound = float("inf")
            mean = None
        else:
            total = mass + mpf(tail)
            probs = tuple(float(x / total) for x in w)
            tail_bound = float(mpf(tail) / total)
            mean = None if diverged else float(sum(k * p for k, p in enumerate(probs)))
    return TripleDistribution(
        n=spec.n,
        gamma=spec.gamma,
        probs=probs,
        tail_bound=tail_bound,
        mean=mean,
        diverged=diverged,
    )


def build_bghz(gamma: float, policy: NumericPolicy = DEFAULT_POLICY) -> BGHZState:
    """Construct the normalized bright GHZ state at the given gain.

    Raw amplitudes are C_q * C_m * (q! m!)**1.5 over pairs with q, m <= the
    cutoff.  The cutoff and the factor magnitudes |C_q| (q!)**1.5, square
    roots of the three-beam weights, come from _retained_weights.  The
    factors, normalized at working precision and converted to floats once
    each, are memoized per gain with the shell moments of their box; the box
    is their outer product, handed to the state with those moments.
    """
    if not 0 <= gamma < inf:
        raise ValueError(f"gain must be finite and >= 0, got {gamma}")
    if gamma >= GAMMA_GUARD:
        warnings.warn(
            f"gain {gamma} is at or past the guard {GAMMA_GUARD};"
            " bright-state construction may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    if gamma == 0:
        return BGHZState._from_box(0.0, policy.cutoff or 0, np.ones((1, 1), complex), 0.0)
    key = (float(gamma), policy.cutoff) + policy.key()
    got = _FACTORS.pop(key, None)
    if got is None:
        got = _factor(gamma, policy)
    _FACTORS[key] = got
    if len(_FACTORS) > VALUES_MAX // (CUTOFF_CAP + 1):
        del _FACTORS[next(iter(_FACTORS))]
    cutoff, factor, norm_residual, moments = got
    return BGHZState._from_box(gamma, cutoff, np.outer(factor, factor), norm_residual, moments)


def _factor(gamma: float, policy: NumericPolicy) -> tuple:
    """(cutoff, read-only u_q = i^q sign(s_q) sqrt(w_q / sum(w)), norm_residual, moments of
    u u^T) at gamma > 0, over the three-beam weights w_q and the series values s_q."""
    w, _, _ = _retained_weights(3, gamma, policy)
    with mp.workprec(policy.bits):
        col = sum(w)
        norm_residual = float(abs(1 - col * col))
        root = col**0.5  # amplitude normalization per factor state
        signs = [1 if _series_value(3, q, gamma, policy) >= 0 else -1 for q in range(len(w))]
        factor = np.array(
            [(1j) ** (q % 4) * (signs[q] * float(x**0.5 / root)) for q, x in enumerate(w)]
        )
    factor.setflags(write=False)
    return len(w) - 1, factor, norm_residual, _shell_moments(np.outer(factor, factor))


def project_out_vacuum(state: BGHZState) -> BGHZState:
    """Remove the global vacuum component and renormalize.

    On the exchange-symmetric diagonal an observer sees vacuum exactly when
    all of them do, so local and global vacuum projection coincide.  The
    box is copied with A[0, 0] zeroed, its squared magnitudes are summed
    left to right in q-major order, and the scaled copy is handed to the
    projected state, whose amps has no (0, 0) key.
    """
    box = state._box.copy()
    box[0, 0] = 0.0
    total = sum(abs(a) ** 2 for a in box.ravel().tolist())
    if total <= 0:
        raise ValueError("state has no nonvacuum support to keep")
    box *= total**-0.5
    return BGHZState._from_box(
        state.gamma, state.cutoff, box, state.norm_residual, vacuum_projected=True
    )
