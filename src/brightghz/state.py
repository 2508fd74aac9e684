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
made a float.  Weights and statistics are exact dyadic (mantissa,
exponent) integer pairs, each operation rounded half to even at its
precision by pade._rounded.  The amplitude box is rank one,
A[q, m] = u_q u_m, so one float outer product of those cutoff + 1 factor
amplitudes fills it.  The
built state itself is memoized per gain point and policy, with the shell
moments of its box, which the Stokes kernels read, and, once first read,
its closed-form t and vacuum probability: a warm build_bghz is one lookup
and returns the same frozen state.  Only this module reads a state's box.
A built state's amps is a read-only mapping read off its box.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import factorial, fsum, inf

import numpy as np

from brightghz.pade import DiagonalResummer, PoleProximityError, _float, _rounded
from brightghz.series_core import _count, c_series

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


def _gain(value) -> float:
    """value as a float; ValueError unless it is a finite real >= 0.

    Any real type is accepted, NumPy scalars and Fractions included, and
    converted once, so every gain walks the point of its float.
    """
    gamma = float(value) if isinstance(value, numbers.Real) else math.nan
    if not 0 <= gamma < inf:
        raise ValueError(f"gain must be finite and >= 0, got {value}")
    return gamma


class ResummationError(RuntimeError):
    """Diagonal ladder failed to settle; carries the deepest order reached."""

    def __init__(self, message: str, order_reached: int):
        super().__init__(message)
        self.order_reached = order_reached


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
            if not (name == "cutoff" and value is None):
                object.__setattr__(self, name, _count(name, value))
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
        object.__setattr__(self, "n", _count("n", self.n))
        if self.n < 1:
            raise ValueError(f"beam count n must be >= 1, got {self.n}")
        object.__setattr__(self, "gamma", _gain(self.gamma))

    @property
    def validity_warning(self) -> bool:
        """True past the gain where three-beam statistics stop converging."""
        return self.n >= 3 and self.gamma >= GAMMA_GUARD


@dataclass(frozen=True)
class TripleDistribution:
    """Normalized p(k) over retained k, with an estimate of the omitted tail.

    probs sums to 1 - tail_bound; mean, sum k p(k) over the retained
    probs, is correctly rounded (math.fsum), and None when the retained
    weights show no decay (diverged set) or the tail estimate is infinite.
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

        _shell_moments(self._box), built once per state; build_bghz bins
        the box when it builds the state.
        """
        return _shell_moments(self._box)

    @cached_property
    def _closed_form_t(self) -> float:
        """Double sum for t over the box, computed once per state.

        Each A[q, m] pairs with its direct partner A[q-1, m+1] and its
        transposed partner A[m-1, q+1], hopping one photon between the a and b
        modes in every party at once; the (x(y+1))^(3/2) weights are the
        three-party ladder factors and k^3 the Stokes normalization.  The
        transposed partner makes it <S1 S1 S1> only on exchange-symmetric
        boxes.  It reads the box, not the shell moments, so the Stokes
        cross-checks compare two different computations.
        """
        box = self._box
        # over (q, m) -> (q+1, m-1), entry [q, m-1]: ((q+1) m)^(3/2) / k^3
        q = np.arange(1, len(box))
        weight = np.outer(q, q) ** 1.5 / np.add.outer(q - 1, q) ** 3
        direct = (box[:-1, 1:].conj() * box[1:, :-1]).real
        transposed = (box.T[1:, :-1].conj() * box[:-1, 1:]).real
        return float((weight * (direct + transposed)).sum())

    @cached_property
    def _vacuum_probability(self) -> float:
        """|A[0, 0]|^2, the probability that no observer sees a photon."""
        return float(abs(self._box[0, 0]) ** 2)

    @classmethod
    def _from_box(
        cls,
        gamma: float,
        cutoff: int,
        box: np.ndarray,
        norm_residual: float,
        vacuum_projected: bool = False,
    ) -> BGHZState:
        """The state with amplitude box `box`, made read-only.

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
        state.__dict__["_box"] = box  # what the cached property would store
        return state

    @cached_property
    def _vacuum_projected(self) -> BGHZState:
        """project_out_vacuum(self), built once per state for the projected witnesses."""
        return project_out_vacuum(self)


class _BoxAmplitudes(Mapping):
    """Read-only mapping view {(q, m): complex(box[q, m])} of an amplitude box.

    Keys run over the box in q-major order from flat entry `first` on: 0,
    or 1 to leave out the (0, 0) entry of a vacuum-projected box.  Any other
    key raises KeyError.
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


# Per gain point, the settled series value or the ResummationError its
# ladder ended in.  Every new gain adds about cutoff + 1 values per beam
# count, so _VALUES is a most-recently-used dict capped at VALUES_MAX
# entries, over ten times what any benchmark workload holds.
_VALUES: dict[tuple, object] = {}
VALUES_MAX = 32768


@cache
def _resummer(n: int, k: int, L: int) -> DiagonalResummer:
    """The resummer of one coefficient series; bounded, as no gain enters its key."""
    return DiagonalResummer(c_series(k, n, L).coeffs)


def _series_value(n: int, k: int, gamma: float, policy: NumericPolicy) -> tuple[int, int]:
    """Resummed value of sum_j c_j u^j at u = -gamma**2, as (mantissa, exponent).

    A value is usable when the ladder meets the strict policy tolerance,
    or failing that when the last two orders tried both have values that
    agree to SOFT_AGREEMENT relative; otherwise the order budget genuinely
    cannot resolve this coefficient and ResummationError is raised.  A
    skipped final order (None) never settles, so two early orders cannot
    stand in for a ladder that broke down later, and a ladder without any
    value (PoleProximityError) fails at order 0.  Failures are cached like
    values, so a warm gain never walks a failed ladder again.
    """
    key = (n, k, gamma) + policy.key()
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
            got = _dyadic(result.value)
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
    n, k = _count("n", n), _count("k", k)
    if n < 1:
        raise ValueError(f"beam count n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"tuple number k must be >= 0, got {k}")
    gamma = _gain(gamma)
    if gamma == 0:
        return complex(1.0) if k == 0 else complex(0.0)
    s = _series_value(n, k, gamma, policy)
    m, e = _dyadic(gamma)
    magnitude = _float(*_mul(_rounded(m**k, e * k, policy.bits), s, policy.bits))
    return (1j) ** (k % 4) * magnitude


# Values are exact dyadics, (mantissa, exponent) integer pairs.  Each
# operation rounds its exact result half to even to the bits it is given.
def _dyadic(x) -> tuple[int, int]:
    """A finite float or dyadic Fraction as (mantissa, exponent), exactly."""
    m, d = x.as_integer_ratio()
    return m, 1 - d.bit_length()


def _add(a: tuple[int, int], b: tuple[int, int], bits: int, sign: int = 1) -> tuple[int, int]:
    """a + sign * b."""
    (m, e), (n, f) = a, b
    low = min(e, f)
    return _rounded((m << (e - low)) + sign * (n << (f - low)), low, bits)


def _mul(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    return _rounded(a[0] * b[0], a[1] + b[1], bits)


def _div(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    """a / b for b > 0."""
    return _rounded(a[0], a[1] - b[1], bits, b[0])


def _sqrt(a: tuple[int, int], bits: int) -> tuple[int, int]:
    """The square root of a >= 0, from math.isqrt with a sticky bit."""
    m, e = a
    if not m:
        return 0, 0
    shift = max(2 * bits + 4 - m.bit_length(), 0)
    shift += (e - shift) & 1  # an even exponent left
    n = m << shift
    root = math.isqrt(n)
    return _rounded(2 * root + (root * root != n), (e - shift) // 2 - 1, bits)


def _weight(n: int, gamma: float, k: int, policy: NumericPolicy) -> tuple[int, int]:
    """Unnormalized p-weight |C_k|^2 (k!)^n at policy.bits, as (mantissa, exponent).

    Taken as gamma^(2k) s s (k!)^n, left to right, every factor and
    partial product rounded at policy.bits.
    """
    if gamma == 0:
        return (1, 0) if k == 0 else (0, 0)
    bits, (m, e) = policy.bits, _dyadic(gamma)
    s = _series_value(n, k, gamma, policy)
    w = _mul(_mul(_rounded(m ** (2 * k), 2 * k * e, bits), s, bits), s, bits)
    f = _rounded(factorial(k), 0, bits)
    return _mul(w, _rounded(f[0] ** n, f[1] * n, bits), bits)


def _tail_estimate(w: list) -> float:
    """Geometric extrapolation of the omitted mass from the last two weights."""
    if len(w) < 2 or not w[-1][0]:
        return 0.0
    if not w[-2][0]:
        return inf
    r = _div(w[-1], w[-2], _STATS_BITS)
    if _float(*r) >= 1:
        return inf
    rest = _add((1, 0), r, _STATS_BITS, -1)
    return _float(*_div(_mul(w[-1], r, _STATS_BITS), rest, _STATS_BITS))


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
    shortfall = _float(*_add((1, 0), mass, _STATS_BITS, -1))
    return max(_tail_estimate(w), shortfall, 0.0)


# Precision of the statistics built from the weights: the retained mass,
# the tail estimate, the normalization and the probabilities, each rounded
# to it before it becomes a float.  53 bits is the precision the checked-in
# golden CSVs were made at.
_STATS_BITS = 53


def _retained_weights(
    n: int, gamma: float, policy: NumericPolicy
) -> tuple[list, tuple[int, int], float]:
    """(w, mass, tail): the retained weights |C_k|^2 (k!)^n, their sum and the omitted mass.

    The one place the cutoff is decided: pinned, or grown until the tail
    drops below TAIL_TARGET of the total, a ladder fails or CUTOFF_CAP.  One
    pass: each appended weight is added once to the running mass, left to
    right as sum() adds.  mass is rounded at _STATS_BITS after each addition
    and tail taken at _STATS_BITS; the weights are at policy.bits.
    """
    w: list = []
    mass = (0, 0)
    for k in range(2 if policy.cutoff is None else policy.cutoff + 1):
        w.append(_weight(n, gamma, k, policy))
        mass = _add(mass, w[-1], _STATS_BITS)
    tail = _omitted_mass(w, mass)
    if policy.cutoff is None:
        while len(w) - 1 < CUTOFF_CAP and (
            tail == inf or not tail < TAIL_TARGET * _float(*_add(mass, _dyadic(tail), _STATS_BITS))
        ):
            try:
                w.append(_weight(n, gamma, len(w), policy))
            except ResummationError:
                # the order budget cannot resolve deeper coefficients; stop
                # here and let the omitted-mass estimate carry the rest
                break
            mass = _add(mass, w[-1], _STATS_BITS)
            tail = _omitted_mass(w, mass)
    return w, mass, tail


def photon_distribution(spec: BrightStateSpec) -> TripleDistribution:
    """Probability of observing k emitted n-tuples, up to an adaptive cutoff.

    The weights and the cutoff are _retained_weights', the ladder build_bghz
    reads too; the statistics run at _STATS_BITS.
    """
    if spec.validity_warning:
        warnings.warn(
            f"gain {spec.gamma} is at or past the n={spec.n} validity boundary;"
            " photon statistics may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    w, mass, tail = _retained_weights(spec.n, spec.gamma, spec.policy)
    # no decay across the last five retained orders marks a diverging tail
    scaled = [_float(*x) * k * k for k, x in enumerate(w)]
    diverged = len(scaled) >= 5 and all(
        scaled[k + 1] >= scaled[k] for k in range(len(scaled) - 5, len(scaled) - 1)
    )
    # an infinite tail leaves the retained weights normalized on their own
    total = mass if tail == inf else _add(mass, _dyadic(tail), _STATS_BITS)
    probs = tuple(_float(*_div(x, total, _STATS_BITS)) for x in w)
    if tail == inf:
        diverged, tail_bound = True, inf
    else:
        tail_bound = _float(*_div(_dyadic(tail), total, _STATS_BITS))
    mean = None if diverged else fsum(k * p for k, p in enumerate(probs))
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
    factors are normalized at working precision and converted to floats
    once each; the box is their outer product.  The state is memoized per
    gain and policy, so a warm call returns the same frozen state.
    """
    gamma = _gain(gamma)
    if gamma >= GAMMA_GUARD:
        warnings.warn(
            f"gain {gamma} is at or past the guard {GAMMA_GUARD};"
            " bright-state construction may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    return _bright_state(gamma, policy)


# Bright state per gain point and policy, most recently used kept.
# Rebuilding it climbs the photon ladder again, re-reading every cached
# value, redoes the working-precision square roots and normalization and
# bins the box by shell: nearly all of a cold build_bghz once the values are
# cached.  A failed build raises, so only successful builds are kept.  At
# the cutoff cap an entry holds a 61 x 61 complex box (59.5 kB) and its
# moments (5.8 kB), twice that once a witness projects the state, so 32
# entries stay near 4 MB; no workload revisits more than 17 gains.
@lru_cache(maxsize=32)
def _bright_state(gamma: float, policy: NumericPolicy) -> BGHZState:
    """The state at gamma, box u u^T over u_q = i^q sign(s_q) sqrt(w_q / sum(w)),
    the three-beam weights w_q and series values s_q, with its shell moments."""
    w, _, _ = _retained_weights(3, gamma, policy)
    bits = policy.bits
    col = (0, 0)
    for x in w:
        col = _add(col, x, bits)
    norm_residual = abs(_float(*_add((1, 0), _mul(col, col, bits), bits, -1)))
    root = _sqrt(col, bits)  # amplitude normalization per factor state
    signs = [1 if _series_value(3, q, gamma, policy)[0] >= 0 else -1 for q in range(len(w))]
    factor = np.array(
        [
            (1j) ** (q % 4) * (signs[q] * _float(*_div(_sqrt(x, bits), root, bits)))
            for q, x in enumerate(w)
        ]
    )
    state = BGHZState._from_box(gamma, len(w) - 1, np.outer(factor, factor), norm_residual)
    state._moments  # binned here, so the first kernel call on a built state bins nothing
    return state


def project_out_vacuum(state: BGHZState) -> BGHZState:
    """Remove the global vacuum component and renormalize.

    On the exchange-symmetric diagonal an observer sees vacuum exactly when
    all of them do, so local and global vacuum projection coincide.  The
    box is copied with A[0, 0] zeroed, its squared magnitudes are summed
    correctly rounded (math.fsum, the same on every Python version; builtin
    sum compensates only from 3.12 on), and the scaled copy is handed to
    the projected state, whose amps has no (0, 0) key.
    """
    box = state._box.copy()
    box[0, 0] = 0.0
    total = fsum((np.abs(box) ** 2).ravel().tolist())
    if total <= 0:
        raise ValueError("state has no nonvacuum support to keep")
    box *= total**-0.5
    return BGHZState._from_box(
        state.gamma, state.cutoff, box, state.norm_residual, vacuum_projected=True
    )
