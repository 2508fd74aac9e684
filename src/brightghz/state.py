"""Resummed emission amplitudes, photon statistics, and the bright GHZ state.

A single n-beam source prepares sum_k C_k (Adag)**k |vac> with the series
data of `series_core` resummed by `pade`.  The probability of finding k
emitted n-tuples is p(k) = |C_k|**2 * (k!)**n.  Two such three-beam
emissions, one feeding the a-modes and one the b-modes of three observers,
prepare the bright GHZ state

    |BGHZ> = sum_{q,m} C_q C_m (Adag)**q (Bdag)**m |vac>,

which lives on the exchange-symmetric diagonal: every observer holds the
same occupation pair (q photons polarized a, m polarized b).

Statistics and states read one photon ladder, _retained_weights, whose
one loop forms each weight, adds it to the exact mass and decides the
cutoff; a gain of 0 climbs the same ladder, its weights 0 past k = 0.
Weights are exact dyadic (mantissa, exponent) integer pairs, each the
exact product of its integer factors rounded once, half to even, at
working precision (pade._rounded).  Sums and ratios of them are
exact.  Each probability, tail bound, mean, norm residual, resummed
coefficient and factor magnitude |u_q| of the state (the square root of a
normalized three-beam weight) is one rounding of an exact integer ratio to
a float.  The cutoff is decided by exact integer tests alone.  The
amplitude box is rank one, A[q, m] = u_q u_m, so one float outer product of
those cutoff + 1 factor amplitudes fills it.

Two bounded memos key on gain point and policy, cutoff included.
_retained_weights keeps the weights, the signs of their series values and
the cutoff per beam count: a repeated photon_distribution, or a state
built where the three-beam weights are kept, walks no ladder, and a failed
ladder is walked again.  _bright_state keeps the built state, with the
shell moments of its box, one read-only (6, shells) float array that the
Stokes kernels read, and, once first read, its closed-form t and vacuum
probability: a warm build_bghz is one lookup and returns the same frozen
state; the box geometry that no gain enters is one table per process
(_geometry).  Only this module reads a state's box.  A built state's amps
is a read-only mapping read off its box.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import fsum, inf

import numpy as np

from brightghz.pade import (
    _DEFAULT_BITS,
    _MAX_BITS,
    DiagonalResummer,
    PoleProximityError,
    _float,
    _rounded,
)
from brightghz.series_core import _MAX_BEAMS, _MAX_ROW, _count, _real, _series_pairs, _typed

__all__ = [
    "CUTOFF_CAP",
    "DEFAULT_POLICY",
    "NumericPolicy",
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
# agree to this relative level is accepted; anything looser is treated as
# unresolved.  The agreement does not bound the error: of 183 unconverged
# order-40 three-beam ladders (gamma 0.40-0.85, k 10-44) two that the rule
# accepts miss the order-60, 512-bit value by 4.6e-3 (gamma 0.75, k 35) and
# 4.4e-3 (gamma 0.85, k 31).  The auto cutoffs stop before both, at 32 and
# 29, so only a pinned cutoff reads them.
SOFT_AGREEMENT = 1e-3
# Gain from which three-beam statistics, and with them the bright state,
# stop converging; at or past it the builders warn (_warn_past_guard).
GAMMA_GUARD = 0.9
# The ceilings of a policy's pade_order and pinned cutoff: a build reads
# rows through cutoff + 4 max(pade_order, 40), within series_core's _MAX_ROW.
_MAX_PADE_ORDER = 100
_MAX_CUTOFF = _MAX_ROW - 4 * _MAX_PADE_ORDER


class ResummationError(RuntimeError):
    """Diagonal ladder failed to settle; carries the deepest order reached."""

    def __init__(self, message: str, order_reached: int):
        super().__init__(message)
        self.order_reached = order_reached


@dataclass(frozen=True)
class NumericPolicy:
    """Precision and truncation knobs shared by every resummed quantity.

    The only carrier of these four values: states, kernels and the CLI all
    read them from here.  cutoff None means: grow the photon cutoff until
    the estimated omitted probability mass drops below TAIL_TARGET, capped
    at CUTOFF_CAP.  tol must lie below SOFT_AGREEMENT: a looser strict
    level stops the ladder as soon as two early orders roughly agree.

    bits defaults to 128, not less: every output is a float64, but at 64
    bits the deepest pk_curve cells already move, by 2e-9 relative.  Every
    bits up to 256 and pade_order up to 40 reads the shipped tables, below
    256 bits coarsened, each coefficient charged the error it has; so the
    walk's error bound on the three-beam walks keeps about 88 bits of margin
    past 2**-(bits + 4) at 128 bits, against about 35 at 256 bits.  bits buy
    no ladder depth past the walk's headroom, which moves with them: at gain
    0.77 and pade_order 100 the k = 46 and 48 ladders fail at orders 97 and
    93 at 768, 1024 and 2048 bits alike.  ValueError names a field unless
    pade_order lies in [2, 100] (_MAX_PADE_ORDER), tol in (0, SOFT_AGREEMENT),
    cutoff, unless None, in [0, 200] (_MAX_CUTOFF) and bits in [64, 768]
    (pade._MAX_BITS); each count is an integer.  Cold on a 2-core VM, a
    policy at its ceilings builds in 4 s or less (gains 0.1 to 0.77).
    """

    pade_order: int = 40
    tol: float = 1e-10
    bits: int = _DEFAULT_BITS
    cutoff: int | None = None

    def __post_init__(self):
        order = _count("pade_order", self.pade_order, 2, _MAX_PADE_ORDER)
        cutoff = None if self.cutoff is None else _count("cutoff", self.cutoff, 0, _MAX_CUTOFF)
        bits = _count("bits", self.bits, 64, _MAX_BITS)
        for name, value in ("pade_order", order), ("bits", bits), ("cutoff", cutoff):
            object.__setattr__(self, name, value)
        _real("tol", self.tol, 0, SOFT_AGREEMENT)


DEFAULT_POLICY = NumericPolicy()


def _state_at(gamma, policy, state, projected: bool = False) -> BGHZState:
    """build_bghz(gamma, policy) if state is None, else state, which must be
    a BGHZState, with gamma and policy checked beside it as build_bghz does;
    its vacuum-removed twin (_vacuum_projected) when projected."""
    if state is None:
        state = build_bghz(gamma, policy)
    else:
        _real("gamma", gamma, 0, closed="[)")
        _typed("policy", policy, NumericPolicy)
        _typed("state", state, BGHZState)
    return state._vacuum_projected if projected else state


def _warn_past_guard(gamma: float) -> None:
    """RuntimeWarning, on the public caller's line, at or past GAMMA_GUARD."""
    if gamma >= GAMMA_GUARD:
        message = f"gain {gamma} is at or past the guard {GAMMA_GUARD}"
        warnings.warn(f"{message}; three-beam statistics may not converge", RuntimeWarning, 3)


@dataclass(frozen=True)
class TripleDistribution:
    """Normalized p(k) over retained k, with an estimate of the omitted tail.

    probs sums to 1 - tail_bound.  mean is sum k p(k) over the retained k,
    None when the retained weights show no decay (diverged set) or the tail
    estimate is infinite.  Each float is one rounding of an exact ratio.
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
        already.  A key that is not a pair of integer photon counts in [0,
        200] (_MAX_CUTOFF, the deepest built state) raises ValueError naming
        it: past 1448 photons the ladder factors' exact cube overflows int64.
        So does a key whose amplitude is no number, or has a NaN or infinite part.
        """
        try:
            index = np.fromiter(itertools.chain.from_iterable(self.amps), float)
            valid = set(map(len, self.amps)) <= {2} and np.all(
                (index >= 0) & (index <= _MAX_CUTOFF) & (index == np.trunc(index))
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            bad = next((key for key in self.amps if not _is_count_pair(key)), None)
            raise ValueError(f"amplitude key {bad!r} is not two photon counts <= {_MAX_CUTOFF}")
        index = index.astype(np.intp).reshape(-1, 2)
        try:
            values = np.fromiter(self.amps.values(), complex, len(index))
            valid = np.isfinite(values).all()
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            bad = next(key for key, value in self.amps.items() if not _is_finite_amplitude(value))
            raise ValueError(f"amplitude {self.amps[bad]!r} at key {bad!r} is not a finite number")
        box = np.zeros((index.max(initial=0) + 1,) * 2, complex)
        box[index[:, 0], index[:, 1]] = values
        return box

    @cached_property
    def _moments(self) -> np.ndarray:
        """Per-shell moments of the box: all that the selector kernels read of a state.

        _shell_moments(self._box), one read-only (6, shells) float array,
        rows M_0..M_3 then Re N and Im N, built once per state; build_bghz
        bins the box when it builds the state.  Every Stokes, Bell and
        witness value is one product of it with a form's weight rows and
        one NumPy sum (stokes module docstring).
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
        *_, weight = _geometry(len(box))
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


def _shell_moments(box: np.ndarray) -> np.ndarray:
    """Read-only per-shell moments of an amplitude box, one (6, shells) float array.

    Rows 0..3 are M_p[k] = sum (q - m)^p |A[q, m]|^2, rows 4 and 5 the real
    and imaginary parts of the band moment N[k] = sum conj(A[q, m])
    ((q+1) m)^(3/2) A[q+1, m-1], all over the pairs on shell k = q + m, for
    k up to twice the box's largest photon count; the stokes module
    docstring derives every selector triple from them.
    """
    shell, powers, ladder, _ = _geometry(len(box))
    shells = 2 * len(box) - 1
    weights, index = (powers * (box.real**2 + box.imag**2)).reshape(4, -1), shell.ravel()
    rows = [np.bincount(index, w, shells) for w in weights]
    band = (box[:-1, 1:].conj() * ladder * box[1:, :-1]).ravel()
    on = shell[:-1, 1:].ravel()
    rows += [np.bincount(on, band.real, shells), np.bincount(on, band.imag, shells)]
    moments = np.array(rows)
    moments.setflags(write=False)
    return moments


# A box's geometry, which no gain enters: [q + m, (q - m)^p for p = 0..3 as
# floats, the ladder factors ((q+1) m)^(3/2) at [q, m-1], each the root of the
# exact int64 cube (correctly rounded on any CPU, unlike NumPy's SIMD pow),
# and those over (q + m + 1)^3, the closed form's weights].  One read-only
# table grown to the largest side seen: sides stop at 201, about 2.3 MB.
_GEOMETRY: list[np.ndarray] = []


def _geometry(side: int) -> list[np.ndarray]:
    """_GEOMETRY sliced to a side x side box, grown first if it is smaller."""
    if not _GEOMETRY or len(_GEOMETRY[0]) < side:
        q = np.arange(side)
        shell, ladder = np.add.outer(q, q), np.sqrt(np.outer(q[1:], q[1:]) ** 3)
        powers = (np.subtract.outer(q, q) ** np.arange(4)[:, None, None]).astype(float)
        _GEOMETRY[:] = shell, powers, ladder, ladder / shell[:-1, 1:] ** 3
        for table in _GEOMETRY:
            table.setflags(write=False)
    (shell, powers, ladder, weight), full, band = _GEOMETRY, slice(side), slice(side - 1)
    return [shell[full, full], powers[:, full, full], ladder[band, band], weight[band, band]]


def _is_count_pair(key) -> bool:
    """BGHZState._box's test on the index array, for one key."""
    try:
        return all(0 <= c <= _MAX_CUTOFF and c % 1 == 0 for c in key) and len(key) == 2
    except TypeError:
        return False


def _is_finite_amplitude(value) -> bool:
    """BGHZState._box's test on the values array, for one value."""
    try:
        return bool(np.isfinite(np.fromiter((value,), complex, 1)).all())
    except (TypeError, ValueError, OverflowError):
        return False


# bench/tracing.py reads len(_VALUES); ROADMAP item 12 removes that read and this dict
_VALUES: dict = {}


@cache
def _resummer(n: int, k: int, L: int) -> DiagonalResummer:
    """The resummer of one coefficient series, held as series_core's exact pairs.

    Bounded, as no gain enters its key.  The store is asked for every k the
    auto cutoff can reach, so the ladder's series come from one pass.
    _series_value asks for at least the shipped tables' 81 terms, so one
    resummer, and one ladder per precision, serves every pade_order up to 40.
    """
    return DiagonalResummer._from_pairs(_series_pairs(k, n, L, CUTOFF_CAP))


def _series_value(n: int, k: int, gamma: float, policy: NumericPolicy, u=None) -> tuple[int, int]:
    """Resummed value of sum_j c_j u^j at u = -gamma**2 (unless given), as (mantissa, exponent).

    A value is usable when the ladder meets the strict policy tolerance,
    or failing that when the last two orders tried both have values that
    agree to SOFT_AGREEMENT relative; otherwise the order budget genuinely
    cannot resolve this coefficient and ResummationError is raised.  A
    skipped final order (None) never settles, so two early orders cannot
    stand in for a ladder that broke down later, and a ladder without any
    value (PoleProximityError) fails at order 0.  The pair is the rounded
    one that every result of resum carries (ResummationResult._dyadic).
    """
    resummer = _resummer(n, k, 2 * max(policy.pade_order, DEFAULT_POLICY.pade_order) + 1)
    if u is None:
        u = -(Fraction(gamma) ** 2)
    try:
        result = resummer.resum(u, max_order=policy.pade_order, tol=policy.tol, bits=policy.bits)
    except PoleProximityError as err:
        raise ResummationError(
            f"diagonal ladder for n={n}, k={k} has no value at gamma={gamma}: {err}",
            order_reached=0,
        ) from err
    if not result.converged:
        vals = [v for _, v in result.diagnostics[-2:]]
        settled = (
            len(vals) == 2
            and None not in vals
            and vals[-1] != 0
            and abs(vals[-1] - vals[-2]) <= SOFT_AGREEMENT * abs(vals[-1])
        )
        if not settled:
            raise ResummationError(
                f"diagonal ladder for n={n}, k={k} did not settle at"
                f" gamma={gamma} within order {result.order_used}",
                order_reached=result.order_used,
            )
    return result._dyadic


def resummed_coefficient(
    n: int, k: int, gamma: float, policy: NumericPolicy = DEFAULT_POLICY
) -> complex:
    """Emission coefficient C_k = (i*gamma)**k times the resummed series value.

    n is an integer in [1, 16] (_MAX_BEAMS), k one in [0, 200] (_MAX_CUTOFF,
    the deepest pinned cutoff) and gamma a real in [0, inf).
    """
    n, k = _count("n", n, 1, _MAX_BEAMS), _count("k", k, 0, _MAX_CUTOFF)
    gamma = _real("gamma", gamma, 0, closed="[)")
    sm, se = _series_value(n, k, gamma, _typed("policy", policy, NumericPolicy))
    m, e = _dyadic(gamma)
    # the phase i**k as a sign and a part, so each zero part is +0.0
    v = _float((-1) ** (k // 2) * m**k * sm, k * e + se)
    return complex(v, 0.0) if k % 2 == 0 else complex(0.0, v)


# Values are exact dyadics, (mantissa, exponent) integer pairs.
def _dyadic(x) -> tuple[int, int]:
    """A finite float or dyadic Fraction as (mantissa, exponent), exactly."""
    m, d = x.as_integer_ratio()
    return m, 1 - d.bit_length()


def _sum(*terms: tuple[int, int]) -> tuple[int, int]:
    """The exact sum of dyadics, at the least exponent among them."""
    total, low = terms[0]
    for m, e in terms[1:]:
        if e < low:
            total, low = (total << (low - e)) + m, e
        else:
            total += m << (e - low)
    return total, low


def _root(m: int, e: int, q: int) -> float:
    """The nearest float to sqrt(m / q * 2**e), for m >= 0 and q > 0: one
    divmod to 112 bits or more at an even exponent, one math.isqrt to 56 or
    more, and a sticky bit for either remainder, so _float rounds once."""
    shift = max(112 - m.bit_length() + q.bit_length(), 0)
    shift += (e - shift) & 1  # an even exponent left
    n, rest = divmod(m << shift, q)
    root = math.isqrt(n)
    return _float(2 * root + (rest != 0 or root * root != n), (e - shift) // 2 - 1)


def _omitted_mass(w: list, mass: tuple[int, int]) -> tuple[int, int, int] | None:
    """Best estimate of the probability mass beyond the retained weights w,
    exactly, as (m, e, q) for m / q * 2**e; None where it is infinite.

    mass is sum(w), at an exponent of at most 0 (_retained_weights sums it
    from (0, 0)).  The weights of a normalized emission state must
    total exactly 1, so the retained-sum shortfall measures the omitted
    mass directly; it stays honest even while the weight ratio is still
    climbing toward its limit, where a geometric extrapolation from the
    last two entries undershoots.  The larger of the two estimates is
    kept, which also preserves the geometric bound as the conservative
    choice whenever the ratio is falling instead.  With w the last weight
    and r its ratio to the one before, the geometric estimate is
    G = w r / (1 - r) = w**2 / (before - w): 0 for fewer than two weights
    or w = 0, and infinite where w >= before.

    The shortfall resolves the tail only down to the weights' own
    rounding, up to about (cutoff + 1) 2**-bits; below that it is noise (at a
    pinned cutoff of 12 and gain 5e-4, the two-beam tail reads 1.5e-86 at
    256 bits and 6.0e-40 at 128).
    """
    m, e = mass
    s = (1 << -e) - m  # the shortfall s 2**e
    if len(w) < 2 or not w[-1][0]:
        return max(s, 0), e, 1
    (a, f), (b, g) = w[-2], w[-1]
    low = min(f, g)
    q = (a << (f - low)) - (b << (g - low))  # before - w, at 2**low
    if q <= 0:
        return None
    n, g = b * b, 2 * g - low  # G = n / q * 2**g
    low = min(e, g)
    return (s, e, 1) if (s * q) << (e - low) > n << (g - low) else (n, g, q)


def _settled(tail: tuple[int, int, int], mass: tuple[int, int]) -> bool:
    """Whether tail < TAIL_TARGET (mass + tail), decided exactly on integers.

    With TAIL_TARGET = a / b exactly, the test is tail (b - a) < a mass.
    """
    (m, e, q), (n, f) = tail, mass
    low = min(e, f)
    return (m << (e - low)) * (_TARGET[1] - _TARGET[0]) < (_TARGET[0] * n * q) << (f - low)


# TAIL_TARGET as the exact ratio of integers the cutoff test reads.
_TARGET = TAIL_TARGET.as_integer_ratio()


# Per beam count, gain point and policy, cutoff included, most recently
# used kept: each ladder is walked once per entry, and a pinned cutoff walks
# its own.  A failed weight below k = 2 or at a pinned cutoff raises, so only
# complete ladders are kept, at most CUTOFF_CAP + 1 weights and signs each.
@lru_cache(maxsize=32)
def _retained_weights(
    n: int, gamma: float, policy: NumericPolicy
) -> tuple[tuple, tuple[int, ...], tuple[int, int], tuple[int, int, int] | None]:
    """(w, signs, mass, tail): the retained weights |C_k|^2 (k!)^n, the signs
    of their series values, their exact sum and the omitted mass.

    The one place the cutoff is decided, in one loop over k: pinned, or
    grown until the tail drops below TAIL_TARGET of the total (tested at
    every k >= 1), a ladder past k = 1 fails or CUTOFF_CAP.  Each weight is
    the exact product gamma^(2k) (k!)^n s^2, s the series value at u =
    -gamma**2, rounded once at policy.bits; the point and gamma^(2k) (k!)^n
    are carried from one k to the next.  The mass, tail and test are exact.
    """
    pinned = policy.cutoff
    (m, e), u, scale = _dyadic(gamma), -(Fraction(gamma) ** 2), 1
    w: list = []
    signs: list = []
    mass, tail = (0, 0), None
    for k in range(CUTOFF_CAP + 1 if pinned is None else pinned + 1):
        if k:
            scale *= m * m * k**n
        try:
            sm, se = _series_value(n, k, gamma, policy, u)
        except ResummationError:
            if pinned is not None or k < 2:
                raise
            # the order budget cannot resolve deeper coefficients; stop
            # here and let the omitted-mass estimate carry the rest
            break
        x = _rounded(scale * (sm * sm), 2 * (k * e + se), policy.bits)
        w.append(x)
        signs.append(1 if sm >= 0 else -1)
        mass = _sum(mass, x)
        if pinned is None and k:
            tail = _omitted_mass(w, mass)
            if tail is not None and _settled(tail, mass):
                break
    if pinned is not None:
        tail = _omitted_mass(w, mass)
    return tuple(w), tuple(signs), mass, tail


def photon_distribution(
    n: int, gamma: float, policy: NumericPolicy = DEFAULT_POLICY
) -> TripleDistribution:
    """Probability of observing k emitted n-tuples, up to an adaptive cutoff.

    n is an integer in [1, 16] (_MAX_BEAMS) and gamma a real in [0, inf);
    for n >= 3 it warns at or past GAMMA_GUARD.  The weights and the cutoff
    are _retained_weights', the ladder build_bghz reads too; the total is
    their mass plus the tail.
    """
    n, gamma = _count("n", n, 1, _MAX_BEAMS), _real("gamma", gamma, 0, closed="[)")
    _typed("policy", policy, NumericPolicy)
    if n >= 3:
        _warn_past_guard(gamma)
    w, _, mass, tail = _retained_weights(n, gamma, policy)
    # no decay across the last five retained orders marks a diverging tail;
    # a zero float (gain 0, or a weight past underflow) is no growth
    scaled = [_float(*x) * k * k for k, x in enumerate(w)]
    diverged = len(scaled) >= 5 and all(
        0 < scaled[k + 1] >= scaled[k] for k in range(len(scaled) - 5, len(scaled) - 1)
    )
    # each float is one rounding of its ratio to the total t / q * 2**e; an
    # infinite tail leaves the retained weights normalized on their own
    if tail is None:
        diverged, tail_bound, (t, e), q = True, inf, mass, 1
    else:
        q = tail[2]
        t, e = _sum((mass[0] * q, mass[1]), tail[:2])
        tail_bound = _float(tail[0], tail[1] - e, t)
    probs = tuple(_float(m * q, f - e, t) for m, f in w)
    m, f = _sum(*((k * m, f) for k, (m, f) in enumerate(w)))  # sum k w_k
    mean = None if diverged else _float(m * q, f - e, t)
    return TripleDistribution(
        n=n,
        gamma=gamma,
        probs=probs,
        tail_bound=tail_bound,
        mean=mean,
        diverged=diverged,
    )


def build_bghz(gamma: float, policy: NumericPolicy = DEFAULT_POLICY) -> BGHZState:
    """Construct the normalized bright GHZ state at the given gain.

    Raw amplitudes are C_q * C_m * (q! m!)**1.5 over pairs with q, m <= the
    cutoff.  The cutoff and the factor magnitudes |C_q| (q!)**1.5, square
    roots of the three-beam weights, come from _retained_weights.  Each
    normalized factor is one rounding of its exact root to a float
    (_root); the box is their outer product.  The state is memoized per
    gain and policy, so a warm call returns the same frozen state.
    """
    gamma, policy = _real("gamma", gamma, 0, closed="[)"), _typed("policy", policy, NumericPolicy)
    _warn_past_guard(gamma)
    return _bright_state(gamma, policy)


# Bright state per gain point and policy, most recently used kept.
# Rebuilding it reads the retained weights and signs, walking the photon
# ladder again unless _retained_weights still holds them, redoes the
# normalization and the correctly rounded square roots and bins the box by
# shell.  A failed build raises, so only successful builds are kept.  At
# the cutoff cap an entry holds a 61 x 61 complex box (59.5 kB) and its
# moments (5.8 kB), twice that once a witness projects the state, so 32
# entries stay near 4 MB; no workload revisits more than 17 gains.
@lru_cache(maxsize=32)
def _bright_state(gamma: float, policy: NumericPolicy) -> BGHZState:
    """The state at gamma, box u u^T over u_q = i^q sign(s_q) sqrt(w_q / W),
    each root rounded once (_root), the three-beam weights w_q, the signs of
    the series values s_q and W, the weights' exact sum, from
    _retained_weights; norm_residual is one rounding of |1 - W^2|.  With its
    shell moments."""
    w, signs, (cm, ce), _ = _retained_weights(3, gamma, policy)
    norm_residual = abs(_float(*_sum((1, 0), (-cm * cm, 2 * ce))))
    factor = np.array(
        [(1j) ** (q % 4) * (signs[q] * _root(m, e - ce, cm)) for q, (m, e) in enumerate(w)]
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
    the projected state, whose amps has no (0, 0) key.  TypeError unless
    state is a BGHZState.
    """
    box = _typed("state", state, BGHZState)._box.copy()
    box[0, 0] = 0.0
    total = fsum(memoryview((np.abs(box) ** 2).ravel()))
    if total <= 0:
        raise ValueError("state has no nonvacuum support to keep")
    box *= total**-0.5
    return BGHZState._from_box(
        state.gamma, state.cutoff, box, state.norm_residual, vacuum_projected=True
    )
