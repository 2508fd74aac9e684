"""Diagonal Pade resummation for factorially divergent power series.

The emission-series coefficients grow too fast for any positive radius of
convergence once three or more beams are coupled, so partial sums are
useless beyond tiny gains.  The standard cure is to replace the truncated
series by the [N/M] Pade rational

    Q(x) = (X_0 + X_1 x + ... + X_N x**N) / (1 + Y_1 x + ... + Y_M x**M),

whose Taylor expansion matches the series through order N + M, and to walk
the diagonal [1/1], [2/2], ... until two successive values agree.

Walking the diagonal does not build the rationals at all.  The series
has a corresponding continued fraction (C-fraction)

    c_0 / (1 - a_1 x / (1 - a_2 x / (1 - ...))),

whose 2N-th convergent is the [N/N] approximant and whose coefficients
a_j do not depend on x.  Rutishauser's quotient-difference (qd) algorithm
finds them with O(order**2) high-precision operations, once per series and
precision, and only as far as some walk has read: a walk that settles at
[N/N] reads a_1..a_2N, and the table resumes from its last anti-diagonal
when a later walk reads further.  qd runs on binary fixed-point integers
and hands each a_i out once as the integer a_i 2**F; each point then
costs one O(order) forward (Wallis) recurrence on those integers.
Both steps lose bits to cancellation, so each runs well above the
requested precision: a second qd run, 64 bits coarser, sizes each
coefficient's error, and the walk carries a running bound on its own.
The first order that qd did not reach (a zero divisor broke the table) or
whose bound no longer keeps the value within 2**-bits relative ends the
walk unconverged, recorded with no value.  Each order's float comes from
one int true division, and the tolerance test runs on those floats within
a proven error margin, falling back to exact integers only inside it.  So
the exact quotient is formed once per walk, for the value handed out: a
(mantissa, exponent) pair, rounded once (half to even) to the walk's
precision by _rounded, the one rounding rule that state applies too.  state
reads that pair; the result forms its exact dyadic Fraction only when read.

The coefficients depend only on the series and the precision, never on
the point, so the three-beam tables (tuple numbers 0..CUTOFF_CAP, 81
terms, at _SHIPPED_BITS = 256) ship with the package as cfractions.bin:
the marshal (version 2) bytes of a dict from each table's name to its
value-run integers a_i 2**F.  One table serves every precision up to 256
bits: a ladder at fewer bits reads each a_i 2**F rounded (half to even) to
its own value scale, which on every series tried is qd's value run at
those bits, integer for integer.  state holds each series at 81 terms for
every pade_order up to 40, so a lower order reads a prefix of the same
table.  Every walk of a Bell scan at such a policy, the default 128 bits
included, thus reads a shipped table.  The first lookup reads and loads
the file whole, once per process; walks then read a table's coefficients
one at a time through the same ladder runs that qd feeds, so a walk that
settles at [N/N] reads a_1..a_2N.  A damaged file fails the load with
marshal's own error.  A table is named by a checksum of everything that
determines it (_name): the coefficients as the exact integer pairs
(p_j, q_j) the resummer holds (for state's resummers, series_core's
unreduced (P[k, k + 2j], (k + 2j)!), so no gcd is paid to look a table
up), bits, and both qd runs' fraction bits and scales.  So a table is read
only where the code would compute exactly those numbers (at 256 bits, or
coarsened from them); the same series held in other pairs (its reduced
Fractions, or a shorter prefix, say) only misses the archive, as does any
other series or a precision past 256 bits, including a changed guard
constant, and runs qd as above to the identical table.  qd runs on Python
integers, exact on every platform, so a stored table is the one the code
computes.  `python -m brightghz._cftables` rewrites the archive, and a
test regenerates it and compares it byte for byte.
"""

from __future__ import annotations

import functools
import marshal
import math
import numbers
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from brightghz.series_core import _count, _real, _typed

__all__ = [
    "ResummationResult",
    "PoleProximityError",
    "diagonal_resum",
    "DiagonalResummer",
]


class PoleProximityError(ArithmeticError):
    """Evaluation point sits numerically on a denominator zero."""


@dataclass(frozen=True)
class ResummationResult:
    """Outcome of walking the diagonal approximant ladder at one point.

    ``value`` is an exact dyadic Fraction at the full working precision
    (bits + 3 * _GUARD_BITS bits for a walk, bits + 64 for a summed
    polynomial); resum forms it only when it is read, as state reads the
    rounded (mantissa, exponent) pair instead.  ``diagnostics`` holds one
    (order, value) pair per diagonal order tried, and a final value None
    marks the order at which the ladder stopped without a value.  converged
    means the last two retained values agreed to tol relative, which also
    bounds them by tol * max(1, |value|).
    """

    value: Fraction
    converged: bool
    order_used: int
    diagnostics: tuple[tuple[int, float | None], ...]

    @classmethod
    def _of_dyadic(
        cls, dyadic: tuple[int, int], converged: bool, order_used: int, diagnostics: tuple
    ) -> ResummationResult:
        """The result whose value is m 2**e, dyadic = (m, e): it holds the
        pair as _dyadic, which state reads, and forms value on first read."""
        result = cls.__new__(cls)
        result.__dict__.update(
            _dyadic=dyadic, converged=converged, order_used=order_used, diagnostics=diagnostics
        )
        return result

    def __getattr__(self, name: str):
        # reached only for a name the instance lacks: value, in a result of _of_dyadic
        if name != "value" or "_dyadic" not in self.__dict__:
            raise AttributeError(name)
        value = self.__dict__["value"] = _fraction(*self._dyadic)
        return value


# The C-fraction loses bits in qd (about 2.4 per coefficient for three
# beams at 81 and 121 terms; far more, but only in negligible late
# coefficients, for one and two beams) and in the fixed-point recurrence.
# So the walk runs at F = bits + 3 * _GUARD_BITS, the check qd run at bits +
# 2 * _GUARD_BITS + _QD_BITS_PER_TERM per term, the value qd run _GUARD_BITS
# higher, and both carry _QD_HEADROOM fraction bits more (see _qd).
_GUARD_BITS = 64
_QD_BITS_PER_TERM = 3
_QD_HEADROOM = 128


# NumericPolicy's and resum's working precision, and that of the shipped
# tables, which serve every precision up to theirs (DiagonalResummer._cfraction)
_DEFAULT_BITS = 128
_SHIPPED_BITS = 256
# The most bits NumericPolicy and resum take, the deepest any golden or table
# uses: bits buy a ladder no depth past it, and a wider walk only runs longer
_MAX_BITS = 768


def _scales(bits: int) -> tuple[int, int]:
    """Fixed-point scales F_v, F_c (fraction bits) of the value and check qd runs at bits."""
    return bits + 3 * _GUARD_BITS, bits + 2 * _GUARD_BITS


def _rounded(m: int, e: int, bits: int, q: int = 1) -> tuple[int, int]:
    """m / q * 2**e rounded half to even to bits significant bits, for q > 0.

    The result is (mantissa, exponent), the mantissa of at most bits bits;
    zero is (0, 0).  The quotient is taken to bits + 1 or bits + 2 bits and
    its remainder kept as a sticky bit, so the rounding is exact at any
    exponent.
    """
    if not m:
        return 0, 0
    n = abs(m)
    shift = bits + 1 - n.bit_length() + q.bit_length()
    if q == 1 and shift < 0:  # shifts, not a long division by a power of two
        top, rest = n >> -shift, n & ~(-1 << -shift)
    else:
        top, rest = divmod(n << shift, q) if shift >= 0 else divmod(n, q << -shift)
    cut = top.bit_length() - bits
    half = 1 << (cut - 1)
    low = top & ((half << 1) - 1)
    top >>= cut
    if low > half or low == half and (rest or top & 1):
        top += 1
        if top >> bits:
            top >>= 1
            cut += 1
    return (top if m > 0 else -top), e - shift + cut


def _fraction(m: int, e: int) -> Fraction:
    """m * 2**e as an exact Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _round_div(num: int, den: int) -> int:
    """num / den rounded half to even, for den != 0."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    return q


def _qd(pairs: Sequence[tuple[int, int]], work: int, scale: int) -> Iterator[int]:
    """C-fraction coefficients a_1, a_2, ... of the series c_j = p_j / q_j, by progressive qd.

    With q_1^(k) = c_{k+1} / c_k and e_0^(k) = 0, the rhombus rules

        e_m^(k) = q_m^(k+1) - q_m^(k) + e_{m-1}^(k+1),
        q_{m+1}^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)

    give a_{2m-1} = q_m^(0) and a_{2m} = e_m^(0).  Entry q_m^(k) involves
    c_k..c_{k+2m-1} and e_m^(k) involves c_k..c_{k+2m}, so each term c_s
    adds one anti-diagonal q_1^(s-1), e_1^(s-2), q_2^(s-3), ..., a_s that
    needs only the previous one.  The run reads c_s only when a_s is asked
    for, and between coefficients holds just that anti-diagonal and the
    pair of c_{s-1}.  The run ends after a_{len(pairs)-1}, or earlier at a
    zero divisor (a zero c_j or e entry).

    Each entry is an integer x standing for x 2**-work: q_1^(s-1) = p_s
    q_{s-1} / (q_s p_{s-1}) from the exact pairs (any pairs of the same
    rationals give the same run), each later q entry a product of two
    entries over a third, both one signed _round_div (half to even), and
    each e entry an exact sum.  Each a_s is handed out as a_s 2**scale,
    rounded once (half to even).  work is the run's scale plus
    _QD_BITS_PER_TERM bits per term, for what the rules lose to
    cancellation, plus _QD_HEADROOM, because fixed point rounds
    absolutely: an entry near 2**-t keeps t bits fewer than one near 1.
    The smallest entries at 81 terms are near 2**-250 for two beams at
    k = 0 (2**-8 from k = 40), 2**-13 for one and 2**-10 for three.  At
    128 bits of headroom the two-beam k = 0 value run is the exactly
    rounded a_i through a_40; with none it is off from a_32 on, by up to
    2**95 units of 2**-scale.  The runs' difference still sizes each
    coefficient's error (_measured), so the headroom moves how many come
    out exact, not the walk's bound.
    """
    prev: list[int] = []
    p_last, q_last = pairs[0]
    for s in range(1, len(pairs)):
        if not p_last:
            return
        p, q = pairs[s]
        cur = [_round_div(p * q_last << work, q * p_last)]
        for j in range(1, s):
            if j % 2:
                cur.append(cur[j - 1] - prev[j - 1] + (prev[j - 2] if j > 1 else 0))
            elif not prev[j - 1]:
                return
            else:
                cur.append(_round_div(prev[j - 2] * cur[j - 1], prev[j - 1]))
        prev = cur
        p_last, q_last = p, q
        yield _round_div(cur[-1], 1 << (work - scale))


@dataclass(eq=False)
class _Ladder:
    """C-fraction of one series at one working precision, in binary fixed point.

    value holds a_1, a_2, ... as far as walks have read them, as a_i 2**F
    (F the value scale); weight holds each |a_i| as a float, and base and
    slope the running sums of the walk's error terms (see _walk).  runs
    yields each further coefficient with its error: from the shipped table,
    or from the value and check qd runs advanced in lockstep.  It is None
    once the table is complete (size coefficients, or up to its end or
    either run's breakdown).
    """

    size: int
    scale: int
    runs: Iterator[tuple[int, float]] | None
    value: list[int] = field(default_factory=list)
    weight: list[float] = field(default_factory=list)
    base: list[float] = field(default_factory=list)
    slope: list[float] = field(default_factory=list)

    def append(self, a: int, error: float) -> None:
        """Add the next coefficient a_i 2**F, known to within error 2**-F."""
        weight = _float(abs(a), -self.scale)
        base, slope = (self.base[-1], self.slope[-1]) if self.value else (0.0, 0.0)
        self.value.append(a)
        self.weight.append(weight)
        self.base.append(base + 10 + weight)
        self.slope.append(slope + error + 5 * weight)

    def reaches(self, i: int) -> bool:
        """Whether the table has a_i, reading runs up to it."""
        while len(self.value) < i:
            pair = None if self.runs is None else next(self.runs, None)
            if pair is None:
                self.runs = None
                return False
            self.append(*pair)
            if len(self.value) == self.size:
                self.runs = None
        return True


def _runs(terms: int, bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The value and check qd runs of a series of terms coefficients at bits,
    each as (work, scale), the arguments of its _qd."""
    value_scale, check_scale = _scales(bits)
    check_work = check_scale + _QD_BITS_PER_TERM * (terms - 1) + _QD_HEADROOM
    return (check_work + _GUARD_BITS, value_scale), (check_work, check_scale)


def _name(pairs: tuple[tuple[int, int], ...], bits: int) -> str:
    """The name of the table of the series pairs at bits.

    The name is a 64-bit checksum (CRC-32, then Adler-32) of the marshal
    (version 2) bytes of every input of qd's arithmetic: bits, both runs'
    work and scale, and the pairs (p_j, q_j) as the resummer holds them.
    Version 2 writes no back-references, so the bytes depend on the values
    alone, and marshal reads them back, so equal bytes are equal values.
    Equal pairs are equal rationals, so a name stands for one table, and two
    series or precisions share one only through a collision of the checksum;
    the same series held in other pairs (reduced, say) only gets another
    name, and computes that same table.  hashlib would load OpenSSL, about
    3.6 MB resident, for the same job.
    """
    (value_work, value_scale), (check_work, check_scale) = _runs(len(pairs), bits)
    head = (bits, value_work, check_work, value_scale, check_scale)
    key = marshal.dumps((head, pairs), 2)
    return f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"


def _qd_runs(pairs: Sequence[tuple[int, int]], runs: tuple) -> Iterator[tuple[int, int]]:
    """The value and check qd runs (work, scale) of the series pairs, in lockstep."""
    return zip(*(_qd(pairs, work, scale) for work, scale in runs))


def _measured(runs: Iterator[tuple[int, int]]) -> Iterator[tuple[int, float]]:
    """Each value-run coefficient a with its error, from the check run's c.

    The error is the runs' difference in check-scale units, rounded down,
    plus one unit.
    """
    for a, c in runs:
        yield a, _float(1 + (abs((c << _GUARD_BITS) - a) >> _GUARD_BITS), _GUARD_BITS)


# A shipped coefficient's error at the shipped precision: one check-scale
# unit, 2**64 value units, as _measured gives it where the runs agree.
# Coarsened to bits < 256, rounded half to even to the value scale at bits,
# it is known to half a value unit plus that unit, 2**(bits - 192) value
# units at bits, and is charged that (DiagonalResummer._cfraction).
_SHIPPED_ERROR = 2.0**_GUARD_BITS

# The shipped tables: the marshal (version 2) bytes of a dict from each
# table's name to the tuple of its value-run integers a_i 2**F, read whole.
# Only tables whose check run is the value run coarsened ship, so each
# shipped coefficient is read at 256 bits with one check-scale unit of
# error, as computing it gives.
_TABLES = Path(__file__).with_name("cfractions.bin")


@functools.cache
def _stored_archive() -> dict[str, tuple[int, ...]]:
    """Each shipped table's value run, by name, from one read of the file."""
    try:
        return marshal.loads(_TABLES.read_bytes())
    except FileNotFoundError:
        return {}


def _stored_table(name: str) -> Iterator[int] | None:
    """The shipped value run named name, as an iterator, or None."""
    table = _stored_archive().get(name)
    return None if table is None else iter(table)


def _table_archive(series: Iterable[Sequence[tuple[int, int]]], bits: int) -> bytes:
    """The archive of the complete tables of series (as pairs) at bits, byte for byte reproducible.

    A table whose check run is not its value run coarsened cannot be
    stored as its value run alone and raises ValueError.
    """
    tables = {}
    for held in series:
        held = tuple(held)
        name, runs = _name(held, bits), _runs(len(held), bits)
        pairs = list(_qd_runs(held, runs))
        if any(c != _round_div(a, 1 << _GUARD_BITS) for a, c in pairs):
            raise ValueError(f"table {name}: the check run is not the value run coarsened")
        tables[name] = tuple(a for a, _ in pairs)
    return marshal.dumps(tables, 2)


def _renormalized(cur: int, prev: int, exponent: int, scale: int) -> tuple[int, int, int]:
    """The pair (cur, prev) * 2**exponent rescaled so that cur has scale bits."""
    shift = cur.bit_length() - scale
    if shift > 0:
        return cur >> shift, prev >> shift, exponent + shift
    return cur << -shift, prev << -shift, exponent + shift


def _float(m: int, e: int, q: int = 1) -> float:
    """m / q * 2**e as the nearest float (inf past the range), for q > 0.

    Python's int true division rounds once, half to even, subnormal
    results included, so an exact ratio of integers is one rounding.
    """
    try:
        return m / (q << -e) if e < 0 else (m << e) / q
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _quotient(vb: int, va: int, vb_exp: int, va_exp: int, scale: int) -> tuple[int, int]:
    """(vb 2**vb_exp) / (va 2**va_exp) as (mantissa, exponent), for va != 0.

    The mantissa is the floor quotient to scale + 2 bits or more, doubled,
    plus a sticky bit for a nonzero remainder, so rounding it to scale bits
    or fewer rounds the exact quotient.
    """
    top, bottom = (vb, va) if va > 0 else (-vb, -va)
    shift = scale + 2 - vb.bit_length() + va.bit_length()
    q, r = divmod(top << max(shift, 0), bottom << max(-shift, 0))
    return 2 * q + (r != 0), vb_exp - va_exp - shift - 1


def _within(v: tuple[int, int], w: tuple[int, int], tol_num: int, tol_den: int) -> bool:
    """|v - w| <= (tol_num / tol_den) |v|, exactly, for v and w as (mantissa, exponent)."""
    (m, e), (n, f) = v, w
    if e > f:
        m <<= e - f
    else:
        n <<= f - e
    return tol_den * abs(m - n) <= tol_num * abs(m)


# Where _agrees may decide: |f| and |g| within (2**-960, 2**1000), so every
# float it forms is normal and finite, and tol within [2**-45, 1].
_AGREE_LOW, _AGREE_HIGH, _AGREE_TOL = 2.0**-960, 2.0**1000, 2.0**-45


def _agrees(f: float, g: float, tol: float) -> bool | None:
    """Whether |v - w| <= tol |v|, from the nearest floats f and g of v and w.

    None when the floats cannot tell, and _within must decide on v and w;
    DiagonalResummer._walk derives the margin.
    """
    size = abs(f)
    if not (
        _AGREE_LOW < size < _AGREE_HIGH
        and _AGREE_LOW < abs(g) < _AGREE_HIGH
        and _AGREE_TOL <= tol <= 1.0
    ):
        return None
    diff, lim = abs(f - g), tol * size
    margin = 2.0**-50 * (size + diff + lim)
    if diff > lim + margin:
        return False
    if diff < lim - margin:
        return True
    return None


def _exact(x, name: str = "x", low: float = -math.inf) -> tuple[int, int]:
    """The real x exactly, as a ratio of Python ints in lowest terms;
    ValueError naming it unless it is a real, a bool being none, and finite
    or rational, or, given a finite low, a float-range real above low (_real).

    Without low a rational has no float range to leave: an Euler series
    passes the float maximum at c_171 (a tol, given low, also enters the
    walk as a float).  Fraction(x) would keep a NumPy integer as its
    numerator, which then overflows in the fixed-point walk, and rejects
    every NumPy float but float64.  A float of any width, and a Decimal,
    gives its exact ratio without forming a Fraction.
    """
    rational = isinstance(x, numbers.Rational) and not isinstance(x, bool)
    if not rational or low > -math.inf:
        _real(name, x, low)
    if rational:
        return int(x.numerator), int(x.denominator)
    ratio = getattr(x, "as_integer_ratio", None)
    return tuple(map(int, ratio())) if ratio is not None else Fraction(x).as_integer_ratio()


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    Once per series and working precision, resum() fixes the qd precision
    from the series length.  The C-fraction coefficients (with their errors)
    are found at most once each, and only as far as the walks read: a
    coefficient first read by a later walk resumes both qd runs from their
    last anti-diagonal, so every coefficient is the one a complete table
    would hold.  A shipped table is read instead, as far as the walks read,
    coarsened to the working precision below the shipped one.
    Each call finds, from the end, whether the truncated series
    terminates; a point on one that does not costs one walk.

    The series is held only as exact integer pairs (p_j, q_j), q_j > 0,
    with c_j = p_j / q_j, not necessarily in lowest terms: the constructor
    takes reals of any type and keeps their exact ratios (_exact), and
    _from_pairs keeps the pairs series_core forms, unreduced.  Only c_0 is
    reduced, once, to the integer pair the walk starts from; qd rounds
    each c_s / c_{s-1} once from the exact pairs, so any pairs of the same
    rationals give the same tables and the same results.  A shipped table is found
    only for the pairs it was written from (see _name).
    """

    def __init__(self, series: Sequence):
        series = enumerate(_typed("series", series, Iterable))
        self._hold(tuple(_exact(c, f"series coefficient c_{j}") for j, c in series))

    @classmethod
    def _from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> DiagonalResummer:
        """The resummer of the series c_j = p_j / q_j, its pairs held as given."""
        resummer = cls.__new__(cls)
        resummer._hold(tuple(pairs))
        return resummer

    def _hold(self, pairs: tuple[tuple[int, int], ...]) -> None:
        self._pairs = pairs
        # c_0 = p/q in lowest terms: the walk starts from A_0 = q 2**F, B_0 = p 2**F
        self._c0 = Fraction(*pairs[0]).as_integer_ratio() if pairs else (0, 1)
        # working bits -> the C-fraction at that precision
        self._fractions: dict[int, _Ladder] = {}

    def _cfraction(self, bits: int) -> _Ladder:
        """The ladder at bits, fed as walks read by the shipped table at
        max(bits, _SHIPPED_BITS), each coefficient rounded to the value scale
        at bits (the identity at that precision), else by its qd runs."""
        got = self._fractions.get(bits)
        if got is None:
            runs, top = _runs(len(self._pairs), bits), max(bits, _SHIPPED_BITS)
            stored = _stored_table(_name(self._pairs, top))
            if stored is None:
                read = _measured(_qd_runs(self._pairs, runs))
            else:
                # the value scales at top and at bits differ by top - bits
                cut = 1 << (top - bits)
                error = _SHIPPED_ERROR if cut == 1 else 0.5 + _SHIPPED_ERROR / cut
                read = ((_round_div(a, cut), error) for a in stored)
            got = self._fractions[bits] = _Ladder(len(self._pairs) - 1, runs[0][1], read)
        return got

    def _walk(
        self,
        x: tuple[int, int],
        max_order: int,
        tol: tuple[int, int],
        bits: int,
        trace: list | None = None,
    ) -> ResummationResult:
        """The ladder from the C-fraction, up to the first order without a value.

        The point x and tol arrive as exact integer ratios (numerator,
        denominator), which resum forms once per call.

        The forward (Wallis) recurrence A_i = A_{i-1} - t_i A_{i-2}, t_i =
        a_i x, and the same for B, from A_{-1} = A_0 = q, B_{-1} = 0 and
        B_0 = p where c_0 = p/q, gives [N/N] = B_2N / A_2N.  It runs on
        integers at the value scale F: t_i carries F fraction bits (formed
        from x exactly where x is a dyadic of at most F fraction bits, else
        from x rounded to F of them), each product is truncated back to F,
        and the pairs (A_i, A_{i-1}) and (B_i, B_{i-1}) each carry a power
        of two 2**e, renormalized at even i when A_i or B_i leaves F to
        F + 64 bits.

        Values and the tolerance test.  An order's value v is B/A as a
        sticky quotient (_quotient): F + 2 bits or more plus a sticky bit,
        so rounding v to F bits or to a float rounds B/A.  Its float is
        vb / va scaled by 2**(vb_exp - va_exp), without forming v: Python's
        int true division rounds once, so while vb / va and B/A stay normal
        floats this is B/A correctly rounded; outside that range it is
        _float(v).  The walk has converged when |v - w| <= tol |v|, w the
        previous value.  The floats f and g of v and w decide this
        (_agrees) where |f|, |g| lie in (2**-960, 2**1000) and tol in
        [2**-45, 1].  With u = 2**-53, d = fl(|f - g|) and l = fl(tol |f|):
        rounding to nearest keeps |v - f| <= u |f| and |w - g| <= u |g| <=
        u (|f| + |f - g|), so ||v - w| - d| <= 2u |f| + 2u d; and tol |v| is
        within 3u l of l (the rounding of v, of tol to a float and of the
        product), all up to terms in u**2.  The sum of both stays below
        margin = 2**-50 (|f| + d + l) = 8u (...), with room for the rounding
        of the margin itself and of l -+ margin; every float formed stays
        normal in that range.  So d < l - margin proves agreement and d >
        l + margin refutes it.  Inside the margin, or outside that range
        (below tol = 2**-45 the margin is over 1/64 of l, and l can leave
        the normal range), _within decides on v and w exactly.  Otherwise v
        is formed once per walk, for the order returned, and rounded to F
        bits.

        Error bound.  Against the exact recurrence Â on the true a*_i and
        point, E_i = A_i - Â_i = E_{i-1} - t_i E_{i-2} - (t_i - a*_i x)
        Â_{i-2} - r_i, E_0 = E_{-1} = 0, where 0 <= r_i < 2**e truncates
        t_i A_{i-2} and |t_i - a*_i x| <= 2**-F (1 + |a_i| / 2) + |x| d_i:
        truncating t_i, rounding x, and the coefficient's error d_i, one
        check-scale unit plus the qd runs' difference (read coarsened from a
        shipped table, half a value unit plus 2**(bits - 192)).  The majorant
        M_i = M_{i-1} + w_i M_{i-2}, M_0 = M_{-1} = q, w_i >= |t_i|, |a*_i x|,
        bounds |Â_i| and never decreases, so |E_i| <= S_i M_i with
        S_i = S_{i-1} + |t_i - a*_i x| + r_i / M_i.  A passed test leaves
        |A| >= 2**(F - 1 + e) within 2**-bits of |Â| <= M, so r_i <=
        2**(2 - F) M_i; cutting bits in a renormalization adds as much to
        E_i and |t_{i+1}| times as much to E_{i+1}.  So S_i <= 2**-F (base_i
        + |x| slope_i), the sums over j <= i of 10 + |a_j| and of d_j 2**F +
        5 |a_j| (_Ladder.append).  B runs on the same t_i from (0, |p|) <=
        |p/q| (q, q): the same S_i, and a majorant <= |p/q| M_i.  While S is
        small, as each passed test keeps it, float rounding in m (M in
        floats) and the additive parts of w_i (a factor exp(S)) stay within
        a factor 2, so dA = (base_i + |x| slope_i) m 2**(e + m_exp + 1)
        >= S M.  The ladder goes on while dA and dB = |p/q| dA keep

            |B/A - B̂/Â| <= (dB/|B| + (1 + 2**-bits) dA/|A|) |B/A| <= 2**-bits |B/A|,

        tested on bit lengths.  trace, if a list, gets [A, B, dA] as Fractions
        at each even i.  The first order without a value (its convergent
        vanished, qd did not reach it, or the test failed) is recorded as
        (order, None) and ends the walk unconverged.
        """
        ladder = self._cfraction(bits)
        value_run, weight, base, slope = ladder.value, ladder.weight, ladder.base, ladder.slope
        fv = ladder.scale
        x_num, x_den = x
        vx = _round_div(x_num << fv, x_den)
        ax = _float(abs(vx), -fv)
        # t_i = a_i vx >> F; where x = xm 2**-xe exactly with xe <= F, vx is
        # xm 2**(F - xe) and a_i xm >> xe is the same floor from a shorter product
        xe = x_den.bit_length() - 1
        xm, xe = (x_num, xe) if x_den == 1 << xe and xe <= fv else (vx, fv)
        tol_num, tol_den = tol
        ftol = tol_num / tol_den
        # A and B, current and previous, each pair an integer times 2**(its exponent)
        c0_num, c0_den = self._c0
        va = va_prev = c0_den << fv
        vb, vb_prev = c0_num << fv, 0
        va_exp = vb_exp = -fv
        # the majorant m of A at 2**(va_exp + fv + m_exp); |p/q| < 2**(ratio_bits + 1)
        m_exp = c0_den.bit_length()
        m = m_prev = c0_den / (1 << m_exp)
        ratio_bits = c0_num.bit_length() - m_exp
        diagnostics: list[tuple[int, float | None]] = []
        # the last value as (B, A, B's exponent, A's exponent), and its float
        kept, kept_float = None, 0.0
        converged = False
        # the coefficients read so far, the error bound's exponent limit and
        # the top of the renormalization band
        have, limit, top = len(value_run), -bits - 4, fv + 64
        inf, frexp, ldexp = math.inf, math.frexp, math.ldexp
        # two recurrence steps, i - 1 and i, for diagonal order i / 2
        for i in range(2, 2 * max_order + 1, 2):
            if i > have:
                if not ladder.reaches(i):
                    break
                have = len(value_run)
            t = value_run[i - 2] * xm >> xe
            va_prev, va = va, va - (t * va_prev >> fv)
            vb_prev, vb = vb, vb - (t * vb_prev >> fv)
            t = value_run[i - 1] * xm >> xe
            va_prev, va = va, va - (t * va_prev >> fv)
            vb_prev, vb = vb, vb - (t * vb_prev >> fv)
            m_odd = m + weight[i - 2] * ax * m_prev
            m_prev, m = m_odd, m_odd + weight[i - 1] * ax * m
            if not va or not vb:
                break
            a_bits, b_bits = va.bit_length(), vb.bit_length()
            bound = (base[i - 1] + ax * slope[i - 1]) * m
            if trace is not None:
                two, parts = Fraction(2), ((va, va_exp), (vb, vb_exp), (bound, va_exp + m_exp + 1))
                trace.append([Fraction(v) * two**e for v, e in parts])
            # bound < 2**E; NaN and overflow fail
            exps = va_exp - vb_exp + ratio_bits - b_bits
            if exps < -a_bits:
                exps = -a_bits
            if not bound < inf or frexp(bound)[1] + exps + m_exp > limit:
                break
            cur = (vb, va, vb_exp, va_exp)
            # |vb / va| lies in [2**(d - 1), 2**(d + 1)); the scaled quotient
            # rounds B/A correctly where both it and B/A are normal floats
            d, e = b_bits - a_bits, vb_exp - va_exp
            if -1000 < d < 1000 and -1000 < d + e < 1000:
                f = ldexp(vb / va, e)
            else:
                f = _float(*_quotient(*cur, fv))
            diagnostics.append((i >> 1, f))
            if kept is not None:
                agree = _agrees(f, kept_float, ftol)
                if agree is None:
                    agree = _within(_quotient(*cur, fv), _quotient(*kept, fv), tol_num, tol_den)
                if agree:
                    kept, converged = cur, True
                    break
            kept, kept_float = cur, f
            if not fv <= a_bits <= top:
                shift = m_exp + va_exp
                va, va_prev, va_exp = _renormalized(va, va_prev, va_exp, fv)
                shift -= va_exp
                m, m_prev, m_exp = ldexp(m, shift), ldexp(m_prev, shift), 0
            if not fv <= b_bits <= top:
                vb, vb_prev, vb_exp = _renormalized(vb, vb_prev, vb_exp, fv)
        if kept is None:
            raise PoleProximityError("no diagonal order has a value at this point")
        order_used = len(diagnostics)
        if not converged and order_used < max_order:
            diagnostics.append((order_used + 1, None))
        value = _rounded(*_quotient(*kept, fv), fv)
        return ResummationResult._of_dyadic(value, converged, order_used, tuple(diagnostics))

    def resum(
        self, x, max_order: int = 40, tol: float = 1e-10, bits: int = _DEFAULT_BITS
    ) -> ResummationResult:
        """Walk [1/1], [2/2], ..., [max_order/max_order] at x until two values agree.

        x and tol are reals of any type, taken exactly (_exact); bits is the
        working precision.  Agreement is |v_N - v_{N-1}| <= tol |v_N|,
        relative, as the values span hundreds of orders of magnitude.  The
        first order without a value (a vanishing convergent, a qd breakdown,
        or an error bound past 2**-bits) is recorded as (order, None) and
        ends the walk unconverged.  At x = 0 (c_0 alone) or on a series that
        terminates by order max_order, the polynomial is summed exactly and
        rounded once instead: converged, with one diagnostic.  ValueError
        naming it for a max_order outside [1, (len(series) - 1) // 2] or bits
        outside [64, 768] (_MAX_BITS), either not an integer, or a point
        or tol that is not a real, finite or rational (tol a float-range
        real > 0); PoleProximityError if no order has a value.
        """
        max_order = _count("max_order", max_order, 1, (len(self._pairs) - 1) // 2)
        # the walk's error argument needs 2**-bits small; NumericPolicy's bounds
        bits = _count("bits", bits, 64, _MAX_BITS)
        num, den = point = _exact(x)
        ratio = _exact(tol, "tol", 0)

        # the degree of the polynomial the coefficients used form, -1 when all
        # vanish; from the end, as an emission series' last one is nonzero
        degree = 2 * max_order
        while degree >= 0 and not self._pairs[degree][0]:
            degree -= 1
        if not num or degree <= max_order:
            x, total = Fraction(num, den), Fraction(0)
            for p, q in reversed(self._pairs[: degree + 1 if num else 1]):
                total = total * x + Fraction(p, q)
            m, e = _rounded(total.numerator, 0, bits + 64, total.denominator)
            order = max(1, degree) if num else 1
            return ResummationResult._of_dyadic((m, e), True, order, ((order, _float(m, e)),))

        return self._walk(point, max_order, ratio, bits)


def diagonal_resum(
    series: Sequence, x, max_order: int = 40, tol: float = 1e-10, bits: int = _DEFAULT_BITS
) -> ResummationResult:
    """DiagonalResummer(series).resum(x, ...): the ladder at x until two values agree."""
    return DiagonalResummer(series).resum(x, max_order=max_order, tol=tol, bits=bits)
