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
when a later walk reads further.  qd runs in the C-accelerated decimal
module, about three times faster than mpmath's pure-Python backend, and
hands each a_i out once as the fixed-point integer a_i 2**F; each point
then costs one O(order) forward (Wallis) recurrence on those integers.
Both steps lose bits to cancellation, so each runs well above the
requested precision: a second qd run, 64 bits coarser, sizes each
coefficient's error, and the walk carries a running bound on its own.
The first order that qd did not reach (a zero divisor broke the table) or
whose bound no longer keeps the value within 2**-bits relative ends the
walk unconverged, recorded with no value.  Each order's float comes from
one int true division, and the tolerance test runs on those floats within
a proven error margin, falling back to exact integers only inside it.  So
the exact quotient is formed once per walk, for the value handed out: an
exact dyadic Fraction, rounded once (half to even) to the walk's precision
by _rounded, the one rounding rule that state applies too.

The coefficients depend only on the series and the precision, never on
the point, so the three-beam tables at the default policy (tuple numbers
0..CUTOFF_CAP, 81 terms, 256 bits: every table a default Bell scan walks)
ship with the package as cfractions.bin: an index of names, counts and
byte widths, then every table's value-run integers a_i 2**F in fixed-width
two's complement.  The first lookup reads the file whole, once per
process; a table's coefficients are decoded one at a time as walks read
them, through the same ladder runs that qd feeds, so a walk that settles
at [N/N] decodes a_1..a_2N and no more.  A table is named by a 64-bit
checksum of the marshal bytes of everything that determines it: the
coefficients as the exact integer pairs (p_j, q_j) the resummer holds (for
state's resummers, series_core's unreduced (P[k, k + 2j], (k + 2j)!), so
no gcd is paid to look a table up), bits, the decimal precisions of both
qd runs and both fixed-point scales.  A table is therefore read only where
the code would compute exactly those numbers: the marshal bytes encode
their values one way (no back-references, and marshal reads them back),
equal pairs are equal rationals, which give equal tables, and every input
of qd's arithmetic is in the name, so two series or precisions could
share a table only through a collision of that checksum.  The same series
held in other pairs (its reduced Fractions, say) only misses the archive,
as does any other series or precision, including a changed guard
constant, and runs qd as above to the identical table.  Decimal rounds
correctly on every platform and the rounding to an integer is exact, so
a stored table is the one the code computes.
`python -m brightghz._cftables` rewrites the archive, and a test
regenerates it and compares it byte for byte.
"""

from __future__ import annotations

import decimal
import functools
import marshal
import math
import numbers
import struct
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from brightghz.series_core import _count

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
    polynomial); ``diagnostics`` holds one
    (order, value) pair per diagonal order tried, and a final value None
    marks the order at which the ladder stopped without a value.  converged
    means the last two retained values agreed to tol relative, which also
    bounds them by tol * max(1, |value|).
    """

    value: Fraction
    converged: bool
    order_used: int
    diagnostics: tuple[tuple[int, float | None], ...]


# The C-fraction loses bits in qd (about 2.4 per coefficient for three
# beams at 81 and 121 terms; far more, but only in negligible late
# coefficients, for one and two beams) and in the fixed-point recurrence.
# So the walk runs at F = bits + 3 * _GUARD_BITS, the check qd run at bits +
# 2 * _GUARD_BITS + _QD_BITS_PER_TERM per term, the value qd run _GUARD_BITS higher.
_GUARD_BITS = 64
_QD_BITS_PER_TERM = 3


def _scales(bits: int) -> tuple[int, int]:
    """Fixed-point scales F_v, F_c (fraction bits) of the value and check qd runs at bits."""
    return bits + 3 * _GUARD_BITS, bits + 2 * _GUARD_BITS


def _context(bits: int) -> Context:
    """Decimal arithmetic carrying at least `bits` bits, with no exponent limits."""
    return Context(
        prec=math.ceil(bits * math.log10(2)) + 1,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )


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
    """num / den rounded half to even, for den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    return q


def _qd(pairs: Sequence[tuple[int, int]], ctx: Context, scale: int) -> Iterator[int]:
    """C-fraction coefficients a_1, a_2, ... of the series c_j = p_j / q_j, by progressive qd.

    With q_1^(k) = c_{k+1} / c_k and e_0^(k) = 0, the rhombus rules

        e_m^(k) = q_m^(k+1) - q_m^(k) + e_{m-1}^(k+1),
        q_{m+1}^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)

    give a_{2m-1} = q_m^(0) and a_{2m} = e_m^(0).  Entry q_m^(k) involves
    c_k..c_{k+2m-1} and e_m^(k) involves c_k..c_{k+2m}, so each term c_s
    adds one anti-diagonal q_1^(s-1), e_1^(s-2), q_2^(s-3), ..., a_s that
    needs only the previous one.  The run reads c_s only when a_s is asked
    for, and between coefficients holds just that anti-diagonal and
    c_{s-1}.  Arithmetic runs in ctx, c_s being p_s / q_s correctly
    rounded, whether or not the pair is in lowest terms; each a_s is handed
    out as the integer a_s 2**scale, rounded once (half to even) from the
    exact decimal.  The run ends after a_{len(pairs)-1}, or earlier at a
    zero divisor (a zero c_j or e entry).
    """
    add, sub, mul, div = ctx.add, ctx.subtract, ctx.multiply, ctx.divide
    prev: list[Decimal] = []
    last = div(Decimal(pairs[0][0]), Decimal(pairs[0][1]))
    for s in range(1, len(pairs)):
        if not last:
            return
        c = div(Decimal(pairs[s][0]), Decimal(pairs[s][1]))
        cur = [div(c, last)]
        for j in range(1, s):
            if j % 2:
                e = sub(cur[j - 1], prev[j - 1])
                cur.append(add(e, prev[j - 2]) if j > 1 else e)
            elif not prev[j - 1]:
                return
            else:
                cur.append(div(mul(prev[j - 2], cur[j - 1]), prev[j - 1]))
        prev = cur
        last = c
        num, den = cur[-1].as_integer_ratio()
        yield _round_div(num << scale, den)


@dataclass(eq=False)
class _Ladder:
    """C-fraction of one series at one working precision, in binary fixed point.

    value holds a_1, a_2, ... as far as walks have read them, as a_i 2**F
    (F the value scale); weight holds each |a_i| as a float, and base and
    slope the running sums of the walk's error terms (see _walk).  runs
    yields each further coefficient with its error: decoded from the
    shipped table as read, or from the value and check qd runs advanced in
    lockstep.  It is None once the table is complete (size coefficients,
    or up to its end or either run's breakdown).
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


def _plan(pairs: tuple[tuple[int, int], ...], bits: int) -> tuple[str, Context, Context]:
    """The name of the table of the series pairs at bits, and its value and check qd contexts.

    The name is a 64-bit checksum (CRC-32, then Adler-32) of the marshal
    (version 2) bytes of everything that fixes the table: bits, the decimal
    precisions of both qd runs, both fixed-point scales, and the pairs
    (p_j, q_j) as the resummer holds them.  Version 2 writes no
    back-references, so the bytes depend on the values alone, and marshal
    reads them back, so equal bytes are equal values.  Equal pairs are equal
    rationals, so a name stands for one table; the same series held in
    other pairs (reduced, say) only gets another name, and computes that
    same table.  hashlib would load OpenSSL, about 3.6 MB resident, for
    the same job.
    """
    value_scale, check_scale = _scales(bits)
    qd_bits = check_scale + _QD_BITS_PER_TERM * (len(pairs) - 1)
    qd_value, qd_check = _context(qd_bits + _GUARD_BITS), _context(qd_bits)
    head = (bits, qd_value.prec, qd_check.prec, value_scale, check_scale)
    key = marshal.dumps((head, pairs), 2)
    return f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}", qd_value, qd_check


def _qd_runs(
    pairs: Sequence[tuple[int, int]], bits: int, qd_value: Context, qd_check: Context
) -> Iterator[tuple[int, int]]:
    """The value and check qd runs of the series pairs at bits, in lockstep."""
    value_scale, check_scale = _scales(bits)
    return zip(_qd(pairs, qd_value, value_scale), _qd(pairs, qd_check, check_scale))


def _measured(runs: Iterator[tuple[int, int]]) -> Iterator[tuple[int, float]]:
    """Each value-run coefficient a with its error, from the check run's c.

    The error is the runs' difference in check-scale units, rounded down,
    plus one unit.
    """
    for a, c in runs:
        yield a, _float(1 + (abs((c << _GUARD_BITS) - a) >> _GUARD_BITS), _GUARD_BITS)


# a shipped coefficient's error: one check-scale unit, as _measured gives it
_SHIPPED_ERROR = 2.0**_GUARD_BITS

# The shipped tables, one file read whole: a little-endian uint32 table
# count, then one entry per table (its name in 16 ASCII bytes, its
# coefficient count and the byte width of each coefficient, both uint16),
# then each table's value-run integers a_i 2**F in order, each in that many
# bytes of little-endian two's complement.  Only tables whose check run is
# the value run coarsened ship, so each shipped coefficient is read with
# one check-scale unit of error, as computing it gives.
_TABLES = Path(__file__).with_name("cfractions.bin")
_ENTRY = struct.Struct("<16sHH")
_COUNT = struct.Struct("<I")


@functools.cache
def _stored_archive() -> dict[str, tuple[memoryview, int]]:
    """Each shipped table's bytes and coefficient width, by name, from one read of the file."""
    try:
        data = memoryview(_TABLES.read_bytes())
    except FileNotFoundError:
        return {}
    (count,) = _COUNT.unpack_from(data)
    start = _COUNT.size + count * _ENTRY.size
    tables = {}
    for name, size, width in _ENTRY.iter_unpack(data[_COUNT.size : start]):
        tables[name.decode("ascii")] = (data[start : start + size * width], width)
        start += size * width
    return tables


def _stored_table(name: str) -> Iterator[int] | None:
    """The shipped value run named name, each coefficient decoded as it is read, or None."""
    entry = _stored_archive().get(name)
    if entry is None:
        return None
    body, width = entry
    return (
        int.from_bytes(body[i : i + width], "little", signed=True)
        for i in range(0, len(body), width)
    )


def _table_archive(series: Iterable[Sequence[tuple[int, int]]], bits: int) -> bytes:
    """The archive of the complete tables of series (as pairs) at bits, byte for byte reproducible.

    A table whose check run is not its value run coarsened cannot be
    stored as its value run alone and raises ValueError.
    """
    entries, bodies = [], []
    for held in series:
        held = tuple(held)
        name, qd_value, qd_check = _plan(held, bits)
        pairs = list(_qd_runs(held, bits, qd_value, qd_check))
        if any(c != _round_div(a, 1 << _GUARD_BITS) for a, c in pairs):
            raise ValueError(f"table {name}: the check run is not the value run coarsened")
        width = max((a.bit_length() for a, _ in pairs), default=0) // 8 + 1
        entries.append(_ENTRY.pack(name.encode("ascii"), len(pairs), width))
        bodies.append(b"".join(a.to_bytes(width, "little", signed=True) for a, _ in pairs))
    return _COUNT.pack(len(entries)) + b"".join(entries) + b"".join(bodies)


def _renormalized(cur: int, prev: int, exponent: int, scale: int) -> tuple[int, int, int]:
    """The pair (cur, prev) * 2**exponent rescaled so that cur has scale bits."""
    shift = cur.bit_length() - scale
    if shift > 0:
        return cur >> shift, prev >> shift, exponent + shift
    return cur << -shift, prev << -shift, exponent + shift


def _float(m: int, e: int) -> float:
    """m * 2**e as the nearest float (inf past the range).

    Python's int true division and int-to-float conversion round once,
    half to even, subnormal results included.
    """
    try:
        return m / (1 << -e) if e < 0 else float(m << e)
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


def _exact(x) -> Fraction:
    """The point x exactly, as a Fraction of Python ints; ValueError if x is not finite.

    Fraction(x) would keep a NumPy integer as its numerator, which then
    overflows in the fixed-point walk, and rejects every NumPy float but
    float64.  A float of any width, and a Decimal, gives its exact ratio.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    ratio = getattr(x, "as_integer_ratio", None)
    return Fraction(*map(int, ratio())) if ratio is not None else Fraction(x)


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    Once per series and working precision, resum() fixes the qd precision
    from the series length.  The C-fraction coefficients (with their errors)
    are found at most once each, and only as far as the walks read: a
    coefficient first read by a later walk resumes both qd runs from their
    last anti-diagonal, so every coefficient is the one a complete table
    would hold.  A shipped table is decoded instead, as far as the walks
    read it too.  Once per series and length it finds whether the
    truncated series terminates.  Each point then costs one walk.

    The series is held only as exact integer pairs (p_j, q_j), q_j > 0,
    with c_j = p_j / q_j, not necessarily in lowest terms: the constructor
    takes rationals and keeps their numerators and denominators, and
    _from_pairs keeps the pairs series_core forms, unreduced.  Only c_0 is
    reduced, once, for the walk's start; qd reads each pair's correctly
    rounded quotient, so any pairs of the same rationals give the same
    tables and the same results.  A shipped table is found only for the
    pairs it was written from (see _plan).
    """

    def __init__(self, series: Sequence):
        # int() turns a NumPy integer, which Fraction keeps, into a Python int
        ratios = (Fraction(c).as_integer_ratio() for c in series)
        self._hold(tuple((int(p), int(q)) for p, q in ratios))

    @classmethod
    def _from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> DiagonalResummer:
        """The resummer of the series c_j = p_j / q_j, its pairs held as given."""
        resummer = cls.__new__(cls)
        resummer._hold(tuple(pairs))
        return resummer

    def _hold(self, pairs: tuple[tuple[int, int], ...]) -> None:
        self._pairs = pairs
        # c_0 = p/q in lowest terms: the walk starts from A_0 = q 2**F, B_0 = p 2**F
        self._c0 = Fraction(*pairs[0]) if pairs else Fraction(0)
        # working bits -> the C-fraction at that precision
        self._fractions: dict[int, _Ladder] = {}
        # coefficients used -> degree of their polynomial, -1 when all vanish
        self._degrees: dict[int, int] = {}

    def _cfraction(self, bits: int) -> _Ladder:
        """The ladder at bits, fed by its shipped table, else by its qd runs, as walks read."""
        got = self._fractions.get(bits)
        if got is None:
            name, qd_value, qd_check = _plan(self._pairs, bits)
            stored = _stored_table(name)
            if stored is None:
                runs = _measured(_qd_runs(self._pairs, bits, qd_value, qd_check))
            else:
                runs = ((a, _SHIPPED_ERROR) for a in stored)
            got = self._fractions[bits] = _Ladder(len(self._pairs) - 1, _scales(bits)[0], runs)
        return got

    def _walk(
        self, x: Fraction, max_order: int, tol: float, bits: int, trace: list | None = None
    ) -> ResummationResult:
        """The ladder from the C-fraction, up to the first order without a value.

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
        check-scale unit plus the qd runs' difference.  The majorant
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
        vx = _round_div(x.numerator << fv, x.denominator)
        ax = _float(abs(vx), -fv)
        # t_i = a_i vx >> F; where x = xm 2**-xe exactly with xe <= F, vx is
        # xm 2**(F - xe) and a_i xm >> xe is the same floor from a shorter product
        den = x.denominator
        xe = den.bit_length() - 1
        xm, xe = (x.numerator, xe) if den == 1 << xe and xe <= fv else (vx, fv)
        tol_num, tol_den = Fraction(tol).as_integer_ratio()
        # a tol above 1 always takes the exact test
        ftol = tol_num / tol_den if tol_num <= tol_den else math.inf
        # A and B, current and previous, each pair an integer times 2**(its exponent)
        c0_num, c0_den = self._c0.numerator, self._c0.denominator
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
        # two recurrence steps, i - 1 and i, per diagonal order
        for i in range(2, 2 * max_order + 1, 2):
            if i > len(value_run) and not ladder.reaches(i):
                break
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
            exps = max(va_exp - vb_exp + ratio_bits - b_bits, -a_bits) + m_exp
            if not bound < math.inf or math.frexp(bound)[1] + exps > -bits - 4:
                break
            cur = (vb, va, vb_exp, va_exp)
            # |vb / va| lies in [2**(d - 1), 2**(d + 1)); the scaled quotient
            # rounds B/A correctly where both it and B/A are normal floats
            d = b_bits - a_bits
            if -1000 < d < 1000 and -1000 < d + vb_exp - va_exp < 1000:
                f = math.ldexp(vb / va, vb_exp - va_exp)
            else:
                f = _float(*_quotient(*cur, fv))
            diagnostics.append((len(diagnostics) + 1, f))
            if kept is not None:
                agree = _agrees(f, kept_float, ftol)
                if agree is None:
                    agree = _within(_quotient(*cur, fv), _quotient(*kept, fv), tol_num, tol_den)
                if agree:
                    kept, converged = cur, True
                    break
            kept, kept_float = cur, f
            if not fv <= a_bits <= fv + 64:
                shift = m_exp + va_exp
                va, va_prev, va_exp = _renormalized(va, va_prev, va_exp, fv)
                shift -= va_exp
                m, m_prev, m_exp = math.ldexp(m, shift), math.ldexp(m_prev, shift), 0
            if not fv <= b_bits <= fv + 64:
                vb, vb_prev, vb_exp = _renormalized(vb, vb_prev, vb_exp, fv)
        if kept is None:
            raise PoleProximityError("no diagonal order has a value at this point")
        order_used = len(diagnostics)
        if not converged and order_used < max_order:
            diagnostics.append((order_used + 1, None))
        value = _fraction(*_rounded(*_quotient(*kept, fv), fv))
        return ResummationResult(value, converged, order_used, tuple(diagnostics))

    def resum(
        self, x, max_order: int = 40, tol: float = 1e-10, bits: int = 256
    ) -> ResummationResult:
        max_order, bits = _count("max_order", max_order), _count("bits", bits)
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        if len(self._pairs) < 2 * max_order + 1:
            raise ValueError(
                f"diagonal order {max_order} needs {2 * max_order + 1}"
                f" coefficients, got {len(self._pairs)}"
            )
        x = _exact(x)
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {tol}")
        need = 2 * max_order + 1

        degree = self._degrees.get(need)
        if degree is None:
            degree = max((j for j, (p, _) in enumerate(self._pairs[:need]) if p), default=-1)
            self._degrees[need] = degree
        if not x or degree <= max_order:
            # At x = 0 every order is c_0.  A terminating series has every
            # [N/N] with N >= degree equal to the polynomial itself.  Either
            # way sum the polynomial exactly and round it once.
            total = Fraction(0)
            for p, q in reversed(self._pairs[: degree + 1]):
                total = total * x + Fraction(p, q)
            m, e = _rounded(total.numerator, 0, bits + 64, total.denominator)
            order = max(1, degree) if x else 1
            return ResummationResult(
                value=_fraction(m, e),
                converged=True,
                order_used=order,
                diagnostics=((order, _float(m, e)),),
            )

        return self._walk(x, max_order, tol, bits)


def diagonal_resum(
    series: Sequence, x, max_order: int = 40, tol: float = 1e-10, bits: int = 256
) -> ResummationResult:
    """Walk [1/1], [2/2], ... at x until two successive values agree.

    Agreement means |v_N - v_{N-1}| <= tol * |v_N|, a relative criterion:
    the resummed values here range over hundreds of orders of magnitude,
    and any absolute floor would declare victory on pure noise at the
    small end.  The first order whose value is unavailable at x (a
    vanishing convergent, a qd breakdown, or an error bound past 2**-bits)
    is recorded with a None diagnostic and ends the walk unconverged; if no
    order has a value the pole error is raised.
    """
    return DiagonalResummer(series).resum(x, max_order=max_order, tol=tol, bits=bits)
