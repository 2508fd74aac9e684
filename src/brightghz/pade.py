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
when a later walk reads further.  Each evaluation point then costs one
O(order) forward (Wallis) recurrence.
Both steps lose bits to cancellation, so each runs well above the
requested precision, and an independent run with 64 fewer bits in both
steps must reproduce every ladder value to 2**-bits relative.  The first
order that qd did not reach (a zero divisor broke the table) or that
fails this check ends the walk unconverged, recorded with no value.

qd computes in the standard decimal module, whose C implementation runs
its divisions about three times faster than mpmath's pure-Python
backend, and hands each coefficient out once, rounded to a binary fixed
point integer a_i 2**F.  The walks run on those integers: at 448 bits a
Python integer multiply, with its shift back to scale, costs about half
of a decimal multiply and a subtract under a third.  Fixed point needs
no more guard bits than a floating walk: every pair of recurrence
values carries its own power of two and is kept at F to F + 64
significant bits, so each step errs by at most a few units in the F-th
bit of the larger value, and the check run at 64 fewer bits still has
to agree.  Values are handed out as mpmath numbers.

The coefficients depend only on the series and the precision, never on
the point, so the three-beam tables at the default policy (tuple numbers
0..CUTOFF_CAP, 81 terms, 256 bits: every table a default Bell scan walks)
ship with the package as cfractions.zip, one deflated member per series.
A member is named by a checksum of everything that determines its table:
the exact coefficients, bits, the decimal precisions of both qd runs and
both fixed-point scales.  So a table is read from the archive (lazily,
one member at a time, on the first build at that precision) only where
the code would compute exactly those numbers; any other series or
precision, including a changed guard constant, runs qd as above.
Decimal rounds correctly on every platform and the rounding to an
integer is exact, so a stored table is the one the code computes.
`python -m brightghz._cftables` rewrites the archive, and a test
regenerates every member and compares it byte for byte.
"""

from __future__ import annotations

import decimal
import functools
import io
import math
import zipfile
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_rational

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

    ``value`` carries the full working precision; ``diagnostics`` holds one
    (order, value) pair per diagonal order tried, and a final value None
    marks the order at which the ladder stopped without a value.  converged
    means the last two retained values agreed to tol relative, which also
    bounds them by tol * max(1, |value|).
    """

    value: object  # mpmath.mpf
    converged: bool
    order_used: int
    diagnostics: tuple[tuple[int, float | None], ...]


def _point(x):
    """Convert the evaluation point to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mp.mpf(x)


# The C-fraction loses bits in qd (about 2.4 per coefficient for three
# beams at 81 and 121 terms; far more, but only in negligible late
# coefficients, for one and two beams) and in the fixed-point recurrence
# (against the exact recurrence on the same integers, at most 61 bits for
# three beams at order 40 and 90 at order 60, over k = 0..60 and gains
# 0.05-0.89 at 256 bits).  So the check run walks at bits + 2 * _GUARD_BITS,
# its qd adds _QD_BITS_PER_TERM per coefficient on top, and the value run
# does both steps _GUARD_BITS higher.
_GUARD_BITS = 64
_QD_BITS_PER_TERM = 3


def _scales(bits: int) -> tuple[int, int]:
    """Fixed-point scales F_v, F_c (fraction bits) of the value and check walks at bits."""
    return bits + 3 * _GUARD_BITS, bits + 2 * _GUARD_BITS


def _context(bits: int) -> Context:
    """Decimal arithmetic carrying at least `bits` bits, with no exponent limits."""
    return Context(
        prec=math.ceil(bits * math.log10(2)) + 1,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )


def _round_div(num: int, den: int) -> int:
    """num / den rounded half to even, for den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    return q


def _qd(coeffs, ctx: Context, scale: int) -> Iterator[int]:
    """C-fraction coefficients a_1, a_2, ... of coeffs, by progressive qd.

    With q_1^(k) = c_{k+1} / c_k and e_0^(k) = 0, the rhombus rules

        e_m^(k) = q_m^(k+1) - q_m^(k) + e_{m-1}^(k+1),
        q_{m+1}^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)

    give a_{2m-1} = q_m^(0) and a_{2m} = e_m^(0).  Entry q_m^(k) involves
    c_k..c_{k+2m-1} and e_m^(k) involves c_k..c_{k+2m}, so each term c_s
    adds one anti-diagonal q_1^(s-1), e_1^(s-2), q_2^(s-3), ..., a_s that
    needs only the previous one.  The run reads c_s only when a_s is asked
    for, and between coefficients holds just that anti-diagonal and
    c_{s-1}.  Arithmetic runs in ctx; each a_s is handed out as the integer
    a_s 2**scale, rounded once (half to even) from the exact decimal.  The
    run ends after a_{len(coeffs)-1}, or earlier at a zero divisor (a zero
    c_j or e entry).
    """
    add, sub, mul, div = ctx.add, ctx.subtract, ctx.multiply, ctx.divide
    prev: list[Decimal] = []
    last = div(Decimal(coeffs[0].numerator), Decimal(coeffs[0].denominator))
    for s in range(1, len(coeffs)):
        if not last:
            return
        c = div(Decimal(coeffs[s].numerator), Decimal(coeffs[s].denominator))
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

    value and check hold the value and check runs' coefficients a_1, a_2,
    ... as the integers a_i 2**F_v and a_i 2**F_c (see _scales), as far as
    some walk has read them; runs pairs the two suspended qd runs, and is
    None once the table holds all size coefficients the series determines
    or either run broke down (the table then ends at the shorter run), and
    from the start for a table read from the shipped archive.
    """

    size: int
    value: list[int]
    check: list[int]
    runs: Iterator[tuple[int, int]] | None

    def reaches(self, i: int) -> bool:
        """Whether the table has a_i, running both qd runs up to it in lockstep."""
        value, check = self.value, self.check
        while len(value) < i:
            pair = None if self.runs is None else next(self.runs, None)
            if pair is None:
                self.runs = None
                return False
            value.append(pair[0])
            check.append(pair[1])
            if len(value) == self.size:
                self.runs = None
        return True


def _field(n: int) -> bytes:
    """n as length-prefixed two's-complement bytes, so a run of fields parses one way."""
    body = n.to_bytes(n.bit_length() // 8 + 1, "little", signed=True)
    return len(body).to_bytes(4, "little") + body


def _ladder(coeffs: Sequence[Fraction], bits: int) -> tuple[_Ladder, str]:
    """The ladder of coeffs at bits with its qd runs unstarted, and its table's name.

    The name is a 64-bit checksum (CRC-32, then Adler-32) of the bytes of
    everything that fixes the table: bits, the decimal precisions of both
    qd runs, both fixed-point scales, and the exact coefficients, each a
    length-prefixed integer field.  hashlib would load OpenSSL, about
    3.6 MB resident, for the same job.
    """
    value_scale, check_scale = _scales(bits)
    size = len(coeffs) - 1
    qd_bits = check_scale + _QD_BITS_PER_TERM * size
    qd_value, qd_check = _context(qd_bits + _GUARD_BITS), _context(qd_bits)
    fields = [bits, qd_value.prec, qd_check.prec, value_scale, check_scale]
    for c in coeffs:
        fields += (c.numerator, c.denominator)
    key = b"".join(map(_field, fields))
    ladder = _Ladder(
        size=size,
        value=[],
        check=[],
        runs=zip(_qd(coeffs, qd_value, value_scale), _qd(coeffs, qd_check, check_scale)),
    )
    return ladder, f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"


# The shipped tables: one member per series, named by _ladder, holding one
# line per coefficient a_i: the value run's integer in hex.  The check run
# is that value coarsened (_coarse), so only tables whose check run is
# exactly that are shipped.  A table that broke down holds its shorter length.
_TABLES = Path(__file__).with_name("cfractions.zip")


def _coarse(a: int) -> int:
    """A value-run coefficient rounded to the check run's scale, _GUARD_BITS coarser."""
    return _round_div(a, 1 << _GUARD_BITS)


@functools.cache
def _stored_archive() -> zipfile.ZipFile | None:
    """The shipped archive, its directory read once and its file open for the process."""
    try:
        return zipfile.ZipFile(_TABLES)
    except FileNotFoundError:
        return None


def _stored_table(name: str) -> tuple[list[int], list[int]] | None:
    """The shipped value and check runs named name, or None when none is shipped."""
    archive = _stored_archive()
    if archive is None:
        return None
    try:
        text = archive.read(name).decode("ascii")
    except KeyError:  # no member of that name
        return None
    value = [int(line, 16) for line in text.splitlines()]
    return value, [_coarse(a) for a in value]


def _table_archive(series: Iterable[Sequence[Fraction]], bits: int) -> bytes:
    """The archive of the complete tables of series at bits, byte for byte reproducible.

    A table whose check run is not its value run coarsened cannot be
    stored one number per line and raises ValueError.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for coeffs in series:
            ladder, name = _ladder(coeffs, bits)
            ladder.reaches(ladder.size)
            if ladder.check != [_coarse(v) for v in ladder.value]:
                raise ValueError(f"table {name}: the check run is not the value run coarsened")
            text = "".join(f"{v:x}\n" for v in ladder.value)
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.create_system = 3  # the default depends on the platform
            archive.writestr(info, text.encode("ascii"), compresslevel=9)
    return buffer.getvalue()


def _renormalized(cur: int, prev: int, exponent: int, scale: int) -> tuple[int, int, int]:
    """The pair (cur, prev) * 2**exponent rescaled so that cur has scale bits."""
    shift = cur.bit_length() - scale
    if shift > 0:
        return cur >> shift, prev >> shift, exponent + shift
    return cur << -shift, prev << -shift, exponent + shift


def _float(m: int, e: int) -> float:
    """m * 2**e as the nearest float (inf past the range), for m ending in a sticky bit.

    The bits cut from m past its first 64 are ORed into the last one, which
    keeps the rounding of any narrower precision, float's 53 bits included.
    """
    cut = max(m.bit_length() - 64, 0)
    top = m >> cut
    if top << cut != m:
        top |= 1
    try:
        return math.ldexp(top, e + cut)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _within(v: tuple[int, int], w: tuple[int, int], tol_num: int, tol_den: int) -> bool:
    """|v - w| <= (tol_num / tol_den) |v|, exactly, for v and w as (mantissa, exponent)."""
    (m, e), (n, f) = v, w
    if e > f:
        m <<= e - f
    else:
        n <<= f - e
    return tol_den * abs(m - n) <= tol_num * abs(m)


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    Once per series and working precision, resum() fixes the qd
    precision from the series length.  The C-fraction coefficients (two
    qd runs, for the precision check, each rounded to the fixed-point
    scale it is walked at) are found at most once each, and only as far
    as the walks read: a coefficient first read by a later walk resumes
    both runs from their last anti-diagonal, in the same contexts, so
    every coefficient is the one a complete table would hold.  A table
    shipped with the package (see the module docstring) is read whole
    instead, on the first build at its precision.  Once per series and
    length it finds whether the truncated series terminates.  Each point
    then costs one O(max_order) walk of the paired value and check
    recurrences.
    """

    def __init__(self, series: Sequence):
        self.coeffs = tuple(Fraction(c) for c in series)
        # working bits -> the C-fraction at that precision
        self._fractions: dict[int, _Ladder] = {}
        # coefficients used -> degree of their polynomial, -1 when all vanish
        self._degrees: dict[int, int] = {}

    def _cfraction(self, bits: int) -> _Ladder:
        """The ladder at bits: its shipped table, else its qd runs suspended at the start."""
        got = self._fractions.get(bits)
        if got is None:
            got, name = _ladder(self.coeffs, bits)
            stored = _stored_table(name)
            if stored is not None:
                got.value, got.check = stored
                got.runs = None
            self._fractions[bits] = got
        return got

    def _walk(self, x, max_order: int, tol: float, bits: int) -> ResummationResult:
        """The ladder from the C-fraction, up to the first order without a value.

        One forward (Wallis) recurrence per run, A_i = A_{i-1} - a_i x A_{i-2}
        and the same for B, from A_{-1} = A_0 = q and B_{-1} = 0, B_0 = p
        where c_0 = p/q, gives the [N/N] value B_2N / A_2N at every even i.
        Each run computes on integers in binary fixed point at its scale F
        (see _scales): x and a_i x carry F fraction bits, every product is
        truncated back to F of them, and each pair (A_i, A_{i-1}) and
        (B_i, B_{i-1}) carries its own power of two, renormalized at even i
        when A_i or B_i leaves F to F + 64 bits.  Each value is kept as B/A
        truncated to at least F + 2 bits plus a sticky bit, so that its
        float and the returned mpf are both correctly rounded from the exact
        quotient.
        The first order without a value (its convergent vanished, qd did
        not reach it, or the check run does not reproduce B/A to 2**-bits
        relative) is recorded as (order, None) and ends the walk
        unconverged.  The check and the tolerance test are both exact
        integer comparisons.
        """
        ladder = self._cfraction(bits)
        value_run, check_run = ladder.value, ladder.check
        fv, fc = _scales(bits)
        with mp.workprec(fv):
            point = x if isinstance(x, Fraction) else Fraction(*to_rational(_point(x)._mpf_))
        num, den = point.numerator, point.denominator
        vx, cx = _round_div(num << fv, den), _round_div(num << fc, den)
        tol_num, tol_den = Fraction(tol).as_integer_ratio()
        # value-run and check-run recurrences, A and B, current and previous,
        # each pair an integer times 2**(its exponent), kept at F to F + 64 bits
        c0_num, c0_den = self.coeffs[0].numerator, self.coeffs[0].denominator
        va = va_prev = c0_den << fv
        ca = ca_prev = c0_den << fc
        vb, cb = c0_num << fv, c0_num << fc
        vb_prev = cb_prev = 0
        va_exp = vb_exp = -fv
        ca_exp = cb_exp = -fc
        v_top, c_top = fv + 64, fc + 64
        diagnostics: list[tuple[int, float | None]] = []
        value = None  # (mantissa, exponent)
        converged = False
        for i in range(1, 2 * max_order + 1):
            if i > len(value_run) and not ladder.reaches(i):
                break
            t = value_run[i - 1] * vx >> fv
            va_prev, va = va, va - (t * va_prev >> fv)
            vb_prev, vb = vb, vb - (t * vb_prev >> fv)
            t = check_run[i - 1] * cx >> fc
            ca_prev, ca = ca, ca - (t * ca_prev >> fc)
            cb_prev, cb = cb, cb - (t * cb_prev >> fc)
            if i % 2:
                continue
            if not va or not ca:
                break
            # the check run's B'/A' within 2**-bits of B/A: |B A' - B' A| <= 2**-bits |B A'|
            left, right = vb * ca, cb * va
            shift = vb_exp + ca_exp - cb_exp - va_exp
            if shift > 0:
                left <<= shift
            else:
                right <<= -shift
            if abs(left - right) << bits > abs(left):
                break
            # v = B/A as (mantissa, exponent): floor quotient and sticky bit
            top, bottom = (vb, va) if va > 0 else (-vb, -va)
            shift = fv + 2 - top.bit_length() + bottom.bit_length()
            q, r = divmod(top << max(shift, 0), bottom << max(-shift, 0))
            v = (2 * q + (r != 0), vb_exp - va_exp - shift - 1)
            diagnostics.append((len(diagnostics) + 1, _float(*v)))
            if value is not None and _within(v, value, tol_num, tol_den):
                value, converged = v, True
                break
            value = v
            if not fv <= va.bit_length() <= v_top:
                va, va_prev, va_exp = _renormalized(va, va_prev, va_exp, fv)
            if not fv <= vb.bit_length() <= v_top:
                vb, vb_prev, vb_exp = _renormalized(vb, vb_prev, vb_exp, fv)
            if not fc <= ca.bit_length() <= c_top:
                ca, ca_prev, ca_exp = _renormalized(ca, ca_prev, ca_exp, fc)
            if not fc <= cb.bit_length() <= c_top:
                cb, cb_prev, cb_exp = _renormalized(cb, cb_prev, cb_exp, fc)
        if value is None:
            raise PoleProximityError("no diagonal order has a value at this point")
        order_used = len(diagnostics)
        if not converged and order_used < max_order:
            diagnostics.append((order_used + 1, None))
        return ResummationResult(
            value=mp.make_mpf(from_man_exp(*value, fv, round_nearest)),
            converged=converged,
            order_used=order_used,
            diagnostics=tuple(diagnostics),
        )

    def resum(
        self, x, max_order: int = 40, tol: float = 1e-10, bits: int = 256
    ) -> ResummationResult:
        max_order, bits = _count("max_order", max_order), _count("bits", bits)
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        if len(self.coeffs) < 2 * max_order + 1:
            raise ValueError(
                f"diagonal order {max_order} needs {2 * max_order + 1}"
                f" coefficients, got {len(self.coeffs)}"
            )
        # a Fraction is finite, and mpmath's test would convert it first
        if not isinstance(x, Fraction) and not mp.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {tol}")
        need = 2 * max_order + 1
        coeffs = self.coeffs[:need]

        if x == 0:
            with mp.workprec(bits):
                value = mpf(coeffs[0].numerator) / coeffs[0].denominator
            return ResummationResult(
                value=value,
                converged=True,
                order_used=1,
                diagnostics=((1, float(value)),),
            )

        degree = self._degrees.get(need)
        if degree is None:
            degree = max((j for j, c in enumerate(coeffs) if c != 0), default=-1)
            self._degrees[need] = degree
        if degree <= max_order:
            # Terminating series: every [N/N] with N >= degree is the
            # polynomial itself, so sum it directly.
            with mp.workprec(bits + 64):
                xv = _point(x)
                value = mpf(0)
                for q in reversed(coeffs[: degree + 1]):
                    value = value * xv + mpf(q.numerator) / q.denominator
            order = max(1, degree)
            return ResummationResult(
                value=value,
                converged=True,
                order_used=order,
                diagnostics=((order, float(value)),),
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
    vanishing convergent, a qd breakdown, or a failed precision check) is
    recorded with a None diagnostic and ends the walk unconverged; if no
    order has a value the pole error is raised.
    """
    return DiagonalResummer(series).resum(x, max_order=max_order, tol=tol, bits=bits)
