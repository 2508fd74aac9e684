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

The continued-fraction steps compute in the standard decimal module, whose
C implementation runs this arithmetic about three times faster than
mpmath's pure-Python backend; values are handed out as mpmath numbers.

The coefficients depend only on the series and the precision, never on
the point, so the three-beam tables at the default policy (tuple numbers
0..CUTOFF_CAP, 81 terms, 256 bits: every table a default Bell scan walks)
ship with the package as cfractions.zip, one deflated member per series.
A member is named by a checksum of everything that determines its table:
the exact coefficients, bits, and the decimal precisions of both qd runs
and both walks.  So a table is read from the archive (lazily, one member
at a time, on the first build at that precision) only where the code
would compute exactly those numbers; any other series or precision,
including a changed guard constant, runs qd as above.  Decimal rounds
correctly on every platform, so a stored table is the one the code
computes.  `python -m brightghz._cftables` rewrites the archive, and a
test regenerates every member and compares it byte for byte.
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
from mpmath.libmp import from_rational, round_nearest, to_rational

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
# coefficients, for one and two beams) and in the recurrence (up to 61
# bits for three beams at order 40, 88 at order 60).  So the check run
# walks at bits + 2 * _GUARD_BITS, its qd adds _QD_BITS_PER_TERM per
# coefficient on top, and the value run does both steps _GUARD_BITS higher.
_GUARD_BITS = 64
_QD_BITS_PER_TERM = 3


def _context(bits: int) -> Context:
    """Decimal arithmetic carrying at least `bits` bits, with no exponent limits."""
    return Context(
        prec=math.ceil(bits * math.log10(2)) + 1,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )


def _qd(coeffs, ctx: Context, keep: Context) -> Iterator[Decimal]:
    """C-fraction coefficients a_1, a_2, ... of coeffs, by progressive qd.

    With q_1^(k) = c_{k+1} / c_k and e_0^(k) = 0, the rhombus rules

        e_m^(k) = q_m^(k+1) - q_m^(k) + e_{m-1}^(k+1),
        q_{m+1}^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)

    give a_{2m-1} = q_m^(0) and a_{2m} = e_m^(0).  Entry q_m^(k) involves
    c_k..c_{k+2m-1} and e_m^(k) involves c_k..c_{k+2m}, so each term c_s
    adds one anti-diagonal q_1^(s-1), e_1^(s-2), q_2^(s-3), ..., a_s that
    needs only the previous one.  The run reads c_s only when a_s is asked
    for, and between coefficients holds just that anti-diagonal and
    c_{s-1}.  Arithmetic runs in ctx; results are rounded to keep.  The run
    ends after a_{len(coeffs)-1}, or earlier at a zero divisor (a zero c_j
    or e entry).
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
        yield keep.plus(cur[-1])


@dataclass(eq=False)
class _Ladder:
    """C-fraction of one series at one working precision, with its walk constants.

    value and check hold the value and check runs' coefficients a_1, a_2,
    ... as far as some walk has read them; runs pairs the two suspended qd
    runs, and is None once the table holds all size coefficients the
    series determines or either run broke down (the table then ends at
    the shorter run), and from the start for a table read from the
    shipped archive.  What every walk at this precision shares: the two
    contexts, c_0 in each, and the 2**-bits acceptance limit.
    """

    size: int
    value: list[Decimal]
    check: list[Decimal]
    runs: Iterator[tuple[Decimal, Decimal]] | None
    value_ctx: Context
    check_ctx: Context
    c0_value: Decimal
    c0_check: Decimal
    limit: Decimal

    def reaches(self, i: int) -> bool:
        """Whether the table has a_i, running both qd runs up to it in lockstep."""
        value, check = self.value, self.check
        while len(value) < i:
            pair = None if self.runs is None else next(self.runs, None)
            if pair is None:
                self.runs = None
                return False
            v, w = pair
            value.append(v)
            # where the runs agree to the check's precision, keep one number
            check.append(v if self.check_ctx.plus(v) == w else w)
            if len(value) == self.size:
                self.runs = None
        return True


def _ladder(coeffs: Sequence[Fraction], bits: int) -> tuple[_Ladder, str]:
    """The ladder of coeffs at bits with its qd runs unstarted, and its table's name.

    The name is a 64-bit checksum (CRC-32, then Adler-32) of the text of
    everything that fixes the table: bits, the decimal precisions of both
    qd runs and both walks, and the exact coefficients.  hashlib would
    load OpenSSL, about 3.6 MB resident, for the same job.
    """
    check_bits = bits + 2 * _GUARD_BITS
    value_ctx = _context(check_bits + _GUARD_BITS)
    check_ctx = _context(check_bits)
    size = len(coeffs) - 1
    qd_bits = check_bits + _QD_BITS_PER_TERM * size
    qd_value, qd_check = _context(qd_bits + _GUARD_BITS), _context(qd_bits)
    precisions = f"{bits} {qd_value.prec} {qd_check.prec} {value_ctx.prec} {check_ctx.prec}"
    key = "".join([precisions, *(f" {c.numerator}/{c.denominator}" for c in coeffs)]).encode()
    c0 = (Decimal(coeffs[0].numerator), Decimal(coeffs[0].denominator))
    ladder = _Ladder(
        size=size,
        value=[],
        check=[],
        runs=zip(_qd(coeffs, qd_value, value_ctx), _qd(coeffs, qd_check, check_ctx)),
        value_ctx=value_ctx,
        check_ctx=check_ctx,
        c0_value=value_ctx.divide(*c0),
        c0_check=check_ctx.divide(*c0),
        limit=value_ctx.power(Decimal(2), -bits),
    )
    return ladder, f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"


# The shipped tables: one member per series, named by _ladder, holding one
# line per coefficient a_i: the value run's number, then the check run's
# where the two differ.  A table that broke down holds its shorter length.
_TABLES = Path(__file__).with_name("cfractions.zip")


@functools.cache
def _stored_names() -> frozenset[str]:
    try:
        with zipfile.ZipFile(_TABLES) as archive:
            return frozenset(archive.namelist())
    except FileNotFoundError:
        return frozenset()


def _stored_table(name: str) -> tuple[list[Decimal], list[Decimal]] | None:
    """The shipped value and check runs named name, or None when none is shipped."""
    if name not in _stored_names():
        return None
    with zipfile.ZipFile(_TABLES) as archive:
        text = archive.read(name).decode("ascii")
    value: list[Decimal] = []
    check: list[Decimal] = []
    for line in text.splitlines():
        v, _, w = line.partition(" ")
        a = Decimal(v)
        value.append(a)
        check.append(Decimal(w) if w else a)
    return value, check


def _table_archive(series: Iterable[Sequence[Fraction]], bits: int) -> bytes:
    """The archive of the complete tables of series at bits, byte for byte reproducible."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for coeffs in series:
            ladder, name = _ladder(coeffs, bits)
            ladder.reaches(ladder.size)
            text = "".join(
                f"{v}\n" if v is w else f"{v} {w}\n" for v, w in zip(ladder.value, ladder.check)
            )
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.create_system = 3  # the default depends on the platform
            archive.writestr(info, text.encode("ascii"), compresslevel=9)
    return buffer.getvalue()


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    Once per series and working precision, resum() builds the walk's
    contexts, c_0 in each and the acceptance limit, and fixes the qd
    precision from the series length.  The C-fraction coefficients (two
    qd runs, for the precision check, rounded to the precision they are
    walked at) are found at most once each, and only as far as the walks
    read: a coefficient first read by a later walk resumes both runs from
    their last anti-diagonal, in the same contexts, so every coefficient
    is the one a complete table would hold.  A table shipped with the
    package (see the module docstring) is read whole instead, on the
    first build at its precision.  Once per series and length it finds
    whether the truncated series terminates.  Each point then
    costs one O(max_order) walk of the paired value and check recurrences.
    """

    def __init__(self, series: Sequence):
        self.coeffs = tuple(Fraction(c) for c in series)
        # working bits -> the C-fraction and walk constants at that precision
        self._fractions: dict[int, _Ladder] = {}
        # coefficients used -> degree of their polynomial, -1 when all vanish
        self._degrees: dict[int, int] = {}

    def max_feasible_order(self) -> int:
        return (len(self.coeffs) - 1) // 2

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
        from A_{-1} = A_0 = 1 and the same for B from B_{-1} = 0, B_0 = 1,
        gives the [N/N] value c_0 B_2N / A_2N at every even i.  The first
        order without a value (its convergent vanished, qd did not reach
        it, or the check run does not reproduce it) is recorded as
        (order, None) and ends the walk unconverged.
        """
        ladder = self._cfraction(bits)
        value_run, check_run = ladder.value, ladder.check
        value_ctx, check_ctx = ladder.value_ctx, ladder.check_ctx
        vsub, vmul = value_ctx.subtract, value_ctx.multiply
        csub, cmul = check_ctx.subtract, check_ctx.multiply
        value_bits = bits + 3 * _GUARD_BITS  # the value run's precision
        with mp.workprec(value_bits):
            point = x if isinstance(x, Fraction) else Fraction(*to_rational(_point(x)._mpf_))
        num, den = Decimal(point.numerator), Decimal(point.denominator)
        vx, cx = value_ctx.divide(num, den), check_ctx.divide(num, den)
        limit = ladder.limit
        tolerance = Decimal(tol)
        # value-run and check-run recurrences, A and B, previous and current
        va_prev = va_cur = vb_cur = ca_prev = ca_cur = cb_cur = Decimal(1)
        vb_prev = cb_prev = Decimal(0)
        diagnostics: list[tuple[int, float | None]] = []
        value = None
        converged = False
        for i in range(1, 2 * max_order + 1):
            if i > len(value_run) and not ladder.reaches(i):
                break
            va, ca = value_run[i - 1], check_run[i - 1]
            t = vmul(va, vx)
            va_prev, va_cur = va_cur, vsub(va_cur, vmul(t, va_prev))
            vb_prev, vb_cur = vb_cur, vsub(vb_cur, vmul(t, vb_prev))
            t = cmul(ca, cx)
            ca_prev, ca_cur = ca_cur, csub(ca_cur, cmul(t, ca_prev))
            cb_prev, cb_cur = cb_cur, csub(cb_cur, cmul(t, cb_prev))
            if i % 2:
                continue
            if not va_cur or not ca_cur:
                break
            v = value_ctx.divide(vmul(ladder.c0_value, vb_cur), va_cur)
            check = check_ctx.divide(cmul(ladder.c0_check, cb_cur), ca_cur)
            if vsub(v, check).copy_abs() > vmul(limit, v.copy_abs()):
                break
            diagnostics.append((len(diagnostics) + 1, float(v)))
            if value is not None and vsub(v, value).copy_abs() <= vmul(tolerance, v.copy_abs()):
                value, converged = v, True
                break
            value = v
        if value is None:
            raise PoleProximityError("no diagonal order has a value at this point")
        order_used = len(diagnostics)
        if not converged and order_used < max_order:
            diagnostics.append((order_used + 1, None))
        value = mp.make_mpf(from_rational(*value.as_integer_ratio(), value_bits, round_nearest))
        return ResummationResult(
            value=value,
            converged=converged,
            order_used=order_used,
            diagnostics=tuple(diagnostics),
        )

    def resum(
        self, x, max_order: int = 40, tol: float = 1e-10, bits: int = 256
    ) -> ResummationResult:
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
