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
finds them once per series with O(order**2) high-precision operations;
each evaluation point then costs one O(order) forward (Wallis) recurrence.
Both steps lose bits to cancellation, so each runs well above the
requested precision, and an independent run with 64 fewer bits in both
steps must reproduce every ladder value to 2**-bits relative.  The first
order that qd did not reach (a zero divisor broke the table) or that
fails this check ends the walk unconverged, recorded with no value.

The continued-fraction steps compute in the standard decimal module, whose
C implementation runs this arithmetic about three times faster than
mpmath's pure-Python backend; values are handed out as mpmath numbers.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Sequence

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


def _qd(coeffs, count: int, ctx: Context, keep: Context) -> tuple[Decimal, ...]:
    """C-fraction coefficients a_1..a_count, by progressive qd.

    With q_1^(k) = c_{k+1} / c_k and e_0^(k) = 0, the rhombus rules

        e_m^(k) = q_m^(k+1) - q_m^(k) + e_{m-1}^(k+1),
        q_{m+1}^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)

    give a_{2m-1} = q_m^(0) and a_{2m} = e_m^(0).  Entry q_m^(k) involves
    c_k..c_{k+2m-1} and e_m^(k) involves c_k..c_{k+2m}, so each term c_s
    adds one anti-diagonal q_1^(s-1), e_1^(s-2), q_2^(s-3), ..., a_s that
    needs only the previous one.  Arithmetic runs in ctx; results are
    rounded to keep.  A zero divisor (a zero c_j or e entry) ends the
    table, and the coefficients found before it are returned.
    """
    add, sub, mul, div = ctx.add, ctx.subtract, ctx.multiply, ctx.divide
    c = [div(Decimal(q.numerator), Decimal(q.denominator)) for q in coeffs[: count + 1]]
    found = []
    prev: list[Decimal] = []
    for s in range(1, count + 1):
        if not c[s - 1]:
            break
        cur = [div(c[s], c[s - 1])]
        for j in range(1, s):
            if j % 2:
                e = sub(cur[j - 1], prev[j - 1])
                cur.append(add(e, prev[j - 2]) if j > 1 else e)
            elif not prev[j - 1]:
                break
            else:
                cur.append(div(mul(prev[j - 2], cur[j - 1]), prev[j - 1]))
        if len(cur) < s:
            break
        found.append(keep.plus(cur[-1]))
        prev = cur
    return tuple(found)


def _even_convergents(c0: Decimal, coeffs, x: Decimal, ctx: Context):
    """Yield c_0 B_2N / A_2N, the [N/N] value at x, for N = 1, 2, ...

    Forward recurrence A_i = A_{i-1} - a_i x A_{i-2} from A_{-1} = A_0 = 1,
    and the same for B from B_{-1} = 0, B_0 = 1, in ctx.  Yields None
    where A_2N vanishes.
    """
    sub, mul = ctx.subtract, ctx.multiply
    a_prev = a_cur = b_cur = Decimal(1)
    b_prev = Decimal(0)
    for i, coeff in enumerate(coeffs, 1):
        t = mul(coeff, x)
        a_prev, a_cur = a_cur, sub(a_cur, mul(t, a_prev))
        b_prev, b_cur = b_cur, sub(b_cur, mul(t, b_prev))
        if i % 2 == 0:
            yield ctx.divide(mul(c0, b_cur), a_cur) if a_cur else None


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    resum() finds the C-fraction coefficients once per working precision
    (two qd runs, for the precision check), caches only those, rounded to
    the precision they are walked at, and walks the convergents at each
    point in O(max_order) operations.
    """

    def __init__(self, series: Sequence):
        self.coeffs = tuple(Fraction(c) for c in series)
        # bits -> (terms asked for, value-run and check-run coefficients)
        self._fractions: dict[int, tuple[int, tuple, tuple]] = {}

    def max_feasible_order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def _cfraction(self, count: int, bits: int) -> tuple[tuple, tuple]:
        """a_1..a_count of the value and check runs; shorter after a breakdown."""
        got = self._fractions.get(bits)
        if got is None or got[0] < count:
            check_bits = bits + 2 * _GUARD_BITS
            value_bits = check_bits + _GUARD_BITS
            qd_bits = check_bits + _QD_BITS_PER_TERM * count
            check_ctx = _context(check_bits)
            value = _qd(
                self.coeffs,
                count,
                _context(qd_bits + _GUARD_BITS),
                _context(value_bits),
            )
            check = _qd(self.coeffs, count, _context(qd_bits), check_ctx)
            # where the runs agree to the check's precision, keep one number
            check = tuple(
                v if check_ctx.plus(v) == w else w for v, w in zip(value, check)
            )
            got = (count, value, check)
            self._fractions[bits] = got
        return got[1], got[2]

    def _walk(self, x, max_order: int, tol: float, bits: int) -> ResummationResult:
        """The ladder from the C-fraction, up to the first order without a value.

        That order (its convergent vanished, qd did not reach it, or the
        check run does not reproduce it) is recorded as (order, None) and
        ends the walk unconverged.
        """
        value_coeffs, check_coeffs = self._cfraction(2 * max_order, bits)
        check_bits = bits + 2 * _GUARD_BITS
        value_bits = check_bits + _GUARD_BITS
        check_ctx, value_ctx = _context(check_bits), _context(value_bits)
        sub, mul = value_ctx.subtract, value_ctx.multiply
        with mp.workprec(value_bits):
            point = x if isinstance(x, Fraction) else Fraction(*to_rational(_point(x)._mpf_))
        num, den = Decimal(point.numerator), Decimal(point.denominator)
        c0 = (Decimal(self.coeffs[0].numerator), Decimal(self.coeffs[0].denominator))

        def convergents(coeffs, ctx):
            return _even_convergents(
                ctx.divide(*c0), coeffs[: 2 * max_order], ctx.divide(num, den), ctx
            )

        walks = zip(
            convergents(value_coeffs, value_ctx), convergents(check_coeffs, check_ctx)
        )
        limit = value_ctx.power(Decimal(2), -bits)
        tolerance = Decimal(tol)
        diagnostics: list[tuple[int, float | None]] = []
        value = None
        converged = False
        for v, check in walks:
            if v is None or check is None or sub(v, check).copy_abs() > mul(limit, v.copy_abs()):
                break
            diagnostics.append((len(diagnostics) + 1, float(v)))
            if value is not None and sub(v, value).copy_abs() <= mul(tolerance, v.copy_abs()):
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

        degree = max((j for j, c in enumerate(coeffs) if c != 0), default=-1)
        if degree <= max_order and all(c == 0 for c in coeffs[degree + 1 :]):
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
