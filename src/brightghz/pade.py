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
steps must reproduce every ladder value to 2**-bits relative.  Where qd
breaks down (a zero divisor) or that check fails, the point falls back to
Wynn's epsilon recursion on partial sums, which yields the same [N/N]
values with O(order**2) operations per point.

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
    (order, value) pair per diagonal order tried, value None where the order
    was skipped (pole at the evaluation point, or a singular patch of the
    value table).  converged means the last two retained values agreed to
    tol relative, which also bounds them by tol * max(1, |value|).
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


def _epsilon_ladder(coeffs, x, tol: float, bits: int) -> ResummationResult:
    """The diagonal ladder by Wynn's epsilon recursion on partial sums.

    The even columns of the epsilon table are the diagonal approximant
    values, so one pass over the 2 * max_order + 1 given coefficients
    costs O(max_order**2) operations at a working precision sized to the
    partial-sum overshoot.
    """
    need = len(coeffs)
    # Partial sums of a divergent series overshoot the resummed value by
    # the full divergence before the table cancels it back down, so the
    # working precision must cover that overshoot on top of the requested
    # precision.
    with mp.workprec(bits + 64):
        xv = _point(x)
        total = mpf(0)
        power = mpf(1)
        peak = mpf(0)
        scale = None
        for q in coeffs:
            term = mpf(q.numerator) / q.denominator * power
            if scale is None and term != 0:
                scale = abs(term)
            total += term
            power *= xv
            if abs(total) > peak:
                peak = abs(total)
        if scale is None or scale == 0:
            scale = mpf(1)
        excess = 0
        if peak > scale:
            excess = int(mp.ceil(mp.log(peak / scale, 2)))
    work = min(bits + excess + 64, 1 << 16)

    diagnostics: list[tuple[int, float | None]] = []
    prev = None
    value = None
    order_used = 0
    converged = False
    with mp.workprec(work):
        xv = _point(x)
        older: list = []
        total = mpf(0)
        power = mpf(1)
        for m in range(need):
            q = coeffs[m]
            total += mpf(q.numerator) / q.denominator * power
            power *= xv
            newer = [total]
            for r in range(1, min(m, len(older)) + 1):
                diff = newer[r - 1] - older[r - 1]
                if diff == 0:
                    # singular patch: drop this lozenge; the row then
                    # stays too short, so every later order is skipped
                    break
                tail = older[r - 2] if r >= 2 else mpf(0)
                newer.append(tail + 1 / diff)
            older = newer
            if m >= 2 and m % 2 == 0:
                order = m // 2
                if len(newer) > m and mp.isfinite(newer[m]):
                    v = newer[m]
                    diagnostics.append((order, float(v)))
                    value = v
                    order_used = order
                    if prev is not None and abs(v - prev) <= tol * abs(v):
                        converged = True
                        break
                    prev = v
                else:
                    diagnostics.append((order, None))
    if value is None:
        raise PoleProximityError(
            "every diagonal order was skipped for pole proximity"
        )
    return ResummationResult(
        value=value,
        converged=converged,
        order_used=order_used,
        diagnostics=tuple(diagnostics),
    )


class DiagonalResummer:
    """Reusable diagonal ladder for one coefficient series.

    resum() finds the C-fraction coefficients once per working precision
    (two qd runs, for the precision check), caches only those, rounded to
    the precision they are walked at, and walks the convergents at each
    point in O(max_order) operations.  Points where qd broke down or the
    check failed go to the epsilon recursion, O(max_order**2) per point.
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

    def _walk(self, x, max_order: int, tol: float, bits: int) -> ResummationResult | None:
        """The ladder from the C-fraction, or None where epsilon must decide."""
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
        prev = v = None
        converged = False
        for order, (v, check) in enumerate(walks, 1):
            if v is None or check is None:
                return None
            size = v.copy_abs()
            if sub(v, check).copy_abs() > mul(limit, size):
                return None
            diagnostics.append((order, float(v)))
            if prev is not None and sub(v, prev).copy_abs() <= mul(tolerance, size):
                converged = True
                break
            prev = v
        if not converged and len(diagnostics) < max_order:
            return None  # qd broke down inside the order budget
        value = mp.make_mpf(from_rational(*v.as_integer_ratio(), value_bits, round_nearest))
        return ResummationResult(
            value=value,
            converged=converged,
            order_used=len(diagnostics),
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

        walked = self._walk(x, max_order, tol, bits)
        return walked if walked is not None else _epsilon_ladder(coeffs, x, tol, bits)


def diagonal_resum(
    series: Sequence, x, max_order: int = 40, tol: float = 1e-10, bits: int = 256
) -> ResummationResult:
    """Walk [1/1], [2/2], ... at x until two successive values agree.

    Agreement means |v_N - v_{N-1}| <= tol * |v_N|, a relative criterion:
    the resummed values here range over hundreds of orders of magnitude,
    and any absolute floor would declare victory on pure noise at the
    small end.  Orders whose value is unavailable at x (pole, or a
    singular patch of the table) are recorded with a None diagnostic; if
    every order is skipped the pole error propagates.
    """
    return DiagonalResummer(series).resum(x, max_order=max_order, tol=tol, bits=bits)
