"""Test references, shared by the tests and kept deliberately naive.

Each one computes a number of the package by an independent route:

- the weights P[k, l] from their closed nested-sum form (p_explicit);
- the [N/M] Pade approximant solved exactly and evaluated in mpmath
  (build_pade, evaluate), and the diagonal ladder by Wynn's epsilon
  recursion on partial sums (epsilon_ladder), the two references for the
  continued-fraction ladder of pade; the qd table run eagerly, the decimal
  walk the fixed-point one replaced and the exact fixed-point recurrence;
- the shell blocks by binomial expansion of the rotated creation
  operators (binomial_shell_rotation, reference_block);
- Stokes expectations by explicit operator matrices on exhaustively
  enumerated six-mode occupations (DenseTruncatedState, dense_expectation,
  random_product_state), where the package never materializes a matrix;
- the photon statistics and the bright state's factor by an mpmath chain.

Random exchange-diagonal states for property tests live here too.  This is
where the tests' mpmath use sits; the package itself runs on NumPy and the
standard library alone.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

from brightghz import pade
from brightghz import state as state_module
from brightghz.pade import PoleProximityError, ResummationResult
from brightghz.state import BGHZState, ResummationError, TripleDistribution

SQ2 = math.sqrt(2.0)

# Mode unitaries of the rotated bases, new modes = U @ old (H/V) modes: the
# inputs of the binomial reference for the shell blocks.
BASES = {
    # diagonal: difference of +-45 mode counts is adag b + bdag a
    1: np.array([[1, 1], [1, -1]], dtype=complex) / SQ2,
    # circular: difference of R/L mode counts is i(bdag a - adag b)
    2: np.array([[1, -1j], [1, 1j]], dtype=complex) / SQ2,
}


def binomial_shell_rotation(u: np.ndarray, k: int) -> np.ndarray:
    """Shell-k rotation A[kappa, q] (new modes = u @ old) by binomial expansion.

    Column q expands (adag)^q (bdag)^(k-q) |vac> / sqrt(q! (k-q)!) in the
    rotated modes; the factorial weights cancel ever worse as k grows
    (max|A^H A - I| about 1e-11 at k = 40), so it is a low-shell reference.
    """
    columns = []
    for q, m in ((q, k - q) for q in range(k + 1)):
        pa = [math.comb(q, i) * u[0, 0] ** i * u[1, 0] ** (q - i) for i in range(q + 1)]
        pb = [math.comb(m, i) * u[0, 1] ** i * u[1, 1] ** (m - i) for i in range(m + 1)]
        weights = [math.sqrt(math.comb(k, q) / math.comb(k, j)) for j in range(k + 1)]
        columns.append(np.convolve(pa, pb) * weights)
    return np.column_stack(columns)



def reference_block(basis, values, k):
    """Shell-k block of the operator taking values[kappa] on kappa photons in
    the measured mode of basis 1, 2 or 3, by binomial rotation."""
    if basis == 3:
        return np.diag(values)
    rot = binomial_shell_rotation(BASES[basis], k)
    return rot.conj().T @ (values[:, None] * rot)


def amplitude_boxes(max_cutoff):
    """(r, phase, keep) for every entry (q, m) of a box with cutoff up to max_cutoff."""
    return st.integers(0, max_cutoff).flatmap(
        lambda cutoff: st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi), st.booleans()),
            min_size=(cutoff + 1) ** 2,
            max_size=(cutoff + 1) ** 2,
        )
    )


def diagonal_state(entries, symmetric=False):
    """Unit-norm BGHZState of an amplitude_boxes draw, None if it is (nearly) zero.

    Zeros sit anywhere, so a shell's support may start or end inside it or
    be empty.  symmetric mirrors the entries with q <= m onto their
    transposes, so A[q, m] = A[m, q] like a bright state's box.
    """
    side = math.isqrt(len(entries))
    raw = {
        (q, m): r * cmath.exp(1j * phi) if keep else 0j
        for (q, m), (r, phi, keep) in zip(itertools.product(range(side), repeat=2), entries)
    }
    if symmetric:
        raw = {(q, m): raw[min(q, m), max(q, m)] for q, m in raw}
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    if norm <= 1e-6:
        return None
    amps = {qm: a / norm for qm, a in raw.items()}
    return BGHZState(gamma=0.0, cutoff=side - 1, amps=amps, norm_residual=0.0)


def p_explicit(k: int, n: int, l: int) -> int:
    """Evaluate P[k, l] from its closed nested-sum form, bypassing the recurrence.

    The (l - k)/2 nested sums run as

        sum_{i=1}^{k+1} i**n  sum_{j=1}^{i+1} j**n  ...  (innermost empty = 1)

    This route is combinatorial in (l - k)/2 and is meant as an independent
    cross-check of the recurrence on small indices.
    """
    if n < 1:
        raise ValueError(f"beam count n must be >= 1, got {n}")
    if k < 0 or l < 0:
        raise ValueError(f"indices must be nonnegative, got k={k}, l={l}")
    if k > l:
        raise ValueError(f"nested-sum form needs k <= l, got k={k}, l={l}")
    if (l - k) % 2:
        raise ValueError(f"(l - k) must be even, got k={k}, l={l}")
    depth = (l - k) // 2
    memo: dict[tuple[int, int], int] = {}

    def tower(d: int, upper: int) -> int:
        if d == 0:
            return 1
        key = (d, upper)
        got = memo.get(key)
        if got is None:
            got = sum(i**n * tower(d - 1, i + 1) for i in range(1, upper + 1))
            memo[key] = got
        return got

    return tower(depth, k + 1)


# Coefficient magnitudes span hundreds of orders, so explicit approximant
# construction solves the denominator system in exact rational arithmetic;
# rounding enters only at evaluation time, at a configurable binary
# precision.


@dataclass(frozen=True)
class PadeApproximant:
    """Rational [N/M] approximant with exact coefficients, den[0] = 1.

    ``requested`` records the order originally asked for; it differs from
    (N, M) when a singular denominator system forced a step-down.
    """

    N: int
    M: int
    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]
    requested: tuple[int, int]


def _solve_exact(
    a: list[list[Fraction]], b: list[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination with exact pivots; None if the system is singular."""
    m = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivval = aug[col][col]
        for r in range(col + 1, m):
            f = aug[r][col] / pivval
            if f:
                row, ref = aug[r], aug[col]
                for c in range(col, m + 1):
                    row[c] -= f * ref[c]
    x = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = aug[r][m] - sum(aug[r][c] * x[c] for c in range(r + 1, m))
        x[r] = acc / aug[r][r]
    return x


def build_pade(series: Sequence, N: int, M: int) -> PadeApproximant:
    """Construct the [N/M] approximant of a series given exactly.

    Needs N + M + 1 leading coefficients.  A singular denominator system
    (the series is effectively of lower rational degree) steps down to
    [N-1/M-1] until solvable; [0/0] always exists.
    """
    if N < 0 or M < 0:
        raise ValueError(f"orders must be nonnegative, got N={N}, M={M}")
    coeffs = [Fraction(c) for c in series]
    if len(coeffs) < N + M + 1:
        raise ValueError(
            f"[{N}/{M}] needs {N + M + 1} coefficients, got {len(coeffs)}"
        )
    requested = (N, M)

    def c(i: int) -> Fraction:
        return coeffs[i] if i >= 0 else Fraction(0)

    n, m_ord = N, M
    while True:
        if m_ord == 0:
            den = [Fraction(1)]
            y = []
            break
        a = [[c(n + j - mm) for mm in range(1, m_ord + 1)] for j in range(1, m_ord + 1)]
        rhs = [-c(n + j) for j in range(1, m_ord + 1)]
        y = _solve_exact(a, rhs)
        if y is not None:
            den = [Fraction(1)] + y
            break
        n, m_ord = max(n - 1, 0), m_ord - 1

    num = [
        sum(den[mm] * c(i - mm) for mm in range(0, min(i, m_ord) + 1))
        for i in range(n + 1)
    ]
    return PadeApproximant(
        N=n, M=m_ord, num=tuple(num), den=tuple(den), requested=requested
    )


def _horner(coeffs: Sequence, x) -> tuple:
    """Evaluate polynomial and its coefficient-magnitude scale at |x|."""
    val = mpf(0)
    scale = mpf(0)
    ax = abs(x)
    for cv in reversed(coeffs):
        val = val * x + cv
        scale = scale * ax + abs(cv)
    return val, scale


def _eval_rational(num_mpf, den_mpf, x, bits: int, label: str):
    den, den_scale = _horner(den_mpf, x)
    if abs(den) < mpf(2) ** (-(bits // 2)) * den_scale:
        raise PoleProximityError(
            f"denominator of {label} vanishes near x={float(x)}"
        )
    num, _ = _horner(num_mpf, x)
    return num / den


def evaluate(approx: PadeApproximant, x, bits: int = 256):
    """Evaluate the approximant at x with the given binary working precision.

    Raises PoleProximityError when the denominator lands below
    2**(-bits/2) relative to its own coefficient scale at x.
    """
    if bits < 8:
        raise ValueError(f"bits must be >= 8, got {bits}")

    def near(c):
        return mp.make_mpf(at_bits(Fraction(c), bits))

    with mp.workprec(bits):
        num_mpf = tuple(near(c) for c in approx.num)
        den_mpf = tuple(near(c) for c in approx.den)
        return _eval_rational(
            num_mpf, den_mpf, near(x), bits, f"[{approx.N}/{approx.M}]"
        )


def epsilon_ladder(coeffs, x, tol: float, bits: int) -> ResummationResult:
    """The diagonal ladder by Wynn's epsilon recursion on partial sums.

    The even columns of the epsilon table are the diagonal approximant
    values, so one pass over the 2 * max_order + 1 given coefficients
    costs O(max_order**2) operations at a working precision sized to the
    partial-sum overshoot.  A partial sum that repeats at that precision
    is a singular lozenge: the row stays too short, and every later order
    is skipped with a None diagnostic.
    The value is handed out exactly, as a Fraction, like pade's.
    """
    need = len(coeffs)
    x = Fraction(x)
    # Partial sums of a divergent series overshoot the resummed value by
    # the full divergence before the table cancels it back down, so the
    # working precision must cover that overshoot on top of the requested
    # precision.
    with mp.workprec(bits + 64):
        xv = mp.make_mpf(at_bits(x, bits + 64))
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
        xv = mp.make_mpf(at_bits(x, work))
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
        value=Fraction(*to_rational(value._mpf_)),
        converged=converged,
        order_used=order_used,
        diagnostics=tuple(diagnostics),
    )


def eager_qd(coeffs, ctx):
    """C-fraction coefficients a_1, a_2, ... of coeffs by the progressive qd
    loop run eagerly over every term in ctx, unrounded; it ends at the first
    zero divisor, like pade._qd."""
    add, sub, mul, div = ctx.add, ctx.subtract, ctx.multiply, ctx.divide
    c = [div(Decimal(q.numerator), Decimal(q.denominator)) for q in coeffs]
    found = []
    prev = []
    for s in range(1, len(coeffs)):
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
        found.append(cur[-1])
        prev = cur
    return found


def qd_runs(coeffs, bits):
    """The value and check qd runs of coeffs at bits, unrounded and cut to
    the shorter run, at the precisions pade gives them."""
    _, check_scale = pade._scales(bits)
    qd_bits = check_scale + pade._QD_BITS_PER_TERM * (len(coeffs) - 1)
    value = eager_qd(coeffs, pade._context(qd_bits + pade._GUARD_BITS))
    check = eager_qd(coeffs, pade._context(qd_bits))
    return value[: len(check)], check


def decimal_walk(coeffs, x, max_order, tol, bits):
    """The diagonal ladder of the whole series coeffs at x, walked in the
    decimal module: the walk the binary fixed-point one replaced, kept as
    its reference.

    The value run works at bits + 3 * _GUARD_BITS and the check run at
    bits + 2 * _GUARD_BITS, both in decimal digits.  Each qd coefficient
    is rounded to its walk's context, and the check run reads the value
    run's number wherever the two agree at the check precision.
    """
    check_bits = bits + 2 * pade._GUARD_BITS
    value_ctx = pade._context(check_bits + pade._GUARD_BITS)
    check_ctx = pade._context(check_bits)
    value_run, check_run = qd_runs(coeffs, bits)
    value_run = [value_ctx.plus(v) for v in value_run]
    check_run = [check_ctx.plus(w) for w in check_run]
    check_run = [v if check_ctx.plus(v) == w else w for v, w in zip(value_run, check_run)]
    c0 = (Decimal(coeffs[0].numerator), Decimal(coeffs[0].denominator))
    c0_value, c0_check = value_ctx.divide(*c0), check_ctx.divide(*c0)
    limit = value_ctx.power(Decimal(2), -bits)
    vsub, vmul = value_ctx.subtract, value_ctx.multiply
    csub, cmul = check_ctx.subtract, check_ctx.multiply
    value_bits = bits + 3 * pade._GUARD_BITS
    with mp.workprec(value_bits):
        point = x if isinstance(x, Fraction) else Fraction(*to_rational(mp.mpf(x)._mpf_))
    num, den = Decimal(point.numerator), Decimal(point.denominator)
    vx, cx = value_ctx.divide(num, den), check_ctx.divide(num, den)
    tolerance = Decimal(tol)
    va_prev = va_cur = vb_cur = ca_prev = ca_cur = cb_cur = Decimal(1)
    vb_prev = cb_prev = Decimal(0)
    diagnostics = []
    value = None
    converged = False
    for i in range(1, 2 * max_order + 1):
        if i > len(value_run):
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
        v = value_ctx.divide(vmul(c0_value, vb_cur), va_cur)
        check = check_ctx.divide(cmul(c0_check, cb_cur), ca_cur)
        if vsub(v, check).copy_abs() > vmul(limit, v.copy_abs()):
            break
        diagnostics.append((len(diagnostics) + 1, float(v)))
        if value is not None and vsub(v, value).copy_abs() <= vmul(tolerance, v.copy_abs()):
            value, converged = v, True
            break
        value = v
    if value is None:
        raise pade.PoleProximityError("no diagonal order has a value at this point")
    order_used = len(diagnostics)
    if not converged and order_used < max_order:
        diagnostics.append((order_used + 1, None))
    rounded = from_rational(*value.as_integer_ratio(), value_bits, round_nearest)
    return pade.ResummationResult(
        value=Fraction(*to_rational(rounded)),
        converged=converged,
        order_used=order_used,
        diagnostics=tuple(diagnostics),
    )


def exact_recurrence(c0, value_run, x_int, scale):
    """The walk's recurrence run exactly on its own integers: A_i and B_i at
    every even i as (N, D), meaning N 2**-D, with a_i = value_run[i - 1]
    2**-scale and x = x_int 2**-scale, so t_i = a_i x is never truncated."""
    def step(cur, prev, t):
        (n, d), (m, e) = cur, prev
        e += 2 * scale
        top = max(d, e)
        return (n << (top - d)) - ((t * m) << (top - e)), top

    a_prev = a = (c0.denominator, 0)
    b_prev, b = (0, 0), (c0.numerator, 0)
    out = []
    for i, coefficient in enumerate(value_run, 1):
        t = coefficient * x_int
        a_prev, a = a, step(a, a_prev, t)
        b_prev, b = b, step(b, b_prev, t)
        if i % 2 == 0:
            out.append((a, b))
    return out


def to_mpf(value):
    """An exact dyadic Fraction, or a (mantissa, exponent) pair, as the mpf of
    the same value, exactly."""
    if isinstance(value, Fraction):
        m, d = value.as_integer_ratio()
        assert d & (d - 1) == 0, "not dyadic"
        value = (m, 1 - d.bit_length())
    return mp.make_mpf(from_man_exp(*value))


def at_bits(value, bits):
    """An exact Fraction rounded half to even to bits, as an mpmath tuple."""
    return from_rational(value.numerator, value.denominator, bits, round_nearest)


# The photon statistics and the bright state's factor as mpmath computed
# them: weights and factors at the policy's working precision, statistics
# at 53 bits, every sum taken from scratch.  They read the cached series
# values, so they pin everything after the resummation.
def mp_weight(n, gamma, k, policy):
    """Unnormalized p-weight |C_k|^2 (k!)^n as an mpf at policy.bits."""
    with mp.workprec(policy.bits):
        if gamma == 0:
            return mpf(1) if k == 0 else mpf(0)
        s = to_mpf(state_module._series_value(n, k, gamma, policy))
        return mpf(gamma) ** (2 * k) * s * s * mpf(factorial(k)) ** n


def _mp_tail_estimate(w):
    if len(w) < 2 or w[-1] == 0:
        return 0.0
    if w[-2] == 0:
        return math.inf
    r = w[-1] / w[-2]
    if r >= 1:
        return math.inf
    return float(w[-1] * r / (1 - r))


def _mp_omitted(w):
    geometric = _mp_tail_estimate(w)
    if geometric == math.inf:
        return geometric
    return max(geometric, float(1 - sum(w)), 0.0)


def mp_retained_weights(n, gamma, policy):
    """(w, tail): the retained weights as mpfs and the omitted mass, the
    cutoff grown as photon_distribution grows it."""
    weight = functools.partial(mp_weight, n, gamma, policy=policy)
    with mp.workprec(53):
        if policy.cutoff is not None:
            w = [weight(k) for k in range(policy.cutoff + 1)]
            return w, _mp_omitted(w)
        w = [weight(0), weight(1)]
        tail = _mp_omitted(w)
        while not (
            tail < state_module.TAIL_TARGET * float(sum(w) + tail)
        ) and len(w) - 1 < state_module.CUTOFF_CAP:
            try:
                w.append(weight(len(w)))
            except ResummationError:
                break
            tail = _mp_omitted(w)
        return w, tail


def mp_distribution(spec):
    """photon_distribution(spec) by the mpmath chain at 53 bits."""
    w, tail = mp_retained_weights(spec.n, spec.gamma, spec.policy)
    scaled = [float(w[k]) * k * k for k in range(len(w))]
    diverged = len(scaled) >= 5 and all(
        scaled[k + 1] >= scaled[k] for k in range(len(scaled) - 5, len(scaled) - 1)
    )
    with mp.workprec(53):
        if tail == math.inf:
            total = sum(w)
            probs = tuple(float(x / total) for x in w)
            return TripleDistribution(spec.n, spec.gamma, probs, math.inf, None, True)
        total = sum(w) + mpf(tail)
        probs = tuple(float(x / total) for x in w)
        tail_bound = float(mpf(tail) / total)
    mean = None if diverged else math.fsum(k * p for k, p in enumerate(probs))
    return TripleDistribution(spec.n, spec.gamma, probs, tail_bound, mean, diverged)


def mp_factor(gamma, policy):
    """(factor, norm_residual) of build_bghz by the mpmath chain: the
    three-beam weights normalized, their square roots taken and divided at
    policy.bits, each made a float once."""
    w, _ = mp_retained_weights(3, gamma, policy)
    with mp.workprec(policy.bits):
        col = sum(w)
        norm_residual = float(abs(1 - col * col))
        root = col**0.5
        values = [state_module._series_value(3, q, gamma, policy) for q in range(len(w))]
        factor = np.array(
            [
                (1j) ** (q % 4) * ((1 if s[0] >= 0 else -1) * float(x**0.5 / root))
                for q, (s, x) in enumerate(zip(values, w))
            ]
        )
    return factor, norm_residual


# Per-party photon cap of the dense reference states.
DENSE_CAP = 4


@functools.lru_cache(maxsize=None)
def _party_basis(cap: int) -> tuple[tuple[int, int], ...]:
    """Two-mode occupations (q, m) with q + m <= cap, lexicographic."""
    return tuple((q, m) for q in range(cap + 1) for m in range(cap + 1 - q))


@functools.lru_cache(maxsize=None)
def _party_operators(cap: int) -> dict[str, np.ndarray]:
    """Explicit matrices of every supported per-party operator token."""
    basis = _party_basis(cap)
    index = {qm: i for i, qm in enumerate(basis)}
    dim = len(basis)

    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros((dim, dim), dtype=complex)
    for (q, m), col in index.items():
        if q > 0:
            a[index[(q - 1, m)], col] = math.sqrt(q)
        if m > 0:
            b[index[(q, m - 1)], col] = math.sqrt(m)
    adag = a.conj().T
    bdag = b.conj().T

    theta = {
        "1": adag @ b + bdag @ a,
        "2": 1j * (bdag @ a - adag @ b),
        "3": adag @ a - bdag @ b,
    }
    total = np.array([q + m for (q, m) in basis], dtype=float)
    ninv = np.diag([0.0 if t == 0 else 1.0 / t for t in total])
    nonvac = np.diag([0.0 if t == 0 else 1.0 for t in total]).astype(complex)
    vac = np.diag([1.0 if t == 0 else 0.0 for t in total]).astype(complex)

    ops: dict[str, np.ndarray] = {
        "Pi": nonvac,
        "S0": nonvac,
        "Pvac": vac,
        "I": np.eye(dim, dtype=complex),
    }
    for j, th in theta.items():
        s = ninv @ th
        ops[f"S{j}"] = s
        ops[f"S{j}p"] = s - vac
    return ops


@dataclass(frozen=True)
class DenseTruncatedState:
    """Unit-norm amplitude tensor over all capped six-mode occupations.

    axes: one per party; each index runs over the (q, m) occupations of
    that party's two modes in _party_basis order.
    """

    cap: int
    amp: np.ndarray

    @classmethod
    def from_amplitudes(
        cls, amps: dict[tuple[int, int], complex], cap: int = DENSE_CAP
    ) -> "DenseTruncatedState":
        """Dense state of three parties sharing one diagonal amplitude map.

        Entries with q + m beyond the cap must carry no weight: the oracle
        refuses to silently truncate what it is supposed to check.
        """
        basis = _party_basis(cap)
        index = {qm: i for i, qm in enumerate(basis)}
        dim = len(basis)
        dense = np.zeros((dim, dim, dim), dtype=complex)
        for (q, m), value in amps.items():
            if value == 0:
                continue
            if q + m > cap:
                raise ValueError(
                    f"occupation ({q},{m}) exceeds the dense cap {cap}"
                )
            i = index[(q, m)]
            dense[i, i, i] = value
        norm = math.sqrt(float(np.sum(np.abs(dense) ** 2)))
        if norm == 0:
            raise ValueError("state has no support within the dense cap")
        return cls(cap=cap, amp=dense / norm)


def dense_expectation(state: DenseTruncatedState, tokens: tuple[str, str, str]) -> float:
    """<state| O1 x O2 x O3 |state> by direct matrix action.

    Each token is one of S1, S2, S3 (normalized Stokes), S1p, S2p, S3p
    (vacuum-penalized), Pi or its alias S0 (non-vacuum projector), Pvac
    (vacuum projector), or I.
    """
    ops = _party_operators(state.cap)
    try:
        o1, o2, o3 = (ops[t] for t in tokens)
    except KeyError as err:
        raise ValueError(f"unknown operator token {err.args[0]!r}") from None
    acted = np.einsum("ai,bj,ck,ijk->abc", o1, o2, o3, state.amp, optimize=True)
    value = complex(np.vdot(state.amp, acted))
    return value.real


def random_product_state(rng, max_photons: int = 2) -> DenseTruncatedState:
    """Random fully separable three-party state for separability checks.

    Each party holds n photons, n drawn from {0..max_photons}, in the one
    mode polarized along a uniformly drawn direction (cos t, sin t e^{i phi}):
    amplitude sqrt(C(n, q)) cos(t)^q (sin(t) e^{i phi})^(n - q) on (q, n - q).
    The dense state is the exact outer product of the three, so any
    separable bound must hold on it.
    """
    index = {qm: i for i, qm in enumerate(_party_basis(max_photons))}
    parties = []
    for _ in range(3):
        n = int(rng.integers(0, max_photons + 1))
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta) * np.exp(1j * phi)
        local = np.zeros(len(index), dtype=complex)
        for q in range(n + 1):
            local[index[q, n - q]] = math.sqrt(math.comb(n, q)) * c**q * s ** (n - q)
        parties.append(local)
    return DenseTruncatedState(cap=max_photons, amp=np.einsum("i,j,k->ijk", *parties))
