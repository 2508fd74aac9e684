"""Random exchange-diagonal states, binomial shell blocks, the decimal
continued-fraction walk, the exact fixed-point recurrence and the mpmath
chain of the photon statistics and the bright state's factor, shared by
the tests."""

import cmath
import functools
import itertools
import math
from decimal import Decimal
from fractions import Fraction
from math import factorial

import numpy as np
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

from brightghz import pade
from brightghz import state as state_module
from brightghz.oracles import binomial_shell_rotation
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
