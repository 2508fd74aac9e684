"""Construction and resummation tests for the diagonal Pade ladder."""

import copy
import functools
import math
import pickle
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brightghz import _cftables, pade, state
from brightghz.pade import DiagonalResummer, PoleProximityError, diagonal_resum
from brightghz.series_core import _series_pairs, c_series
from brightghz.state import CUTOFF_CAP, DEFAULT_POLICY, NumericPolicy, ResummationError
from references import (
    at_bits,
    build_pade,
    decimal_walk,
    epsilon_ladder,
    evaluate,
    exact_qd,
    exact_recurrence,
    integer_qd_runs,
    to_mpf,
)
from test_walk_golden import GAINS as WALK_GAINS


def _taylor_of_rational(num, den, order):
    """Exact power series of num/den (den[0] != 0) through the given order."""
    num = [Fraction(c) for c in num] + [Fraction(0)] * order
    den = [Fraction(c) for c in den] + [Fraction(0)] * order
    out = []
    for i in range(order + 1):
        acc = num[i] - sum(den[j] * out[i - j] for j in range(1, i + 1))
        out.append(acc / den[0])
    return out


def test_geometric_tail():
    approx = build_pade([1, 1], 0, 1)
    assert approx.num == (Fraction(1),)
    assert approx.den == (Fraction(1), Fraction(-1))


def test_exp_one_one():
    approx = build_pade([1, 1, Fraction(1, 2)], 1, 1)
    assert approx.num == (Fraction(1), Fraction(1, 2))
    assert approx.den == (Fraction(1), Fraction(-1, 2))


def test_pure_polynomial_numerator():
    approx = build_pade([1, 0], 1, 0)
    assert approx.num == (Fraction(1), Fraction(0))
    assert approx.den == (Fraction(1),)


def test_exp_five_five_at_one():
    series = [Fraction(1, factorial(j)) for j in range(11)]
    approx = build_pade(series, 5, 5)
    v = evaluate(approx, 1, bits=256)
    assert abs(v - mpmath.e) < 1e-7


def test_taylor_match_on_random_series():
    rng = random.Random(20240814)
    checked = 0
    for _ in range(60):
        N = rng.randint(0, 5)
        M = rng.randint(0, 5)
        series = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N + M + 1)
        ]
        if series[0] == 0:
            series[0] = Fraction(1)
        approx = build_pade(series, N, M)
        if (approx.N, approx.M) != (N, M):
            continue  # degenerate sample stepped down; match not guaranteed
        re_expanded = _taylor_of_rational(approx.num, approx.den, N + M)
        assert re_expanded == series[: N + M + 1]
        checked += 1
    assert checked > 40


def test_rational_function_reproduced_exactly():
    # (1 + 2x) / (1 - x + x^2) has rational degree (1, 2)
    num, den = [1, 2], [1, -1, 1]
    series = _taylor_of_rational(num, den, 13)
    x = Fraction(3, 10)
    exact = Fraction(1 + 2 * x, 1 - x + x * x)
    with mpmath.mp.workprec(320):
        reference = mpmath.mpf(exact.numerator) / exact.denominator
    for d in (2, 3, 4):
        approx = build_pade(series, d, d)
        v = evaluate(approx, x, bits=256)
        assert abs(v - reference) < 1e-50


def test_step_down_on_singular_system():
    approx = build_pade([1, 1, 0, 0, 0], 2, 2)
    assert approx.requested == (2, 2)
    assert (approx.N, approx.M) == (1, 1)
    assert approx.num == (Fraction(1), Fraction(1))
    assert approx.den == (Fraction(1), Fraction(0))


def test_pole_proximity_raises():
    approx = build_pade([1, 1, 1], 1, 1)  # geometric: pole at x = 1
    assert approx.den == (Fraction(1), Fraction(-1))
    with pytest.raises(PoleProximityError):
        evaluate(approx, 1, bits=128)


def test_diagonal_resum_at_zero():
    series = [Fraction(7, 3), 1, 1, 1, 1, 1, 1, 1, 1]
    result = diagonal_resum(series, 0, max_order=4)
    assert result.converged
    assert float(result.value) == pytest.approx(7 / 3, abs=1e-15)


def test_euler_series_matches_borel_integral():
    # sum_j j! (-x)^j resums to int_0^inf exp(-s)/(1 + x s) ds
    x = 0.2
    series = [Fraction((-1) ** j * factorial(j)) for j in range(25)]
    result = diagonal_resum(series, x, max_order=12, tol=1e-10)
    assert result.converged
    reference = mpmath.quad(lambda s: mpmath.exp(-s) / (1 + x * s), [0, mpmath.inf])
    assert abs(to_mpf(result.value) - reference) < 1e-6
    # convergence criterion is about the last two retained diagonal values
    values = [v for _, v in result.diagnostics if v is not None]
    assert abs(values[-1] - values[-2]) <= 1e-10 * max(1.0, abs(values[-1]))


def test_precision_never_degrades_with_bits():
    num, den = [1, 2], [1, -1, 1]
    series = _taylor_of_rational(num, den, 9)
    approx = build_pade(series, 4, 4)
    x = Fraction(1, 3)
    exact = Fraction(1 + 2 * x, 1 - x + x * x)
    errors = []
    for bits in (64, 128, 256):
        v = evaluate(approx, x, bits=bits)
        with mpmath.mp.workprec(320):
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            errors.append(abs(v - ref))
    assert errors[0] >= errors[1] >= errors[2]


def test_ladder_values_match_explicit_approximants():
    # the fast diagonal walk must produce the same numbers as evaluating
    # the exactly constructed approximants one by one
    series = [Fraction(1, factorial(j)) for j in range(13)]
    resummer = DiagonalResummer(series)
    x = Fraction(3, 10)
    result = resummer.resum(x, max_order=6, tol=1e-80, bits=256)
    assert len(result.diagnostics) == 6
    for order, value in result.diagnostics:
        explicit = evaluate(build_pade(series, order, order), x, bits=256)
        assert value == pytest.approx(float(explicit), rel=1e-12)


@pytest.mark.parametrize(
    "series",
    [
        # degree 5: orders 2 and 3 walk the ladder, 5 and 6 sum the polynomial
        [Fraction(1, j + 1) for j in range(6)] + [Fraction(0)] * 7,
        # a gap: the first five terms end at degree 2, so order 2 sums them
        [Fraction(1), Fraction(1, 2), Fraction(1, 3), 0, 0, Fraction(1, 6)] + [0] * 7,
        # the last term read sets the degree: order 2 reads c_4 past a zero
        # c_3, so it walks, while 5 and 6 sum
        [Fraction(1), Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 5)] + [0] * 8,
    ],
)
def test_terminating_series_branch_follows_the_length_used(series):
    # one resummer, orders below and above the degree in either sequence:
    # each call walks or sums exactly as a fresh resummer does
    x, tol, bits = Fraction(-1, 3), 1e-10, 256
    for orders in ((2, 3, 5, 6), (6, 5, 3, 2)):
        resummer = DiagonalResummer(series)
        for order in orders:
            got = resummer.resum(x, max_order=order, tol=tol, bits=bits)
            assert got == DiagonalResummer(series).resum(x, max_order=order, tol=tol, bits=bits)
            prefix = series[: 2 * order + 1]
            degree = max(j for j, c in enumerate(prefix) if c)
            summed = degree <= order
            assert (got.diagnostics == ((max(1, degree), float(got.value)),)) == summed
            assert (len(got.diagnostics) == 1) == summed
            if summed:
                exact = sum(Fraction(c) * x**j for j, c in enumerate(prefix))
                assert abs(got.value - exact) <= abs(exact) / 2**bits


@pytest.mark.parametrize("series", [c_series(4, 3, 41).coeffs, [Fraction(1), Fraction(1, 2)] + [0] * 39])
def test_result_value_is_formed_from_its_rounded_pair_on_first_read(series):
    # resum hands out the rounded (mantissa, exponent) pair, which state
    # reads, from a walk or from a summed polynomial; the exact Fraction is
    # formed only when value is read, and the result compares, hashes,
    # prints, copies and pickles as one built from that Fraction
    got = DiagonalResummer(series).resum(Fraction(-1, 4), max_order=20)
    assert "value" not in vars(got)
    m, e = got._dyadic
    built = pade.ResummationResult(
        Fraction(m) * Fraction(2) ** e, got.converged, got.order_used, got.diagnostics
    )
    assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
    assert copy.copy(got) == pickle.loads(pickle.dumps(got)) == built


def test_short_series_rejected():
    with pytest.raises(ValueError):
        diagonal_resum([1, 1, 1], 0.5, max_order=4)
    with pytest.raises(ValueError):
        build_pade([1, 1], 2, 2)


# The C-fraction ladder against the epsilon recursion on partial sums:
# same orders, same stopping decisions, same diagnostics, same values.
def _epsilon_reference(series, x, max_order, tol, bits):
    return epsilon_ladder(series[: 2 * max_order + 1], x, tol, bits)


def _assert_same_ladder(got, ref):
    assert got.order_used == ref.order_used
    assert got.converged == ref.converged
    assert got.diagnostics == ref.diagnostics
    assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    k=st.integers(0, CUTOFF_CAP),
    gamma=st.floats(0, 0.9, exclude_min=True, exclude_max=True),
    pade_order=st.sampled_from([DEFAULT_POLICY.pade_order, 60]),
)
def test_continued_fraction_ladder_equals_epsilon(n, k, gamma, pade_order):
    tol, bits = DEFAULT_POLICY.tol, DEFAULT_POLICY.bits
    series = c_series(k, n, 2 * pade_order + 1).coeffs
    x = -(Fraction(gamma) ** 2)
    got = DiagonalResummer(series).resum(x, max_order=pade_order, tol=tol, bits=bits)
    assert all(v is not None for _, v in got.diagnostics), "the ladder stopped without a value"
    try:
        ref = _epsilon_reference(series, x, pade_order, tol, bits)
    except PoleProximityError:
        ref = None
    if ref is None or any(v is None for _, v in ref.diagnostics):
        # Below gain ~1e-11 a partial sum repeats at the epsilon table's
        # working precision; the singular lozenge blanks every later order
        # (all of them when the gain is below ~1e-48).  The continued
        # fraction has no such patch: it agrees wherever epsilon has a
        # value and settles on the leading terms.
        assert gamma < 1e-10
        assert got.converged
        for (_, v), (_, r) in zip(got.diagnostics, ref.diagnostics if ref else ()):
            assert r is None or v == pytest.approx(r, rel=1e-12)
        return
    _assert_same_ladder(got, ref)


def test_default_policy_ladder_never_stops_for_three_beams():
    # every emission order the auto cutoff can reach, across the gain range,
    # on the series as state holds them, so the walks read the shipped tables
    tol, bits, order = DEFAULT_POLICY.tol, DEFAULT_POLICY.bits, DEFAULT_POLICY.pade_order
    for k in range(0, CUTOFF_CAP + 1, 3):
        resummer = DiagonalResummer._from_pairs(_series_pairs(k, 3, 2 * order + 1, CUTOFF_CAP))
        for gamma in (0.05, 0.45, 0.77, 0.89):
            x = -(Fraction(gamma) ** 2)
            got = resummer.resum(x, max_order=order, tol=tol, bits=bits)
            assert all(v is not None for _, v in got.diagnostics), (k, gamma)


def _assert_unsettled(got, order):
    # the ladder stops at the order without a value, and the state layer
    # turns that into an error instead of a number
    assert not got.converged
    assert got.diagnostics[-1] == (order, None)
    assert all(v is not None for _, v in got.diagnostics[:-1])
    assert got.order_used == order - 1


def test_qd_breakdown_ends_the_ladder_unsettled(monkeypatch):
    # a zero interior coefficient is a zero divisor in the qd table
    series = [Fraction((-1) ** j * factorial(j)) for j in range(25)]
    series[5] = Fraction(0)
    resummer = DiagonalResummer(series)
    ladder = resummer._cfraction(256)
    ladder.reaches(24)
    assert len(ladder.value) == 5
    # a_1..a_4 give orders 1 and 2; order 3 needs the missing a_6
    _assert_unsettled(resummer.resum(Fraction(1, 5), max_order=12, tol=1e-10, bits=256), 3)
    monkeypatch.setattr(state, "_resummer", lambda n, k, L: resummer)
    with pytest.raises(ResummationError):
        state._series_value(3, 2, 0.5, NumericPolicy(pade_order=12))


def test_zero_e_entry_ends_qd():
    # the geometric series 1/(1 - x) has e_1 = 0, a zero divisor for q_2:
    # qd stops after a_1, so order 1 holds the exact value 2 at x = 1/2 and
    # order 2 has none
    got = DiagonalResummer([1] * 9).resum(0.5, max_order=4)
    assert got.value == 2
    _assert_unsettled(got, 2)
    assert got.diagnostics == ((1, 2.0), (2, None))


def test_failed_precision_guard_ends_the_ladder_unsettled(monkeypatch):
    # without qd headroom, per term or for small entries, the check run no
    # longer reproduces the ladder
    monkeypatch.setattr(pade, "_QD_BITS_PER_TERM", 0)
    monkeypatch.setattr(pade, "_QD_HEADROOM", 0)
    monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
    resummer = DiagonalResummer(c_series(40, 3, 81).coeffs)
    got = resummer.resum(-(Fraction(0.6) ** 2), max_order=40, tol=1e-10, bits=256)
    _assert_unsettled(got, got.diagnostics[-1][0])
    with pytest.raises(ResummationError):
        state._series_value(3, 40, 0.6, DEFAULT_POLICY)


def test_two_beam_deep_ladder_matches_epsilon():
    # two beams at order 60 lose the most bits in qd, in late coefficients
    tol, bits = DEFAULT_POLICY.tol, DEFAULT_POLICY.bits
    for k in (0, 30, 60):
        series = c_series(k, 2, 121).coeffs
        resummer = DiagonalResummer(series)
        for gamma in (0.3, 0.89):
            x = -(Fraction(gamma) ** 2)
            got = resummer.resum(x, max_order=60, tol=tol, bits=bits)
            _assert_same_ladder(got, _epsilon_reference(series, x, 60, tol, bits))


def _outcome(walk):
    try:
        return walk()
    except PoleProximityError as err:
        return str(err)


# The walk on binary fixed-point integers against the decimal walk it
# replaced (references.decimal_walk): every decision and diagnostic float
# is the same, and so is the value at the requested precision.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    k=st.sampled_from(range(CUTOFF_CAP + 1)),
    gamma=st.floats(0.01, 0.89),
    order=st.sampled_from(range(20, 41)),
    bits=st.sampled_from(range(128, 321)),
)
def test_integer_walk_equals_the_decimal_walk(n, k, gamma, order, bits):
    coeffs = c_series(k, n, 2 * order + 1).coeffs
    x = -(Fraction(gamma) ** 2)
    tol = DEFAULT_POLICY.tol
    got = _outcome(lambda: DiagonalResummer(coeffs).resum(x, max_order=order, tol=tol, bits=bits))
    want = _outcome(lambda: decimal_walk(coeffs, x, order, tol, bits))
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert (got.converged, got.order_used, got.diagnostics) == (
        want.converged,
        want.order_used,
        want.diagnostics,
    )
    assert at_bits(got.value, bits) == at_bits(want.value, bits)


# The walk's running error bound against the exact recurrence on the same
# integers: never below the true error of A or B at any order walked, and
# far enough below 2**-bits to keep the ladders the check run kept.  The
# least margins found on the default policy (k = 0..60 at gains 0.01-0.89
# in steps of 0.02, and for B/A also k = 40..60 in steps of 0.0025) were
# 91 bits on A and 34 on B/A, whose B can fall 2**70 below its majorant in
# ladders that end unconverged with values near zero.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    k=st.sampled_from(range(CUTOFF_CAP + 1)),
    gamma=st.floats(0.01, 0.89),
    order=st.sampled_from(range(20, 41)),
    bits=st.sampled_from(range(128, 321)),
)
def test_error_bound_covers_the_walks_rounding(n, k, gamma, order, bits):
    coeffs = c_series(k, n, 2 * order + 1).coeffs
    resummer = DiagonalResummer(coeffs)
    x = -(Fraction(gamma) ** 2)
    tol, trace = DEFAULT_POLICY.tol.as_integer_ratio(), []
    try:
        resummer._walk(x.as_integer_ratio(), order, tol, bits, trace)
    except PoleProximityError:
        pass
    ladder = resummer._cfraction(bits)
    x_int = round(x * 2**ladder.scale)
    exact = exact_recurrence(coeffs[0], ladder.value, x_int, ladder.scale)
    assert trace and len(trace) <= len(exact)
    for (a, b, da), ((na, ea), (nb, eb)) in zip(trace, exact):
        db = abs(coeffs[0]) * da
        assert abs(a * 2**ea - na) <= da * 2**ea
        assert abs(b * 2**eb - nb) <= db * 2**eb
        assert da <= abs(a) / 2 ** (bits + 64)
        assert db / abs(b) + da / abs(a) <= Fraction(1, 2 ** (bits + 24))


def test_qd_disagreement_ends_the_walk(monkeypatch):
    # the check qd run off by 2**-8 in a_4 of an unshipped series: the
    # coefficient's error ends the ladder at order 2, the first to read it,
    # though the value run, and so every value, is unchanged
    bits = pade._DEFAULT_BITS
    series = c_series(4, 3, 41).coeffs
    x = -(Fraction(0.5) ** 2)
    clean = DiagonalResummer(series).resum(x, max_order=20, bits=bits)
    assert clean.order_used > 2
    qd, (_, check_scale) = pade._qd, pade._scales(bits)

    def nudged(pairs, work, scale):
        for i, a in enumerate(qd(pairs, work, scale)):
            yield a + (scale == check_scale and i == 3) * (1 << (check_scale - 8))

    monkeypatch.setattr(pade, "_qd", nudged)
    got = DiagonalResummer(series).resum(x, max_order=20, bits=bits)
    _assert_unsettled(got, 2)
    assert got.diagnostics[0] == clean.diagnostics[0]


@pytest.mark.parametrize(
    "m, e",
    [
        ((1 << 60) + (1 << 7), -60),  # a tie, to even: down
        ((1 << 60) + (3 << 7), -60),  # a tie, to even: up
        ((1 << 60) + (1 << 7) + 1, -60),  # just past the tie
        (-((1 << 500) + (1 << 447)), -520),  # a tie in a 501-bit mantissa
        (-((1 << 500) + (1 << 447) + 1), -520),  # past it only in the bits cut
        ((1 << 500) - 1, 3),
    ],
)
def test_walk_floats_are_correctly_rounded(m, e):
    assert pade._float(m, e) == float(Fraction(m) * Fraction(2) ** e)


def test_walk_floats_past_the_range_are_infinite():
    assert pade._float(1 << 500, 600) == math.inf
    assert pade._float(-(1 << 1500), 0) == -math.inf
    assert pade._float(1, -1200) == 0.0


# Below 2**-1021 the floats are the multiples of 2**-1074, so the nearest
# one is the exact value rounded half to even on that grid.  Rounding to 53
# bits first and then to the grid rounds twice: a value within 2**-54
# relative of a grid midpoint rounds to the midpoint, and then to even.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 53),
    st.integers(0, (1 << 53) - 1),
    st.sampled_from((-(1 << 25), -1, 0, 1, 1 << 25)) | st.integers(-(1 << 30), 1 << 30),
    st.booleans(),
)
def test_float_rounds_once_below_the_normal_range(p, q, offset, negative):
    # m 2**e = (q + 1/2) 2**-1074 + offset 2**e for a p-bit q, m of 80 bits
    q = q % (1 << (p - 1)) + (1 << (p - 1))
    m = (q << (80 - p)) + (1 << (79 - p)) + offset
    m, e = (-m if negative else m), p - 1154
    exact = Fraction(m, 1 << -e)
    want = math.ldexp(round(exact * 2**1074), -1074)
    assert pade._float(m, e) == want == float(exact)


# The resumable qd table against the eager one: the same integer rules run
# to completion on every term, column by column (references.fixed_qd).
def _eager_ladder(coeffs, bits):
    # the walk's lists from the eager table: each value-run coefficient with
    # its error, the runs' difference in check-scale units rounded down,
    # plus one unit
    value, check = integer_qd_runs(coeffs, bits)
    ladder = pade._Ladder(len(coeffs) - 1, pade._scales(bits)[0], None)
    unit = 2**pade._GUARD_BITS
    for a, c in zip(value, check):
        ladder.append(a, float(unit * (1 + abs(c * unit - a) // unit)))
    return ladder


def _lists(ladder):
    return ladder.value, ladder.weight, ladder.base, ladder.slope


def _broken_euler():
    # a zero interior coefficient is a zero divisor in the qd table
    series = [Fraction((-1) ** j * factorial(j)) for j in range(25)]
    series[5] = Fraction(0)
    return series


def _scaled_pairs(series):
    # the series as pairs far from lowest terms: each c_j, c_0 included,
    # scaled by its own integer factor
    pairs = [Fraction(c).as_integer_ratio() for c in series]
    return DiagonalResummer._from_pairs([(p * j, q * j) for j, (p, q) in enumerate(pairs, 2)])


_TABLE_SERIES = [c_series(k, n, 81).coeffs for n in (1, 2, 3) for k in (0, 7, 40)]
_TABLE_IDS = [f"n{n}-k{k}" for n in (1, 2, 3) for k in (0, 7, 40)]


@pytest.mark.parametrize(
    "series, build",
    [(s, DiagonalResummer) for s in _TABLE_SERIES + [_broken_euler()]]
    + [(s, _scaled_pairs) for s in _TABLE_SERIES + [_broken_euler()]],
    ids=_TABLE_IDS + ["breakdown"] + [f"{i}-scaled-pairs" for i in _TABLE_IDS + ["breakdown"]],
)
def test_resumable_table_equals_the_eager_one(series, build):
    # walks at rising gains extend the table piece by piece; every
    # coefficient found on the way is the one the eager table holds.  The
    # same series held as pairs out of lowest terms gives that table too,
    # and every result of a resummer of the reduced series, bit for bit
    bits = DEFAULT_POLICY.bits
    want = _lists(_eager_ladder(series, bits))
    resummer = build(series)
    ladder = resummer._cfraction(bits)
    order = (len(series) - 1) // 2
    reduced = DiagonalResummer(series)

    def walk(r, gamma):
        return _outcome(lambda: r.resum(-(Fraction(gamma) ** 2), max_order=order, bits=bits))

    for gamma in (0.05, 0.3, 0.6, 0.85):
        assert walk(resummer, gamma) == walk(reduced, gamma)
        assert _lists(ladder) == tuple(w[: len(ladder.value)] for w in want)
    assert ladder.reaches(len(series) - 1) == (len(want[0]) == len(series) - 1)
    assert _lists(ladder) == want


# The value run against exact-rational qd (references.exact_qd): each a_i
# 2**F is the exactly rounded coefficient.  The two-beam k = 0 table has
# entries near 2**-250, which the fixed point's headroom carries.
@pytest.mark.parametrize(
    "n, k, terms", [(1, 0, 41), (3, 0, 41), (3, 30, 41), (2, 0, 81)], ids=lambda v: str(v)
)
def test_value_run_is_the_exactly_rounded_c_fraction(n, k, terms):
    read = 40
    ladder = DiagonalResummer(c_series(k, n, terms).coeffs)._cfraction(DEFAULT_POLICY.bits)
    assert ladder.reaches(read)
    exact = exact_qd(c_series(k, n, read + 1).coeffs)
    assert ladder.value[:read] == [round(a * 2**ladder.scale) for a in exact]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_builds_only_the_coefficients_it_reads(n):
    # a walk that settles at order N reads a_1..a_2N, and qd stops there;
    # 121 terms, where no table ships, so qd runs for three beams too
    bits = pade._DEFAULT_BITS
    resummer = DiagonalResummer(c_series(4, n, 121).coeffs)
    got = resummer.resum(-(Fraction(0.3) ** 2), max_order=40, bits=bits)
    assert got.converged and got.order_used < 40
    ladder = resummer._cfraction(bits)
    assert [len(built) for built in _lists(ladder)] == [2 * got.order_used] * 4
    assert ladder.runs is not None


@pytest.mark.parametrize("n,k", [(1, 3), (2, 10), (3, 0), (3, 25)])
def test_resumed_table_gives_a_fresh_resummers_results(n, k):
    # a low-gain walk leaves the table short; the high-gain walk after it
    # resumes qd and must land on exactly what a fresh resummer finds
    series = c_series(k, n, 81).coeffs
    resummer = DiagonalResummer(series)
    for gamma in (0.1, 0.8, 0.45):
        x = -(Fraction(gamma) ** 2)
        assert resummer.resum(x, max_order=40) == DiagonalResummer(series).resum(x, max_order=40)


def test_complete_table_holds_no_suspended_qd_state():
    series = c_series(12, 3, 41).coeffs
    ladder = DiagonalResummer(series)._cfraction(DEFAULT_POLICY.bits)
    assert ladder.reaches(39) and ladder.runs is not None
    assert ladder.reaches(40) and ladder.runs is None
    assert not ladder.reaches(41)
    assert len(ladder.value) == 40
    # a table that broke down lets its runs go too
    broken = DiagonalResummer(_broken_euler())._cfraction(DEFAULT_POLICY.bits)
    assert not broken.reaches(6) and broken.runs is None


# The shipped three-beam tables: seeded ladders, the exact match key, and
# the archive against the code that writes it.
def _unseeded(monkeypatch):
    monkeypatch.setattr(pade, "_stored_table", lambda name: None)


def _qd_started(monkeypatch):
    # the arguments of every qd run started from here on
    started, qd = [], pade._qd

    def counted(*args):
        started.append(args)
        return qd(*args)

    monkeypatch.setattr(pade, "_qd", counted)
    return started


def test_shipped_tables_are_the_ones_the_code_computes():
    # the whole file, byte for byte, one table per tuple number
    assert len(pade._stored_archive()) == CUTOFF_CAP + 1
    assert _cftables._archive() == pade._TABLES.read_bytes()


def test_archive_refuses_a_check_run_of_its_own(monkeypatch):
    # a table holds the value run's numbers alone, and the reader gives
    # each one check-scale unit of error; a table whose check run is not
    # its value run coarsened in one coefficient cannot be stored
    bits = DEFAULT_POLICY.bits
    series = [_series_pairs(4, 3, 21, CUTOFF_CAP)]
    assert pade._table_archive(series, bits)
    qd, (_, check_scale) = pade._qd, pade._scales(bits)

    def nudged(pairs, work, scale):
        for i, a in enumerate(qd(pairs, work, scale)):
            yield a + (scale == check_scale and i == 3)

    monkeypatch.setattr(pade, "_qd", nudged)
    with pytest.raises(ValueError, match="check run is not the value run coarsened"):
        pade._table_archive(series, bits)


def test_shipped_table_seeds_the_ladder(monkeypatch):
    # the default policy's three-beam series, built as production builds
    # it: the ladder reads the complete shipped table with no qd run, and
    # it is the table qd computes, each coefficient's error included
    bits, length = pade._SHIPPED_BITS, 2 * DEFAULT_POLICY.pade_order + 1
    series = c_series(4, 3, length).coeffs
    started = _qd_started(monkeypatch)
    seeded = state._resummer.__wrapped__(3, 4, length)
    ladder = seeded._cfraction(bits)
    assert ladder.reaches(ladder.size) and ladder.runs is None
    assert started == []
    assert _lists(ladder) == _lists(_eager_ladder(series, bits))
    # the same series as reduced Fractions misses the archive, and qd (its
    # value and check runs) computes the same ladder and the same results
    reduced = DiagonalResummer(series)
    xs = [-(Fraction(g) ** 2) for g in (0.1, 0.6, 0.77, 0.89)]
    assert [reduced.resum(x, bits=bits) for x in xs] == [seeded.resum(x, bits=bits) for x in xs]
    assert len(started) == 2
    assert reduced._cfraction(bits).reaches(reduced._cfraction(bits).size)
    assert _lists(reduced._cfraction(bits)) == _lists(ladder)
    # and so does qd on the pairs as held, once nothing ships
    _unseeded(monkeypatch)
    computed = DiagonalResummer._from_pairs(seeded._pairs)._cfraction(bits)
    assert computed.reaches(computed.size) and len(started) == 4
    assert _lists(computed) == _lists(ladder)


@pytest.mark.parametrize("k, gamma", [(0, 0.05), (4, 0.3), (20, 0.6), (40, 0.2)])
def test_walk_reads_only_the_shipped_coefficients_it_uses(k, gamma, monkeypatch):
    # a walk that settles at order N reads a_1..a_2N, and no more of the
    # shipped table, coarsened to the default precision; nor any of it
    # before the first walk
    read, stored = [], pade._stored_table

    def counted(name):
        table = stored(name)
        return None if table is None else (read.append(a) or a for a in table)

    monkeypatch.setattr(pade, "_stored_table", counted)
    bits = pade._DEFAULT_BITS
    resummer = state._resummer.__wrapped__(3, k, 2 * DEFAULT_POLICY.pade_order + 1)
    ladder = resummer._cfraction(bits)
    assert read == [] and ladder.runs is not None
    got = resummer.resum(-(Fraction(gamma) ** 2), max_order=DEFAULT_POLICY.pade_order, bits=bits)
    assert got.order_used < DEFAULT_POLICY.pade_order
    assert len(read) == len(ladder.value) <= 2 * got.order_used


@pytest.mark.parametrize(
    "bits, order",
    [(64, DEFAULT_POLICY.pade_order), (pade._DEFAULT_BITS, DEFAULT_POLICY.pade_order),
     (pade._DEFAULT_BITS, 20)],
    ids=["bits64", "default", "order20"],
)
def test_coarsened_shipped_table_is_the_qd_run(bits, order, monkeypatch):
    # below the shipped precision a ladder reads the shipped table, each
    # coefficient rounded to the value scale at bits, with no qd run; that
    # prefix is the ladder qd computes at bits, values, weights and base
    # sums, and for a lower order on the shorter series it reads.  Each
    # coefficient is charged half a value unit plus the shipped check-scale
    # unit at bits, which covers its distance from the exact coefficient
    started = _qd_started(monkeypatch)
    charged, append = [], pade._Ladder.append

    def logged(ladder, a, error):
        charged.append((a, error))
        append(ladder, a, error)

    monkeypatch.setattr(pade._Ladder, "append", logged)
    length = 2 * order + 1
    error = 0.5 + 2.0 ** (bits - 192)
    for k in range(0, CUTOFF_CAP + 1, 6):
        want = _lists(_eager_ladder(c_series(k, 3, length).coeffs, bits))[:3]
        charged.clear()
        resummer = state._resummer.__wrapped__(3, k, 2 * DEFAULT_POLICY.pade_order + 1)
        ladder = resummer._cfraction(bits)
        assert ladder.reaches(length - 1)
        assert tuple(built[: length - 1] for built in _lists(ladder)[:3]) == want, k
        assert {e for _, e in charged} == {error}
        if k % 30 == 0:
            scale, read = ladder.scale, 20
            exact = exact_qd(c_series(k, 3, read + 1).coeffs)
            assert all(abs(a - x * 2**scale) <= e for (a, e), x in zip(charged, exact)), k
    assert started == []


# The walk's B/A bound on the shipped three-beam tables at the default
# policy, which reads them coarsened: with each coefficient charged the error
# it has, the least margin past bits on this grid is 96.4 bits (k = 51,
# gamma = 0.49); charged one shipped check-scale unit it was 42.3.
def test_coarsened_tables_keep_the_bound_80_bits_past_bits():
    bits, order = DEFAULT_POLICY.bits, DEFAULT_POLICY.pade_order
    tol, limit = DEFAULT_POLICY.tol.as_integer_ratio(), Fraction(1, 2 ** (bits + 80))
    for k in range(0, CUTOFF_CAP + 1, 3):
        resummer = state._resummer(3, k, 2 * order + 1)
        c0 = abs(Fraction(*resummer._pairs[0]))
        for gamma in WALK_GAINS[::2]:
            trace = []
            resummer._walk((-(Fraction(gamma) ** 2)).as_integer_ratio(), order, tol, bits, trace)
            assert trace
            for a, b, da in trace:
                assert c0 * da / abs(b) + da / abs(a) <= limit, (k, gamma)


def _no_qd(*args):
    raise AssertionError("a qd run started")
    yield


def test_cold_cap_build_reads_the_archive_directory_once(monkeypatch):
    # a cold build at the cutoff cap looks up 61 shipped tables, all from
    # one read and load of the archive file; every lookup finds its table,
    # so no qd run starts
    parses = []
    read_bytes = Path.read_bytes

    def counted(path):
        if path == pade._TABLES:
            parses.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    read = pade._stored_table
    names, tables = [], []

    def logged(name):
        names.append(name)
        tables.append(read(name))
        return tables[-1]

    monkeypatch.setattr(pade, "_stored_table", logged)
    monkeypatch.setattr(pade, "_qd", _no_qd)
    weights = functools.lru_cache(32)(state._retained_weights.__wrapped__)
    monkeypatch.setattr(state, "_retained_weights", weights)
    monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
    monkeypatch.setattr(state, "_bright_state", functools.cache(state._bright_state.__wrapped__))
    pade._stored_archive.cache_clear()
    assert state.build_bghz(0.352).cutoff == CUTOFF_CAP
    assert len(parses) == 1
    assert len(names) == len(set(names)) == CUTOFF_CAP + 1
    assert all(table is not None for table in tables)


@pytest.mark.parametrize(
    "policy", [NumericPolicy(bits=64), NumericPolicy(pade_order=20)], ids=["bits64", "order20"]
)
def test_cold_cap_build_starts_no_qd_run(policy, monkeypatch):
    # as at the default policy (above): every precision up to the shipped
    # one and every order up to its depth reads the shipped tables, so a
    # cold build at the cutoff cap's gain finds every table it looks up
    monkeypatch.setattr(pade, "_qd", _no_qd)
    weights = functools.lru_cache(32)(state._retained_weights.__wrapped__)
    monkeypatch.setattr(state, "_retained_weights", weights)
    monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
    monkeypatch.setattr(state, "_bright_state", functools.cache(state._bright_state.__wrapped__))
    state.build_bghz(0.352, policy)


@pytest.mark.parametrize("cut", [0.9, 0.5, None], ids=["90%", "50%", "one byte"])
def test_damaged_archive_fails_loudly(cut, tmp_path, monkeypatch):
    # a cut file raises marshal's own error at the first lookup; read as
    # shortened tables it would end walks early and, at the cutoff cap, stop
    # the auto cutoff short of CUTOFF_CAP without a word
    data = pade._TABLES.read_bytes()
    damaged = tmp_path / "cfractions.bin"
    damaged.write_bytes(data[: len(data) - 1 if cut is None else int(len(data) * cut)])
    monkeypatch.setattr(pade, "_TABLES", damaged)
    weights = functools.lru_cache(32)(state._retained_weights.__wrapped__)
    monkeypatch.setattr(state, "_retained_weights", weights)
    monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
    monkeypatch.setattr(state, "_bright_state", functools.cache(state._bright_state.__wrapped__))
    pade._stored_archive.cache_clear()
    try:
        with pytest.raises((EOFError, ValueError)):
            state.build_bghz(0.352)
    finally:
        pade._stored_archive.cache_clear()


def test_shipped_table_walk_needs_no_qd(monkeypatch):
    # a series held as state holds it reads the shipped table: without qd
    # its walks give what qd gives
    length = 2 * DEFAULT_POLICY.pade_order + 1
    xs = [-(Fraction(g) ** 2) for g in (0.1, 0.6, 0.89)]
    want = [DiagonalResummer(c_series(4, 3, length).coeffs).resum(x) for x in xs]
    resummer = DiagonalResummer._from_pairs(_series_pairs(4, 3, length, CUTOFF_CAP))
    monkeypatch.setattr(pade, "_qd", None)
    assert [resummer.resum(x) for x in xs] == want


def test_import_reads_no_table():
    code = "import brightghz.pade as p; raise SystemExit(p._stored_archive.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize(
    "case", ["perturbed", "bits=320", "pade_order=30", "qd_bits", "qd_headroom"]
)
def test_unshipped_series_or_precision_runs_qd(case, monkeypatch):
    # any change to what fixes the table of a series held as production
    # holds it misses the archive and computes, giving exactly what a
    # resummer without shipped tables gives
    series = list(_series_pairs(20, 3, 81, CUTOFF_CAP))
    order, bits = 40, 256
    if case == "perturbed":
        p, q = series[37]
        series[37] = (p * (10**30 + 1), q * 10**30)
    elif case == "bits=320":
        bits = 320
    elif case == "pade_order=30":
        order = 30
        series = series[:61]
    elif case == "qd_bits":
        monkeypatch.setattr(pade, "_QD_BITS_PER_TERM", pade._QD_BITS_PER_TERM + 1)
    else:
        monkeypatch.setattr(pade, "_QD_HEADROOM", pade._QD_HEADROOM + 1)
    xs = [-(Fraction(g) ** 2) for g in (0.2, 0.6, 0.85)]
    started = _qd_started(monkeypatch)
    resummer = DiagonalResummer._from_pairs(series)
    resummer._cfraction(bits)
    assert len(started) == 2
    got = [resummer.resum(x, max_order=order, bits=bits) for x in xs]
    _unseeded(monkeypatch)
    fresh = DiagonalResummer._from_pairs(series)
    assert got == [fresh.resum(x, max_order=order, bits=bits) for x in xs]


def test_shipped_tables_give_the_computed_series_values(monkeypatch):
    # at the Bell threshold gain k = 18-21 are soft-accepted and k = 33 ends
    # the auto cutoff with a ResummationError; both outcomes, and every
    # value, are the same with and without the shipped tables
    sample = [(k, 0.77) for k in (0, 9, 18, 19, 20, 21, 22, 32, 33)]
    sample += [(5, 0.05), (40, 0.45), (60, 0.3), (60, 0.89)]

    def outcomes():
        monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
        out = []
        for k, gamma in sample:
            try:
                out.append(state._series_value(3, k, gamma, DEFAULT_POLICY))
            except ResummationError as err:
                out.append((str(err), err.order_reached))
        return out

    seeded = outcomes()
    for k in (18, 19, 20, 21):
        assert not state._resummer(3, k, 81).resum(-(Fraction(0.77) ** 2)).converged
        assert not isinstance(seeded[sample.index((k, 0.77))][0], str)
    assert isinstance(seeded[sample.index((33, 0.77))][0], str)
    _unseeded(monkeypatch)
    assert outcomes() == seeded


EULER = [Fraction((-1) ** j * factorial(j)) for j in range(25)]


@pytest.mark.parametrize(
    "x", [float("inf"), float("-inf"), float("nan"), mpmath.inf, mpmath.nan]
)
def test_non_finite_point_rejected(x):
    with pytest.raises(ValueError, match=re.escape("x must lie in (-inf, inf)")):
        diagonal_resum(EULER, x, max_order=12)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), mpmath.nan])
def test_non_finite_coefficient_is_named(c):
    # the error names the coefficient and its index, not the point
    message = r"^series coefficient c_1 must lie in \(-inf, inf\), got (nan|inf|mpf\('nan'\))$"
    with pytest.raises(ValueError, match=message):
        DiagonalResummer([1.0, c, 1.0])


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
def test_a_bool_is_neither_a_point_nor_a_coefficient(flag):
    # diagonal_resum([True, ...], x) and diagonal_resum(series, True) ran, at
    # 1 or 0, where a bool tol was rejected
    message = f"x must lie in (-inf, inf), got {flag!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_resum(EULER, flag, max_order=12)
    message = f"series coefficient c_0 must lie in (-inf, inf), got {flag!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_resum([flag, 1.0, 1.0], 0.1, max_order=1)


def test_rationals_past_the_float_maximum_are_taken_exactly():
    # an exact rational has no float range to leave: the Euler series passes
    # the float maximum at c_171, and a coefficient or point may be 10**400
    euler = [Fraction((-1) ** j * factorial(j)) for j in range(201)]
    deep = diagonal_resum(euler, 0.001, max_order=100)
    assert deep.value == diagonal_resum(euler[:81], 0.001, max_order=40).value
    huge = diagonal_resum([1, Fraction(10**400), 10**400], 0, max_order=1)
    assert huge.value == 1 and huge.converged
    far = diagonal_resum([1, 1, 0], Fraction(10**400), max_order=1).value
    assert abs(far / (1 + 10**400) - 1) < Fraction(1, 2**128)
    # a tol enters the walk as a float too, so it keeps the float range
    with pytest.raises(ValueError, match=re.escape("tol must lie in (0, inf)")):
        diagonal_resum(euler, 0.2, max_order=12, tol=Fraction(10**400))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match=re.escape("tol must lie in (0, inf)")):
        diagonal_resum(EULER, 0.2, max_order=12, tol=tol)


@pytest.mark.parametrize(
    "tol",
    [Decimal("NaN"), np.float32("nan"), np.float16("nan")],
    ids=lambda tol: type(tol).__name__,
)
def test_nan_tol_of_any_type_is_rejected(tol):
    # a Decimal NaN raised decimal.InvalidOperation from the range check
    with pytest.raises(ValueError, match=re.escape("tol must lie in (0, inf)")):
        diagonal_resum(EULER, 0.2, max_order=12, tol=tol)
    with pytest.raises(ValueError, match=re.escape("tol must lie in (0, 0.001)")):
        NumericPolicy(tol=tol)


def test_max_order_must_be_positive():
    with pytest.raises(ValueError, match="max_order must be >= 1, got 0"):
        DiagonalResummer([1] * 9).resum(0.5, max_order=0)


@pytest.mark.parametrize("bits", [63, 0, -1, -300])
def test_bits_below_the_policy_floor_are_rejected(bits):
    # bits = 0 and -1 returned a converged value under the vacuous guard
    # 2**-bits, at the walk and at x = 0 alike
    message = f"bits must be >= 64, got {bits}"
    with pytest.raises(ValueError, match=message):
        diagonal_resum(EULER, 0.2, max_order=12, bits=bits)
    with pytest.raises(ValueError, match=message):
        DiagonalResummer(EXP).resum(0, max_order=12, bits=bits)


@pytest.mark.parametrize(
    "bits", [769, 65537, 2**64, 10**400], ids=lambda bits: f"{len(str(bits))}-digit"
)
def test_bits_past_the_ceiling_are_rejected(bits):
    # 10**400 raised OverflowError ("too many digits in integer") from the
    # walk's first shift, and 2**64 MemoryError; the x = 0 path takes the
    # same bound, NumericPolicy's
    shown = str(bits) if bits.bit_length() <= 64 else f"an integer of {bits.bit_length()} bits"
    message = f"bits must be <= 768, got {shown}"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_resum([1.0] * 81, 0.1, bits=bits)
    with pytest.raises(ValueError, match=re.escape(message)):
        DiagonalResummer(EXP).resum(0, max_order=12, bits=bits)
    assert diagonal_resum(EXP, 0.5, max_order=12, bits=768).converged


@pytest.mark.parametrize(
    "name, value", [("max_order", 12.0), ("max_order", True), ("bits", 256.5), ("bits", "256")]
)
def test_order_and_bits_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        diagonal_resum(EULER, 0.2, **{"max_order": 12, name: value})


def test_numpy_order_and_bits_walk_as_python_ints():
    # a fixed-width shift count would silently zero the fixed-point walk
    got = diagonal_resum(EULER, 0.2, max_order=np.int64(12), bits=np.int32(128))
    assert got == diagonal_resum(EULER, 0.2, max_order=12, bits=128)


EXP = [Fraction(1, factorial(j)) for j in range(25)]


@pytest.mark.parametrize(
    "x",
    [
        np.int64(-1),
        np.int32(-1),
        np.int64(0),
        np.uint8(1),
        np.float64(0.2),
        np.float32(0.2),
        np.float16(-0.3),
        np.longdouble(0.2),
    ],
    ids=lambda x: f"{type(x).__name__}({x})",
)
def test_numpy_point_walks_as_its_python_value(x):
    # a NumPy integer numerator overflowed in the fixed-point walk, and
    # Fraction rejects NumPy floats but float64
    exact = Fraction(*map(int, x.as_integer_ratio())) if hasattr(x, "as_integer_ratio") else int(x)
    assert diagonal_resum(EXP, x, max_order=12) == diagonal_resum(EXP, exact, max_order=12)
    assert diagonal_resum(EULER, abs(x), max_order=12) == diagonal_resum(
        EULER, abs(exact), max_order=12
    )


@pytest.mark.parametrize(
    "tol",
    [
        np.float32(1e-6),
        np.float32(1e-15),
        np.float16(1e-3),
        np.float64(1e-6),
        Fraction(1e-6),
        Decimal(1e-6),
        Decimal(1e-15),
        np.float64(2.0),
        Fraction(3, 2),
    ],
    ids=lambda tol: f"{type(tol).__name__}({float(tol):.0e})",
)
def test_tol_of_any_real_type_walks_as_its_float(tol):
    # Fraction(tol), once formed on every walk, rejected NumPy floats but
    # float64; 1e-15 is below the float test's range, and a tol above 1
    # above it, so _within decides
    twin = float(tol)
    for series, x in ((EXP, -0.5), (EULER, 0.2)):
        got = diagonal_resum(series, x, max_order=12, tol=tol)
        assert got == diagonal_resum(series, x, max_order=12, tol=twin)


@pytest.mark.parametrize(
    "kind", [np.float16, np.float32, np.float64, Decimal, np.int64], ids=lambda kind: kind.__name__
)
def test_series_of_any_real_type_resums_as_its_exact_twin(kind):
    # Fraction(c) rejected NumPy float32 and float16 coefficients; order 4
    # walks the ladder, order 12 sums the terminating float16 series
    base, x, orders = (EULER[:17], 0.2, (8,)) if kind is np.int64 else (EXP, -0.5, (4, 12))
    series = [kind(c.numerator) if c.denominator == 1 else kind(float(c)) for c in base]
    twin = [
        Fraction(int(c)) if kind is np.int64 else Fraction(*c.as_integer_ratio()) for c in series
    ]
    for order in orders:
        got = DiagonalResummer(series).resum(x, max_order=order)
        assert got == DiagonalResummer(twin).resum(x, max_order=order)


def test_mpmath_point_is_rejected():
    with pytest.raises(TypeError):
        diagonal_resum(EXP, mpmath.mpf("0.2"), max_order=12)


# The dyadic rounding against mpmath's, the float against Fraction's and
# the root against exact squares: half to even at any precision, sign and
# exponent, exact ties included.  mpmath's to_float rounds twice below
# 2**-1021 (to 53 bits, then to the subnormal grid); float of a Fraction
# rounds once.
@st.composite
def _dyadics(draw):
    bits = draw(st.integers(2, 512))
    if draw(st.booleans()):
        # a tie: bits significant bits and one half below them
        top = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        m = (2 * top + 1) << draw(st.integers(0, 64))
    else:
        m = draw(st.integers(0, 1 << draw(st.integers(1, 1100))))
    m = -m if draw(st.booleans()) else m
    return m, draw(st.integers(-5000, 5000)), bits


def _nearest(x: Fraction) -> float:
    """float(x), inf past the range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _is_nearest_root(f: float, x: Fraction) -> bool:
    """Whether f is sqrt(x), x >= 0, rounded half to even: the midpoints
    between f and its neighbouring floats, squared, bracket x, and at a tie
    the last bit of f is 0 (inf stands for the even 2**1024)."""
    top = math.nextafter(math.inf, 0)
    if f == math.inf:
        return x >= (Fraction(top) + Fraction(math.ulp(top)) / 2) ** 2
    below = (Fraction(math.nextafter(f, 0)) + Fraction(f)) / 2 if f else Fraction(0)
    above = Fraction(f) + Fraction(math.ulp(f)) / 2
    if not below**2 <= x <= above**2:
        return False
    return f == 0 or int(f / math.ulp(f)) % 2 == 0 or below**2 < x < above**2


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_dyadics(), st.integers(1, 1 << 300) | st.just(1))
# a double-rounding midpoint: 5e-324 rounded once, 1e-323 by to_float
@example(((1 << 79) + (1 << 78) - (1 << 25), -1153, 53), 1)
# roots on a tie between two floats, to even: down, and up through a divisor
@example((((1 << 53) + 1) ** 2, -106, 53), 1)
@example((((1 << 53) + 3) ** 2 * 9, -106, 64), 9)
# the floor quotient a square on a tie, the remainder deciding: up
@example((3 * ((1 << 56) + 8) ** 2 + 1, 0, 64), 3)
def test_rounding_float_and_root_equal_mpmath(value, q):
    m, e, bits = value
    p, d = (m << e, q) if e >= 0 else (m, q << -e)
    want = mpmath.libmp.from_rational(p, d, bits, mpmath.libmp.round_nearest)
    assert mpmath.libmp.from_man_exp(*pade._rounded(m, e, bits, q)) == want
    assert pade._float(m, e) == _nearest(Fraction(m) * Fraction(2) ** e)
    exact = Fraction(m, q) * Fraction(2) ** e
    assert pade._float(m, e, q) == _nearest(exact)
    assert _is_nearest_root(state._root(abs(m), e, q), abs(exact))


# The walk's tolerance test on floats against the exact one on the sticky
# quotients: pairs (v, w) whose |v - w| lies within a few units of v's last
# float bit (or of finer ones) from tol |v|, at both signs, exponents far
# from 0 and tol from 1e-4 down past 2**-45, where the floats do not decide.
@st.composite
def _near_tolerance(draw):
    tol = draw(st.floats(2.0**-50, 1e-4))
    bits = draw(st.integers(54, 200))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    e = draw(st.integers(-1000, 1000) | st.integers(-1100, 1100)) - bits
    v = Fraction(m if draw(st.booleans()) else -m) * Fraction(2) ** e
    step = Fraction(2) ** (e + bits - 53 - draw(st.integers(-12, 8) | st.integers(9, 60)))
    gap = Fraction(tol) * abs(v) + draw(st.integers(-8, 8)) * step
    w = v - gap if draw(st.booleans()) else v + gap
    return tol, v, w


def _pair(x: Fraction) -> tuple[int, int]:
    """A dyadic Fraction as (mantissa, exponent)."""
    return x.numerator, 1 - x.denominator.bit_length()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_near_tolerance())
def test_float_tolerance_test_agrees_with_the_exact_one(case):
    tol, v, w = case
    exact = pade._within(_pair(v), _pair(w), *tol.as_integer_ratio())
    f, g = pade._float(*_pair(v)), pade._float(*_pair(w))
    got = pade._agrees(f, g, tol)
    assert got is None or got == exact
    # the floats must decide when tol |v| is far from |v - w| on their scale
    in_range = all(2.0**-900 < abs(x) < 2.0**900 for x in (f, g))
    if in_range and tol >= 2.0**-45 and abs(abs(v - w) - Fraction(tol) * abs(v)) > Fraction(2.0**-46) * abs(v):
        assert got == exact


def test_resummer_takes_numpy_integer_coefficients():
    # Fraction keeps a NumPy integer as its numerator, which the table's
    # name cannot encode; the resummer holds Python ints, so NumPy integer
    # coefficients resum exactly as Python ones do
    series = [(-1) ** j * factorial(j) for j in range(9)]
    x = Fraction(-1, 10)
    want = diagonal_resum(series, x, max_order=4)
    assert diagonal_resum([np.int64(c) for c in series], x, max_order=4) == want
    assert diagonal_resum(series, Fraction(np.int64(-1), np.int64(10)), max_order=4) == want
