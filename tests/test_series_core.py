"""Exactness tests for the integer recurrence and series assembly."""

import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from brightghz.oracles import build_p_table, p_explicit
from brightghz.series_core import FormalSeries, c_series


def test_base_cases():
    table = build_p_table(3, 8)
    assert table.value(0, 0) == 1
    for k in range(9):
        assert table.value(k, k) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_matches_nested_sum_form(n):
    table = build_p_table(n, 12)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            assert table.value(k, l) == p_explicit(k, n, l), (k, n, l)


def test_structural_zeros():
    table = build_p_table(2, 10)
    # parity-violating and out-of-range pairs are identically zero
    assert table.value(0, 1) == 0
    assert table.value(1, 4) == 0
    assert table.value(5, 3) == 0
    assert (3, 6) not in table.entries
    for (k, l), v in table.entries.items():
        assert 0 <= k <= l and (l - k) % 2 == 0
        assert v > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_values_match_hand_expansion(n):
    # (A + Adag)^l on vacuum, expanded by hand through l = 4 using
    # A (Adag)^p |0> = p**n (Adag)^(p-1) |0>
    table = build_p_table(n, 4)
    assert table.value(1, 1) == 1
    assert table.value(0, 2) == 1
    assert table.value(2, 2) == 1
    assert table.value(1, 3) == 1 + 2**n
    assert table.value(3, 3) == 1
    assert table.value(0, 4) == 1 + 2**n
    assert table.value(2, 4) == 1 + 2**n + 3**n
    assert table.value(4, 4) == 1


def test_explicit_form_examples():
    assert p_explicit(1, 2, 3) == 5
    assert p_explicit(0, 2, 4) == 5
    assert p_explicit(2, 2, 4) == 14
    assert p_explicit(2, 3, 4) == 36
    assert p_explicit(0, 1, 4) == 3
    assert p_explicit(7, 1, 7) == 1


@pytest.mark.parametrize("n", [1, 3])
def test_monotone_growth(n):
    # equality only in the lowest cell: P[0, 0] = P[0, 2] = 1
    table = build_p_table(n, 14)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            later, earlier = table.value(k, l + 2), table.value(k, l)
            assert earlier >= 1
            if (k, l) == (0, 0):
                assert later == earlier
            else:
                assert later > earlier


def test_argument_validation():
    with pytest.raises(ValueError):
        build_p_table(0, 5)
    with pytest.raises(ValueError):
        build_p_table(2, -1)
    with pytest.raises(ValueError):
        p_explicit(1, 2, 4)  # parity violation
    with pytest.raises(ValueError):
        p_explicit(-1, 2, 3)
    with pytest.raises(ValueError):
        p_explicit(4, 2, 2)  # nested-sum form needs k <= l
    table = build_p_table(2, 6)
    with pytest.raises(ValueError):
        table.value(0, 8)


@pytest.mark.parametrize(
    "name, args",
    [
        ("k", (2.0, 3, 5)),
        ("k", (True, 3, 5)),
        ("n", (2, 3.0, 5)),
        ("n", (2, True, 5)),
        ("L", (2, 3, 5.5)),
        ("L", (2, 3, "5")),
    ],
)
def test_c_series_rejects_non_integer_counts(name, args):
    value = args["knL".index(name)]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        c_series(*args)


def test_c_series_accepts_integer_counts():
    assert c_series(np.int64(2), np.int32(3), np.int16(5)) == c_series(2, 3, 5)


def test_c_series_leading_coefficient():
    for k in range(7):
        for n in (1, 2, 3):
            series = c_series(k, n, 4)
            assert isinstance(series, FormalSeries)
            assert series.coeffs[0] == Fraction(1, factorial(k))


def test_c_series_single_beam_matches_coherent_expansion():
    # one beam is exactly a coherent state: series value exp(u/2)/k!
    for k in range(6):
        series = c_series(k, 1, 8)
        for j, cf in enumerate(series.coeffs):
            assert cf == Fraction(1, factorial(k) * 2**j * factorial(j))


def test_c_series_frozen_values():
    assert c_series(0, 1, 3).coeffs == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 8),
    )
    # two beams: C_0 = 1/cosh, Taylor 1 + u/2 + 5 u^2/24
    assert c_series(0, 2, 3).coeffs == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(5, 24),
    )
    assert c_series(2, 3, 2).coeffs == (Fraction(1, 2), Fraction(3, 2))
    assert c_series(1, 2, 1).coeffs == (Fraction(1),)


def test_c_series_matches_table():
    n, k, L = 3, 4, 6
    table = build_p_table(n, k + 2 * (L - 1))
    series = c_series(k, n, L)
    for j, cf in enumerate(series.coeffs):
        assert cf == Fraction(table.value(k, k + 2 * j), factorial(k + 2 * j))


def test_c_series_validation():
    with pytest.raises(ValueError):
        c_series(-1, 2, 3)
    with pytest.raises(ValueError):
        c_series(0, 2, 0)
    with pytest.raises(ValueError):
        c_series(0, 0, 3)
