"""Exactness tests for the integer recurrence and series assembly."""

import re
import sys
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightghz import series_core
from brightghz.series_core import FormalSeries, _ensure_store, _series_pairs, c_series
from references import p_explicit


# The tests read the weight store itself: the rows of P for one n, row l
# holding P[k, l] for k = l % 2, l % 2 + 2, ..., l at index k // 2.  Every
# other P[k, l] is 0 and has no slot.
def test_base_cases():
    rows = _ensure_store(3, 8)
    assert rows[0] == [1]
    for k in range(9):
        assert rows[k][k // 2] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_matches_nested_sum_form(n):
    rows = _ensure_store(n, 12)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            assert rows[l][k // 2] == p_explicit(k, n, l), (k, n, l)


def test_structural_zeros():
    rows = _ensure_store(2, 10)
    # parity-violating and out-of-range pairs have no slot: row l holds the
    # l // 2 + 1 weights with k <= l and l - k even, each one positive
    for l, row in enumerate(rows):
        assert len(row) == l // 2 + 1
        assert all(v > 0 for v in row)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_values_match_hand_expansion(n):
    # (A + Adag)^l on vacuum, expanded by hand through l = 4 using
    # A (Adag)^p |0> = p**n (Adag)^(p-1) |0>
    rows = _ensure_store(n, 4)
    assert rows[1] == [1]
    assert rows[2] == [1, 1]
    assert rows[3] == [1 + 2**n, 1]
    assert rows[4] == [1 + 2**n, 1 + 2**n + 3**n, 1]


EXPLICIT_ROWS = {
    n: [[p_explicit(k, n, l) for k in range(l % 2, l + 1, 2)] for l in range(15)]
    for n in (1, 2, 3, 4)
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.integers(1, 4), st.integers(0, 60)),
            st.tuples(st.integers(0, 30), st.integers(1, 4), st.integers(1, 16)),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_store_growth_order_is_invisible(calls):
    # from an empty store, growth in any steps (_ensure_store, or a series
    # reading past the last row) leaves the rows one call would build, and
    # every series equal to one read from those rows
    saved = dict(series_core._STORE)
    series_core._STORE.clear()
    try:
        got = []
        for call in calls:
            if len(call) == 2:
                _ensure_store(*call)
            else:
                k, n, L = call
                got.append((call, _series_pairs(k, n, L)))
        grown = {n: [list(row) for row in rows] for n, rows in series_core._STORE.items()}
        series_core._STORE.clear()
        for n, rows in grown.items():
            assert _ensure_store(n, len(rows) - 1) == rows
            assert rows[:15] == EXPLICIT_ROWS[n][: len(rows)]
        for (k, n, L), pairs in got:
            assert pairs == _series_pairs(k, n, L)
            rows = series_core._STORE[n]
            assert pairs == tuple((rows[l][k // 2], factorial(l)) for l in range(k, k + 2 * L, 2))
    finally:
        series_core._STORE.clear()
        series_core._STORE.update(saved)


def test_store_holds_little_beyond_its_integers():
    # the rows of n = 3 to l = 220, the depth the cutoff cap reads, trace at
    # most a quarter more than their integers; (k, l)-keyed entries traced 1.89x
    saved = series_core._STORE.pop(3, None)
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = _ensure_store(3, 220)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = sum(sys.getsizeof(v) for row in rows for v in row)
        assert traced <= 1.25 * held, traced / held
    finally:
        series_core._STORE.pop(3, None)
        if saved is not None:
            series_core._STORE[3] = saved


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
    rows = _ensure_store(n, 14)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            later, earlier = rows[l + 2][k // 2], rows[l][k // 2]
            assert earlier >= 1
            if (k, l) == (0, 0):
                assert later == earlier
            else:
                assert later > earlier


def test_argument_validation():
    with pytest.raises(ValueError):
        p_explicit(1, 2, 4)  # parity violation
    with pytest.raises(ValueError):
        p_explicit(-1, 2, 3)
    with pytest.raises(ValueError):
        p_explicit(4, 2, 2)  # nested-sum form needs k <= l


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
    rows = _ensure_store(n, k + 2 * (L - 1))
    series = c_series(k, n, L)
    for j, cf in enumerate(series.coeffs):
        assert cf == Fraction(rows[k + 2 * j][k // 2], factorial(k + 2 * j))


def test_c_series_validation():
    with pytest.raises(ValueError):
        c_series(-1, 2, 3)
    with pytest.raises(ValueError):
        c_series(0, 2, 0)
    with pytest.raises(ValueError):
        c_series(0, 0, 3)
