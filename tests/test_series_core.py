"""Exactness tests for the integer recurrence and series assembly."""

import functools
import itertools
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
from brightghz.series_core import FormalSeries, _columns, _series_pairs, c_series
from references import p_explicit, p_rows


# The tests read the weight store itself: per n, the columns of P, column k
# holding P[k, k], P[k, k + 2], ... at (l - k) // 2, and the last row formed,
# row l holding P[k, l] for k = l % 2, ..., l at k // 2.  Every other
# P[k, l] is 0 and has no slot.  The store may already be wider and deeper
# than a test asks, so tests index into it.
def test_base_cases():
    columns = _columns(3, 8, 8)
    # P[k, k] = 1 opens every column; P[k, 0] = 0 for k > 0 has no slot
    for k in range(9):
        assert columns[k][0] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_matches_nested_sum_form(n):
    columns = _columns(n, 12, 12)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            assert columns[k][(l - k) // 2] == p_explicit(k, n, l), (k, n, l)


def test_structural_zeros():
    columns = _columns(2, 10, 10)
    store = series_core._STORE[2]
    # parity-violating and out-of-range pairs have no slot: column k holds
    # the weights of rows k, k + 2, ... through the last row l, and that row
    # the l // 2 + 1 weights with k <= l and l - k even, each one positive
    assert len(store.columns) == store.width + 1 >= 11
    for k, column in enumerate(columns):
        assert len(column) == max(0, (store.l - k) // 2 + 1)
        assert all(v > 0 for v in column)
    assert len(store.row) == store.l // 2 + 1
    assert all(v > 0 for v in store.row)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_values_match_hand_expansion(n):
    # (A + Adag)^l on vacuum, expanded by hand through l = 4 using
    # A (Adag)^p |0> = p**n (Adag)^(p-1) |0>; column k through row 4
    columns = _columns(n, 4, 4)
    assert [columns[k][: (4 - k) // 2 + 1] for k in range(5)] == [
        [1, 1, 1 + 2**n],
        [1, 1 + 2**n],
        [1, 1 + 2**n + 3**n],
        [1],
        [1],
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_columns_and_last_row_match_the_row_reference(n):
    # at the cutoff cap's depth (k <= 60, 81 terms), from an empty store:
    # every column and the last row are those of the whole triangle, and
    # that triangle matches the nested-sum form where it is cheap
    saved = series_core._STORE.pop(n, None)
    try:
        columns = _columns(n, 220, 60)
        store = series_core._STORE[n]
        rows = p_rows(n, store.l)
        assert (store.width, store.l) == (60, 220)
        assert store.row == rows[-1]
        for k, column in enumerate(columns):
            assert column == [rows[l][k // 2] for l in range(k, store.l + 1, 2)]
        for l in range(11):
            assert rows[l] == [p_explicit(k, n, l) for k in range(l % 2, l + 1, 2)]
    finally:
        series_core._STORE.pop(n, None)
        if saved is not None:
            series_core._STORE[n] = saved


@functools.cache
def _reference_rows(n: int) -> list[list[int]]:
    return p_rows(n, 60)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 30),
            st.integers(1, 4),
            st.integers(1, 16),
            st.integers(0, 30),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_store_growth_order_is_invisible(calls):
    # from an empty store, c_series calls (each asking for its own k's
    # width) and _series_pairs calls at any width, interleaved so that the
    # store grows, or restarts from row 0 wider, in any order, give every
    # series a fresh store gives, and those are the row reference's
    saved = dict(series_core._STORE)
    series_core._STORE.clear()
    try:
        got = []
        for public, k, n, L, extra in calls:
            if public:
                got.append(c_series(k, n, L).coeffs)
            else:
                got.append(_series_pairs(k, n, L, k + extra))
        for (public, k, n, L, extra), value in zip(calls, got):
            series_core._STORE.clear()
            fresh = _series_pairs(k, n, L, k if public else k + extra)
            rows = _reference_rows(n)
            assert fresh == tuple((rows[l][k // 2], factorial(l)) for l in range(k, k + 2 * L, 2))
            assert value == (tuple(Fraction(p, q) for p, q in fresh) if public else fresh)
    finally:
        series_core._STORE.clear()
        series_core._STORE.update(saved)


def test_interrupted_growth_leaves_no_store():
    # an interrupt inside the pass (here the 50th power of the beam count)
    # drops the store, which would otherwise hold columns out of step with
    # its row; the next series is read from a fresh pass
    class Interrupting(int):
        calls = 0

        def __rpow__(self, base):
            Interrupting.calls += 1
            if Interrupting.calls == 50:
                raise KeyboardInterrupt
            return base ** int(self)

    saved = series_core._STORE.pop(3, None)
    try:
        _columns(3, 10, 10)
        with pytest.raises(KeyboardInterrupt):
            _columns(Interrupting(3), 40, 10)
        assert 3 not in series_core._STORE
        rows = p_rows(3, 40)
        assert _series_pairs(4, 3, 19, 10) == tuple(
            (rows[l][2], factorial(l)) for l in range(4, 41, 2)
        )
    finally:
        series_core._STORE.pop(3, None)
        if saved is not None:
            series_core._STORE[3] = saved


def test_store_holds_little_beyond_its_integers():
    # from an empty n = 3 store, the deepest series the cutoff cap reads
    # (k = 60, 81 terms, through row 220) traces at most a quarter more than
    # the integers the store then holds, its columns and last row, and at
    # most 60 % of what rows 0..220 hold, their lists and integers
    _series_pairs(0, 1, 111, 0)  # the factorials through 220!, not the store's
    saved = series_core._STORE.pop(3, None)
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c_series(60, 3, 81)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        store = series_core._STORE[3]
        kept = {id(v): v for v in itertools.chain(*store.columns, store.row)}
        held = sum(sys.getsizeof(v) for v in kept.values())
        rows = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in p_rows(3, 220))
        assert traced <= 1.25 * held, traced / held
        assert traced <= 0.6 * rows, traced / rows
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
    columns = _columns(n, 14, 14)
    for l in range(13):
        for k in range(l % 2, l + 1, 2):
            earlier, later = columns[k][(l - k) // 2 : (l - k) // 2 + 2]
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
    column = _columns(n, k + 2 * (L - 1), k)[k]
    series = c_series(k, n, L)
    for j, cf in enumerate(series.coeffs):
        assert cf == Fraction(column[j], factorial(k + 2 * j))


def test_c_series_validation():
    with pytest.raises(ValueError):
        c_series(-1, 2, 3)
    with pytest.raises(ValueError):
        c_series(0, 2, 0)
    with pytest.raises(ValueError):
        c_series(0, 0, 3)
