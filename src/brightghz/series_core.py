"""Exact integer backbone of the multiphoton emission series.

An n-beam parametric source driven at dimensionless gain G emits photon
n-tuples with amplitudes C_k = sum_l (iG)^l / l! * P[k, l], where P[k, l]
counts the weight of the k-th power of the collective creation operator in
the l-th power of the interaction Hamiltonian applied to vacuum.  The
weights are positive integers obeying

    P[k, l] = P[k-1, l-1] + (k+1)**n * P[k+1, l-1],    P[k, 0] = delta(0, k),

with P[k, l] = 0 whenever k < 0, k > l, or l - k is odd.  Only every other
power of the gain contributes to a given k, so the series is organised here
in the variable u = -G**2:

    C_k = (iG)**k * sum_j c_j * u**j,    c_j = P[k, k + 2j] / (k + 2j)!

All arithmetic in this module is exact (Python integers and fractions);
floats never enter.  The recurrence reads only row l - 1, while a series
reads one column, P[k, k], P[k, k + 2], ...  So the store, one per n, held
for the life of the process, keeps the last row formed (the nonzero
weights P[k, l] for k = l % 2, l % 2 + 2, ..., l, at index k // 2) and
the columns of every k up to a width, and no other row.  Growing it forms
each further row from the last one and appends its weights with k <= width
to their columns.  A request for a k past the width restarts the pass at
row 0, at least twice as wide; state and the table writer ask for the
cutoff cap's width at once, so the series of every k they read come from
one pass.  At the cap's depth (k <= 60, 81 terms, rows through 220) the
columns hold 5,841 of the 12,321 weights of rows 0..220.  No other
module knows this layout.

_series_pairs is the one place a series is formed: each c_j as the
unreduced integer pair (P[k, k + 2j], (k + 2j)!), read from column k and
a factorial list grown alongside it.  c_series reduces those pairs to
its public Fractions; the resummers hold them as they are, so the cold
path pays no gcd.  Downstream modules resum the (generally divergent)
series in u and attach the (iG)**k prefactor.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = ["FormalSeries", "c_series"]


@dataclass(frozen=True)
class FormalSeries:
    """Coefficients c_j of C_k as a power series in u = -G**2.

    The represented object is C_k = (iG)**k * sum_j coeffs[j] * u**j.
    Coefficients are exact rationals; c_0 = 1/k!.
    """

    k: int
    n: int
    coeffs: tuple[Fraction, ...]


# The deepest row of P a series may read, k + 2 (L - 1), and the most beams;
# time and memory grow as n row**3: cold, c_series(600, 16, 1) took 0.36 s.
_MAX_ROW = 600
_MAX_BEAMS = 16


def _shown(value) -> str:
    """repr(value) for a message; an int past 64 bits as its bit length, as
    the repr of one past 4300 digits raises (and a Fraction's may)."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too large to print"


def _count(name: str, value, low: int, high: int | None = None) -> int:
    """value as a Python int; ValueError naming it unless it is an integer,
    not a bool, in [low, high] (high None: no ceiling).

    An integer is what operator.index accepts, NumPy integers included;
    converting them keeps fixed-width arithmetic out of the exact layers.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if count < low or high is not None and count > high:
        bound = f">= {low}" if count < low else f"<= {high}"
        raise ValueError(f"{name} must be {bound}, got {_shown(count)}")
    return count


def _typed(name: str, value, cls: type):
    """value itself; TypeError naming it unless it is a cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def _record(cls: type, **fields):
    """The frozen dataclass cls holding fields, built without its __init__.
    Only for records with no __post_init__: MerminEvaluation, WitnessEvaluation,
    CorrelationTensor, and ResummationResult (_dyadic in place of value)."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _real(
    name: str, value, low: float = -math.inf, high: float = math.inf, closed: str = "()"
) -> float:
    """value as a float; ValueError naming it unless it is a real between low
    and high, each end included when closed shows "[" or "]" there.

    NumPy scalars, Fractions and Decimals are reals, a bool is not (as for
    _count); one too large for a float is +-inf, as a Decimal's is.
    """
    if type(value) is float:  # the common case, without the ABC check
        x = value
    elif isinstance(value, (numbers.Real, Decimal)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf if value > 0 else -math.inf
    else:
        x = math.nan
    if (low < x or low == x and closed[0] == "[") and (x < high or x == high and closed[1] == "]"):
        return x
    interval = f"{closed[0]}{low:g}, {high:g}{closed[1]}"
    raise ValueError(f"{name} must lie in {interval}, got {_shown(value)}")


class _Columns:
    """The weights of P kept for one n: the last row formed, row l, holding
    P[k, l] at k // 2, and the columns of every k <= width through it,
    column k holding P[k, k], P[k, k + 2], ... at (l - k) // 2."""

    def __init__(self, width: int):
        self.width, self.l, self.row = width, 0, [1]
        self.columns: list[list[int]] = [[1]] + [[] for _ in range(width)]


# The weights per n (see the module docstring), grown on demand, and the
# factorials 0!, 1!, ... as far as any series has read.
_STORE: dict[int, _Columns] = {}
_FACTORIALS = [1]


def _columns(n: int, l_max: int, width: int) -> list[list[int]]:
    """The columns of P for n, each k <= width (at least) through row l_max (at least).

    A store narrower than width restarts from row 0, at least twice as wide.
    Each new row is formed from the last one alone: P[k, l] = P[k-1, l-1] +
    (k+1)**n P[k+1, l-1], the neighbours at the same index and one up for
    odd l, one down and the same index for even l, with a 0 past either end.
    Its weights with k <= width join their columns, and only it is kept.
    """
    store = _STORE.get(n)
    if store is None or store.width < width:
        store = _STORE[n] = _Columns(max(width, 2 * store.width if store else 0))
    row, l, columns = store.row, store.l, store.columns
    try:
        while l < l_max:
            l += 1
            odd = l % 2
            lower = row if odd else [0, *row]
            upper = [*row[odd:], 0]
            row = [a + (k + 1) ** n * b for k, a, b in zip(range(odd, l + 1, 2), lower, upper)]
            for column, p in zip(columns[odd::2], row):
                column.append(p)
    except BaseException:
        # an interrupted pass leaves the columns out of step with the row
        del _STORE[n]
        raise
    store.row, store.l = row, l
    return columns


def _series_pairs(k: int, n: int, L: int, width: int) -> tuple[tuple[int, int], ...]:
    """The first L coefficients of C_k in u as exact pairs (P[k, k + 2j], (k + 2j)!).

    The pairs are not reduced: c_j is their quotient.  k, n and L must
    already be valid counts (c_series checks them).  The store keeps every
    column through width (at least k), so callers that read many k ask for
    the deepest, and one pass of the recurrence serves them all.
    """
    l_max = k + 2 * (L - 1)
    column = _columns(n, l_max, max(k, width))[k]
    while len(_FACTORIALS) <= l_max:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return tuple(zip(column[:L], _FACTORIALS[k : l_max + 1 : 2]))


def c_series(k: int, n: int, L: int) -> FormalSeries:
    """Assemble the first L exact coefficients of C_k as a series in u = -G**2.

    coeffs[j] = P[k, k + 2j] / (k + 2j)!, in lowest terms, so coeffs[0] = 1/k!.
    ValueError naming the count unless each is an integer, 1 <= n <= 16
    (_MAX_BEAMS), and k >= 0 and L >= 1 read no row past k + 2 (L - 1) = 600
    (_MAX_ROW).
    """
    k, n = _count("k", k, 0, _MAX_ROW), _count("n", n, 1, _MAX_BEAMS)
    L = _count("L", L, 1, (_MAX_ROW - k) // 2 + 1)
    coeffs = tuple(Fraction(p, q) for p, q in _series_pairs(k, n, L, k))
    return FormalSeries(k=k, n=n, coeffs=coeffs)
