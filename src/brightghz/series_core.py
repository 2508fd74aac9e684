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
floats never enter.  The weights live in one store per n, held for the
life of the process: a list of rows, row l a list of the nonzero weights
P[k, l] for k = l % 2, l % 2 + 2, ..., l, at index k // 2.  The
recurrence reads only row l - 1, so growing the store reads only its last
row, and a row costs one list pointer per weight where a (k, l)-keyed map
would cost a tuple key and a table slot besides.  No other module knows
this layout.

_series_pairs is the one place a series is formed: each c_j as the
unreduced integer pair (P[k, k + 2j], (k + 2j)!), read from the rows and
a factorial list grown alongside them.  c_series reduces those pairs to
its public Fractions; the resummers hold them as they are, so the cold
path pays no gcd.  Downstream modules resum the (generally divergent)
series in u and attach the (iG)**k prefactor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


def _count(name: str, value) -> int:
    """value as a Python int; ValueError naming it unless it is an integer, not a bool.

    An integer is what operator.index accepts, NumPy integers included;
    converting them keeps fixed-width arithmetic out of the exact layers.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


# The rows of P per n (see the module docstring), grown on demand, and the
# factorials 0!, 1!, ... as far as any series has read.
_STORE: dict[int, list[list[int]]] = {}
_FACTORIALS = [1]


def _ensure_store(n: int, l_max: int) -> list[list[int]]:
    """The rows of P for n, grown through row l_max; row l holds P[k, l] at k // 2.

    Each new row is formed from the last one alone: P[k, l] = P[k-1, l-1] +
    (k+1)**n P[k+1, l-1], the neighbours at the same index and one up for
    odd l, one down and the same index for even l, with a 0 past either end.
    """
    rows = _STORE.setdefault(n, [[1]])
    while len(rows) <= l_max:
        l, prev = len(rows), rows[-1]
        odd = l % 2
        lower = prev if odd else [0, *prev]
        upper = [*prev[odd:], 0]
        rows.append([a + (k + 1) ** n * b for k, a, b in zip(range(odd, l + 1, 2), lower, upper)])
    return rows


def _series_pairs(k: int, n: int, L: int) -> tuple[tuple[int, int], ...]:
    """The first L coefficients of C_k in u as exact pairs (P[k, k + 2j], (k + 2j)!).

    The pairs are not reduced: c_j is their quotient.  k, n and L must
    already be valid counts (c_series checks them).
    """
    l_max = k + 2 * (L - 1)
    rows, i = _ensure_store(n, l_max), k // 2
    while len(_FACTORIALS) <= l_max:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return tuple((rows[l][i], _FACTORIALS[l]) for l in range(k, l_max + 1, 2))


def c_series(k: int, n: int, L: int) -> FormalSeries:
    """Assemble the first L exact coefficients of C_k as a series in u = -G**2.

    coeffs[j] = P[k, k + 2j] / (k + 2j)!, in lowest terms, so coeffs[0] = 1/k!.
    """
    k, n, L = _count("k", k), _count("n", n), _count("L", L)
    if k < 0:
        raise ValueError(f"tuple number k must be >= 0, got {k}")
    if L < 1:
        raise ValueError(f"series length L must be >= 1, got {L}")
    if n < 1:
        raise ValueError(f"beam count n must be >= 1, got {n}")
    coeffs = tuple(Fraction(p, q) for p, q in _series_pairs(k, n, L))
    return FormalSeries(k=k, n=n, coeffs=coeffs)
