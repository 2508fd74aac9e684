"""Reference implementations for the test suite, kept deliberately naive.

Six kinds of oracle live here.  The closed forms cover the one- and
two-beam sources, whose emission statistics are textbook results
(Poissonian for a coherent state, geometric for squeezed vacuum), so the
resummation engine can be checked against formulas it never touches.
The explicit P sum evaluates the weights P[k, l] of `series_core` from
their closed nested-sum form, and `build_p_table` snapshots the
production recurrence into a table to compare it with.  The exact Pade
construction solves the [N/M] denominator system in rational arithmetic
and evaluates the rational at a chosen precision, and Wynn's epsilon
recursion on partial sums walks the same diagonal ladder with its own
stopping decisions: the two references for the continued-fraction ladder
of `pade`.  The binomial shell rotation expands
the rotated creation operators term by term, a low-shell reference for
`stokes`.  The dense machinery builds explicit operator matrices on
exhaustively enumerated six-mode occupations, per-party total capped low,
and takes expectations by direct matrix action; the production code
computes the same numbers without ever materializing a matrix.

Nothing here is exported through the package namespace, and no production
module imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from mpmath import mp, mpf

from brightghz.pade import PoleProximityError, ResummationResult, _point
from brightghz.series_core import _ensure_store

DENSE_CAP = 4


def coherent_pk(gamma: float, k: int) -> float:
    """Poisson weight exp(-G^2) G^(2k) / k! of a coherent state with mean G^2."""
    if k < 0:
        raise ValueError(f"photon number must be >= 0, got {k}")
    lam = gamma * gamma
    return math.exp(-lam) * lam**k / math.factorial(k)


def squeezed_pk(gamma: float, k: int) -> float:
    """Geometric weight (1 - tanh^2 G) tanh^(2k) G of two-mode squeezed vacuum."""
    if k < 0:
        raise ValueError(f"photon number must be >= 0, got {k}")
    t = math.tanh(gamma) ** 2
    return (1.0 - t) * t**k


@dataclass(frozen=True)
class RecurrenceTable:
    """Table of weights P[k, l] for one beam count n, filled to l <= l_max.

    ``entries`` holds exactly the structurally nonzero pairs: 0 <= k <= l,
    l - k even.  Every stored value is a positive integer.
    """

    n: int
    l_max: int
    entries: dict[tuple[int, int], int]

    def value(self, k: int, l: int) -> int:
        """Return P[k, l], or 0 for any index outside the nonzero pattern."""
        if l > self.l_max:
            raise ValueError(
                f"table for n={self.n} filled only to l_max={self.l_max}, got l={l}"
            )
        return self.entries.get((k, l), 0)


def build_p_table(n: int, l_max: int) -> RecurrenceTable:
    """Fill the recurrence table for n beams up to Hamiltonian power l_max.

    Parameters
    ----------
    n : int
        Number of beams (modes per emitted tuple), n >= 1.
    l_max : int
        Largest Hamiltonian power to fill, l_max >= 0.
    """
    if n < 1:
        raise ValueError(f"beam count n must be >= 1, got {n}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    store = _ensure_store(n, l_max)
    entries = {kl: v for kl, v in store.items() if kl[1] <= l_max}
    return RecurrenceTable(n=n, l_max=l_max, entries=entries)


def p_explicit(k: int, n: int, l: int) -> int:
    """Evaluate P[k, l] from its closed nested-sum form, bypassing the table.

    The (l - k)/2 nested sums run as

        sum_{i=1}^{k+1} i**n  sum_{j=1}^{i+1} j**n  ...  (innermost empty = 1)

    This route is combinatorial in (l - k)/2 and is meant as an independent
    cross-check of the recurrence on small indices, not for production use.
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


def _to_mpf(cf: Fraction):
    return mpf(cf.numerator) / mpf(cf.denominator)


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
    with mp.workprec(bits):
        if isinstance(x, Fraction):
            xv = mpf(x.numerator) / mpf(x.denominator)
        else:
            xv = mpf(x)
        num_mpf = tuple(_to_mpf(c) for c in approx.num)
        den_mpf = tuple(_to_mpf(c) for c in approx.den)
        return _eval_rational(
            num_mpf, den_mpf, xv, bits, f"[{approx.N}/{approx.M}]"
        )


def epsilon_ladder(coeffs, x, tol: float, bits: int) -> ResummationResult:
    """The diagonal ladder by Wynn's epsilon recursion on partial sums.

    The even columns of the epsilon table are the diagonal approximant
    values, so one pass over the 2 * max_order + 1 given coefficients
    costs O(max_order**2) operations at a working precision sized to the
    partial-sum overshoot.  A partial sum that repeats at that precision
    is a singular lozenge: the row stays too short, and every later order
    is skipped with a None diagnostic.
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


@lru_cache(maxsize=None)
def _party_basis(cap: int) -> tuple[tuple[int, int], ...]:
    """Two-mode occupations (q, m) with q + m <= cap, lexicographic."""
    return tuple((q, m) for q in range(cap + 1) for m in range(cap + 1 - q))


@lru_cache(maxsize=None)
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
