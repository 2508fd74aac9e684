"""Reference implementations for the test suite, kept deliberately naive.

Two kinds of oracle live here.  The closed forms cover the one- and
two-beam sources, whose emission statistics are textbook results
(Poissonian for a coherent state, geometric for squeezed vacuum), so the
resummation engine can be checked against formulas it never touches.
The dense machinery builds explicit operator matrices on exhaustively
enumerated six-mode occupations, per-party total capped low, and takes
expectations by direct matrix action; the production code computes the
same numbers without ever materializing a matrix.

Nothing here is exported through the package namespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    ops: dict[str, np.ndarray] = {"Pi": nonvac, "I": np.eye(dim, dtype=complex)}
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
    (vacuum-penalized), Pi (non-vacuum projector), or I.
    """
    ops = _party_operators(state.cap)
    try:
        o1, o2, o3 = (ops[t] for t in tokens)
    except KeyError as err:
        raise ValueError(f"unknown operator token {err.args[0]!r}") from None
    acted = np.einsum("ai,bj,ck,ijk->abc", o1, o2, o3, state.amp)
    value = complex(np.vdot(state.amp, acted))
    return value.real


def random_product_state(rng, max_photons: int = 2):
    """Random fully separable three-party state for separability checks.

    Each party gets a Fock occupation from {0..max_photons} placed along a
    uniformly drawn polarization direction, realized by tagging the party
    with a random custom basis.  The joint state is an exact product, so
    any separable bound must hold on it.
    """
    from brightghz.stokes import JointFockState, MeasurementBasis

    key = []
    bases = []
    for _ in range(3):
        key.extend([int(rng.integers(0, max_photons + 1)), 0])
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        bases.append(
            MeasurementBasis(
                0,
                np.array(
                    [[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]]
                ),
            )
        )
    return JointFockState(amps={tuple(key): 1.0 + 0j}, bases=tuple(bases))
