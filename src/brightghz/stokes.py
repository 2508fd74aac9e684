"""Sparse Fock-space measurement engine for polarization observables.

Every observable here is the expectation of a product of one per-party
operator, each diagonal in some polarization basis: the normalized Stokes
operator takes (k_a - k_b)/(k_a + k_b) on the photon counts of the two
measured modes and 0 on the party vacuum, its primed variant takes -1 on
the vacuum instead, and the projector family counts vacuum/non-vacuum.
Measuring in basis 1 (+-45 degrees) or 2 (circular) means rotating the
party's two modes by the basis unitary first; the rotation is passive, so
it acts inside each fixed-total-photon shell.  A mode unitary U = exp(iK)
acts on the k-photon shell as the spin-k/2 representation
exp(i dGamma_k(K)), dGamma_k(K) the tridiagonal Hermitian matrix of
sum_ij K_ij adag_i a_j.  Every shell rotation, fixed basis or custom, is
one eigendecomposition of that matrix, so it stays unitary to rounding
(max|A^H A - I| ~ 1e-14) through shell 120.

Bright states are diagonal across the three parties, which collapses the
six-mode sum: the expectation reduces to one quadratic form per photon
shell, with the three per-party operator blocks multiplied entrywise.
That path never materializes a rotated state and stays quadratic in the
cutoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from brightghz.state import BGHZState, DEFAULT_POLICY, NumericPolicy, build_bghz

__all__ = [
    "CorrelationTensor",
    "stokes_expectation",
    "tensor_t",
]

_SQ = 1.0 / math.sqrt(2.0)


# Mode unitaries of the rotated bases, new modes = U @ old (H/V) modes.
_BASES = {
    # diagonal: difference of +-45 mode counts is adag b + bdag a
    1: np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    # circular: difference of R/L mode counts is i(bdag a - adag b)
    2: np.array([[_SQ, -1j * _SQ], [_SQ, 1j * _SQ]], dtype=complex),
}


def _shell_unitary(u: np.ndarray, k: int) -> np.ndarray:
    """A[kappa, q] = <kappa photons in rotated a | q, k-q>, new modes = u @ old.

    u = e^{i phi} exp(i h), h traceless Hermitian with angle within pi/2.
    """
    phase = np.sqrt(np.linalg.det(u))
    v = u / phase
    if v.trace().real < 0:  # so theta <= pi/2: theta / sin(theta) stays bounded
        v, phase = -v, -phase
    s = (v - v.conj().T) / 2j  # v = cos(theta) + i s, |s| = sin(theta)
    sin = math.hypot(abs(s[0, 0]), abs(s[0, 1]))
    h = s * (math.atan2(sin, v.trace().real / 2) / sin) if sin else 0 * s
    n = np.arange(k + 1)
    hop = h[0, 1] * np.sqrt(n[1:] * (k - n[:-1]))
    gen = np.diag(h[0, 0].real * n + h[1, 1].real * (k - n)) + np.diag(hop, -1)
    lam, w = np.linalg.eigh(gen + np.diag(hop.conj(), 1))
    return phase**k * (w * np.exp(1j * lam)) @ w.conj().T


# selector -> (measurement basis index, diagonal functional id)
_SELECTORS = {
    "S0": (3, "Pi"),
    "S1": (1, "S"),
    "S2": (2, "S"),
    "S3": (3, "S"),
    "S1p": (1, "Sp"),
    "S2p": (2, "Sp"),
    "S3p": (3, "Sp"),
    "Pi": (3, "Pi"),
    "Pvac": (3, "Pvac"),
    "I": (3, "I"),
}


def _count_value(kind: str, ka: int, kb: int) -> float:
    total = ka + kb
    if kind == "S":
        return (ka - kb) / total if total else 0.0
    if kind == "Sp":
        return (ka - kb) / total if total else -1.0
    if kind == "Pi":
        return 1.0 if total else 0.0
    if kind == "Pvac":
        return 0.0 if total else 1.0
    return 1.0  # identity


def _diagonal_values(kind: str, k: int) -> np.ndarray:
    return np.array([_count_value(kind, kappa, k - kappa) for kappa in range(k + 1)])


# Bounded by construction: the keys do not depend on the gain, only on one
# of 2 fixed bases or 10 selectors and a photon shell, and a bright state's
# shells stop at twice its cutoff (2 * CUTOFF_CAP unless the cutoff is pinned).
_SHELL_ROTATIONS: dict[tuple[int, int], np.ndarray] = {}
_SHELL_BLOCKS: dict[tuple[str, int], np.ndarray] = {}


def _shell_rotation(basis_index: int, k: int) -> np.ndarray:
    """The shell-k rotation into fixed basis 1 or 2, cached."""
    if (basis_index, k) not in _SHELL_ROTATIONS:
        _SHELL_ROTATIONS[basis_index, k] = _shell_unitary(_BASES[basis_index], k)
    return _SHELL_ROTATIONS[basis_index, k]


def _shell_block(selector: str, k: int) -> np.ndarray:
    """Shell-k matrix of the per-party operator in the canonical basis."""
    key = (selector, k)
    got = _SHELL_BLOCKS.get(key)
    if got is None:
        basis_index, kind = _SELECTORS[selector]
        values = _diagonal_values(kind, k)
        if basis_index == 3:
            got = np.diag(values).astype(complex)
        else:
            rot = _shell_rotation(basis_index, k)
            got = rot.conj().T @ (values[:, None] * rot)
        _SHELL_BLOCKS[key] = got
    return got


def _validate_selectors(ops) -> tuple[str, str, str]:
    ops = tuple(ops)
    if len(ops) != 3:
        raise ValueError(f"need one selector per party, got {len(ops)}")
    for op in ops:
        if op not in _SELECTORS:
            raise ValueError(
                f"unknown selector {op!r}; valid: {sorted(_SELECTORS)}"
            )
    return ops


def _shell_vectors(state: BGHZState) -> dict[int, np.ndarray]:
    """Amplitudes of |q, k-q> per photon shell k, indexed by q."""
    shells: dict[int, np.ndarray] = {}
    for (q, m), amp in state.amps.items():
        if q + m not in shells:
            shells[q + m] = np.zeros(q + m + 1, dtype=complex)
        shells[q + m][q] = amp
    return shells


def _bghz_expectation(state: BGHZState, ops: tuple[str, str, str]) -> float:
    total = 0.0
    for k, vec in _shell_vectors(state).items():
        block = _shell_block(ops[0], k) * _shell_block(ops[1], k) * _shell_block(ops[2], k)
        total += float(np.real(np.vdot(vec, block @ vec)))
    return total


def stokes_expectation(state, ops) -> float:
    """Expectation of a product of one per-party polarization observable.

    ops is a 3-sequence of selectors: S1/S2/S3 (normalized Stokes in the
    +-45, circular, H/V bases), S1p/S2p/S3p (vacuum counted as -1), S0 or
    Pi (non-vacuum projector), Pvac (vacuum projector), I (identity, for
    marginals).  state must be a BGHZState.
    """
    ops = _validate_selectors(ops)
    if not isinstance(state, BGHZState):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return _bghz_expectation(state, ops)


@dataclass(frozen=True)
class CorrelationTensor:
    """Triple Stokes correlations T_ijk of a bright state.

    Only four elements survive: T_111 = t and T_122 = T_212 = T_221 = -t.
    cross_check records |t - <S1 S1 S1>|, the closed form against the
    generic shell evaluation of T_111 on the same truncated state.
    """

    gamma: float
    t: float
    elements: dict[tuple[int, int, int], float]
    cross_check: float


def _closed_form_t(state: BGHZState) -> float:
    """Double sum for t over the retained amplitudes.

    Per photon shell k the two terms hop one photon between the a and b
    modes in every party at once; the (x(y+1))^(3/2) weights are the
    three-party ladder factors and k^3 the Stokes normalization.
    """
    amps = state.amps
    total = 0.0
    kmax = 2 * state.cutoff
    for k in range(1, kmax + 1):
        for m in range(0, k + 1):
            a = amps.get((m, k - m))
            if a is None or a == 0:
                continue
            left = amps.get((k - m - 1, m + 1))
            if left is not None:
                w = ((k - m) * (m + 1)) ** 1.5 / k**3
                total += (left.conjugate() * a * w).real
            right = amps.get((m - 1, k - m + 1))
            if right is not None:
                w = (m * (k - m + 1)) ** 1.5 / k**3
                total += (right.conjugate() * a * w).real
    return total


def tensor_t(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> CorrelationTensor:
    """Correlation tensor of the bright state at one gain.

    Builds the state (or reuses a provided one), evaluates the closed-form
    double sum for t, fills the GHZ sign pattern, and cross-checks t
    against the generic evaluation of <S1 S1 S1>.
    """
    if state is None:
        state = build_bghz(gamma, policy)
    t = _closed_form_t(state)
    generic = stokes_expectation(state, ("S1", "S1", "S1"))
    elements = dict.fromkeys(itertools.product((1, 2, 3), repeat=3), 0.0)
    elements.update({(1, 1, 1): t, (1, 2, 2): -t, (2, 1, 2): -t, (2, 2, 1): -t})
    return CorrelationTensor(
        gamma=state.gamma,
        t=t,
        elements=elements,
        cross_check=abs(t - generic),
    )
