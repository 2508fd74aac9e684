"""Sparse Fock-space measurement engine for polarization observables.

Every observable here is the expectation of a product of one per-party
operator, each diagonal in some polarization basis: the normalized Stokes
operator takes (k_a - k_b)/(k_a + k_b) on the photon counts of the two
measured modes and 0 on the party vacuum, its primed variant takes -1 on
the vacuum instead, and the projector family counts vacuum/non-vacuum.
Measuring in basis 1 (+-45 degrees) or 2 (circular) means rotating the
party's two modes first; the rotation is passive, so it acts inside each
fixed-total-photon shell.  On the k-photon shell the +-45 count difference
is the real tridiagonal hop matrix H = adag b + bdag a, with eigenvalues
2 kappa - k for kappa photons in the +45 mode, and every count function
above is affine in that difference: a + b (2 kappa - k) (b = 1/k for the
Stokes operators, b = 0 for the projectors and the identity).  So each
per-party block in the H/V basis |q, k-q> is closed form and tridiagonal:
a I + b H in basis 1, the same with the off-diagonals turned by
i^(q'-q) in basis 2 (a quarter wave on the b mode), and
diag(a + b (2q - k)) in basis 3.

Bright states are diagonal across the three parties, which collapses the
six-mode sum: the expectation reduces to one quadratic form per photon
shell, with the three per-party operator blocks multiplied entrywise.
That path never materializes a rotated state and stays quadratic in the
cutoff.  The Mermin combination <111> - <122> - <212> - <221> needs only
the basis-1 block B: entrywise products commute, so the three mixed
settings give one term, and B2*B2 = B*B*Sigma entrywise, with
Sigma[q, q'] = (-1)^(q-q').  On each shell it is the one real quadratic
form psi^H (B*B*B*(J - 3 Sigma)) psi, J the all-ones matrix.

Both forms read only the support of each shell: the rows q from the first
to the last nonzero amplitude.  The Mermin form runs in real arithmetic:
with psi = x + iy, s_q = (-1)^q and C = B*B*B it is the sum over v in
{x, y} of v^T C v - 3 (s v)^T C (s v), one real product of C with the four
columns x, y, s x, s y.  The state computes those columns once
(BGHZState._shells), so every kernel call on it shares them, and the
kernel returns its per-shell terms, which the lossy Mermin test reweighs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from brightghz.state import BGHZState, DEFAULT_POLICY, NumericPolicy, build_bghz

__all__ = [
    "CorrelationTensor",
    "stokes_expectation",
    "tensor_t",
]

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


def _affine(kind: str, k: int) -> tuple[float, float]:
    """(a, b): the count function of kind is a + b (2 kappa - k) on shell k."""
    if k == 0:
        return {"Sp": -1.0, "Pvac": 1.0, "I": 1.0}.get(kind, 0.0), 0.0
    if kind in ("S", "Sp"):
        return 0.0, 1.0 / k
    return float(kind != "Pvac"), 0.0


# Bounded by construction: the keys do not depend on the gain, only on one
# of 10 selectors and a photon shell, and a bright state's shells stop at
# twice its cutoff (2 * CUTOFF_CAP unless the cutoff is pinned).
_SHELL_BLOCKS: dict[tuple[str, int], np.ndarray] = {}


def _shell_block(selector: str, k: int) -> np.ndarray:
    """Shell-k matrix of the per-party operator in the canonical basis, cached."""
    key = (selector, k)
    got = _SHELL_BLOCKS.get(key)
    if got is None:
        basis_index, kind = _SELECTORS[selector]
        a, b = _affine(kind, k)
        q = np.arange(k + 1)
        got = np.zeros((k + 1, k + 1), complex if basis_index == 2 else float)
        if basis_index == 3:
            np.fill_diagonal(got, a + b * (2 * q - k))
        else:
            np.fill_diagonal(got, a)
            # b times <q+1, k-q-1| adag b |q, k-q>, turned by i^(q'-q) in basis 2
            hop = b * np.sqrt(q[1:] * (k + 1.0 - q[1:]))
            turn = 1j if basis_index == 2 else 1.0
            got[q[1:], q[:-1]] = turn.conjugate() * hop
            got[q[:-1], q[1:]] = turn * hop
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


def _bghz_expectation(state: BGHZState, ops: tuple[str, str, str]) -> float:
    total = 0.0
    for k, rows, psi, _ in state._shells:
        block = (
            _shell_block(ops[0], k)[rows, rows]
            * _shell_block(ops[1], k)[rows, rows]
            * _shell_block(ops[2], k)[rows, rows]
        )
        total += float(np.real(np.vdot(psi, block @ psi)))
    return total


# weights of the columns x, y, s*x, s*y of BGHZState._shells: J - 3 Sigma
_MERMIN_WEIGHTS = np.array([1.0, 1.0, -3.0, -3.0])


def _mermin_form(state: BGHZState, selector: str) -> np.ndarray:
    """Per-shell terms of <111> - <122> - <212> - <221> on a bright state.

    selector names the basis-1 per-party operator ("S1p" or "S1"); its
    basis-2 block is the same times i^(q'-q).  One term per entry of
    state._shells, in its order; the combination is their sum.  See the
    module docstring for the reduction.
    """
    terms = np.empty(len(state._shells))
    for i, (k, rows, _, v) in enumerate(state._shells):
        b = _shell_block(selector, k)[rows, rows]
        terms[i] = (v * ((b * b * b) @ v)).sum(axis=0) @ _MERMIN_WEIGHTS
    return terms


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
