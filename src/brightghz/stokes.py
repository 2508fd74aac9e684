"""Sparse Fock-space measurement engine for polarization observables.

Every observable here is the expectation of a product of one per-party
operator, each diagonal in some polarization basis: the normalized Stokes
operator takes (k_a - k_b)/(k_a + k_b) on the photon counts of the two
measured modes and 0 on the party vacuum, its primed variant takes -1 on
the vacuum instead, and the projector family counts vacuum/non-vacuum.
Measuring in basis 1 (+-45 degrees) or 2 (circular) means rotating the
party's two modes first; the rotation is passive, so it acts inside each
fixed-total-photon shell.  On the k-photon shell the +-45 count difference
is the real tridiagonal hop matrix adag b + bdag a, with eigenvalues
2 kappa - k for kappa photons in the +45 mode.  Its real eigenbasis W, one
eigendecomposition per shell, stays orthogonal to rounding (~1e-15)
through shell 120, and an operator taking values v on the rotated counts
is W diag(v) W^T.  The circular basis is the diagonal one after a quarter
wave on the b mode, so its block is the basis-1 block times i^(q'-q), and
in basis 3 the block is diag(v) itself.

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
to the last nonzero amplitude.  A shell k above the cutoff holds
2 cutoff - k + 1 of its k + 1 rows, so a block rotated for the lossy test
is built on those rows alone, W[rows] diag(v) W[rows]^T.  The Mermin form
runs in real arithmetic: with psi = x + iy, s_q = (-1)^q and C = B*B*B it
is the sum over v in {x, y} of v^T C v - 3 (s v)^T C (s v), one real
product of C with the four columns x, y, s x, s y.  The state computes
those columns once (BGHZState._shells), so the many kernel calls of one
threshold bisection share them.
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


# Bounded by construction: the keys do not depend on the gain, only on a
# photon shell, or on one of 10 selectors and a shell, and a bright state's
# shells stop at twice its cutoff (2 * CUTOFF_CAP unless the cutoff is pinned).
_SHELL_BASES: dict[int, np.ndarray] = {}
_SHELL_BLOCKS: dict[tuple[str, int], np.ndarray] = {}

# i^(q'-q) by (q'-q) mod 4, exact
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _shell_basis(k: int) -> np.ndarray:
    """Real orthogonal W of shell k in the H/V basis |q, k-q>, cached.

    Column kappa is the eigenvector of the hop matrix adag b + bdag a with
    eigenvalue 2 kappa - k: the state with kappa photons in the +45 mode.
    """
    got = _SHELL_BASES.get(k)
    if got is None:
        q = np.arange(k)
        hop = np.sqrt((q + 1.0) * (k - q))
        got = np.linalg.eigh(np.diag(hop, -1) + np.diag(hop, 1))[1]
        _SHELL_BASES[k] = got
    return got


def _diagonal_block(values: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """Rows-by-rows part of the shell-k operator taking values[kappa] on kappa +45 photons.

    It costs |rows|^2 (k+1) flops, against (k+1)^3 for the whole block.
    """
    w = _shell_basis(k)[rows]
    return (w * values) @ w.T


def _shell_block(selector: str, k: int) -> np.ndarray:
    """Shell-k matrix of the per-party operator in the canonical basis."""
    key = (selector, k)
    got = _SHELL_BLOCKS.get(key)
    if got is None:
        basis_index, kind = _SELECTORS[selector]
        values = _diagonal_values(kind, k)
        if basis_index == 3:
            got = np.diag(values)
        else:
            got = _diagonal_block(values, k, slice(None))
            if basis_index == 2:
                # rows q = r mod 4 share the phase row i^(q' - r): four
                # strided products, and no (k+1)^2 index or phase temporaries
                # left as holes in the heap between cached blocks
                q = np.arange(k + 1)
                turned = np.empty(got.shape, complex)
                for r in range(4):
                    np.multiply(got[r::4], _QUARTER_TURNS[(q - r) % 4], out=turned[r::4])
                got = turned
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


def _mermin_form(state: BGHZState, block) -> float:
    """<111> - <122> - <212> - <221> of one per-party operator on a bright state.

    block(k, rows) is the rows-by-rows part of the operator's basis-1 block
    on shell k; its basis-2 block is the same times i^(q'-q).  See the
    module docstring for the reduction.
    """
    total = 0.0
    for k, rows, _, v in state._shells:
        b = block(k, rows)
        total += float((v * ((b * b * b) @ v)).sum(axis=0) @ _MERMIN_WEIGHTS)
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
