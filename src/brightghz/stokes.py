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
per-party operator is tridiagonal in the H/V basis |q, k-q>: a I + b H in
basis 1, the same with the off-diagonals turned by i^(q'-q) in basis 2 (a
quarter wave on the b mode), and diag(a + b (2q - k)) in basis 3.

Bright states are diagonal across the three parties: a state is one
amplitude box A[q, m] (BGHZState._box), every party holding q photons in
its a-mode and m in its b-mode, on shell k = q + m.  Over the box grid a
selector is two bands: its diagonal, a + b (2q - k) in basis 3 and a
otherwise, and its upper band on (q, m) -> (q+1, m-1), b sqrt((q+1) m),
times i in basis 2 and zero in basis 3.  An entrywise product of
tridiagonal operators is tridiagonal, so a selector triple is the band
product D, O of its diagonals and upper bands, and its expectation is one
O(k)-per-shell pass over the box, with no dense block:

    sum D |A|^2 + 2 Re sum conj(A[q, m]) O A[q+1, m-1].

The Mermin combination <111> - <122> - <212> - <221> needs only the
basis-1 bands: a basis-2 upper band is the basis-1 one times i, so each
mixed setting is minus the basis-1 cube on the band.  The combination is
the basis-1 form weighted by J - 3 Sigma (J all ones, Sigma[q, q'] =
(-1)^(q-q')): -2 on the diagonal, 4 on the band.  `_mermin_form` returns
it per shell, which the lossy Mermin test reweighs.
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


def _affine(kind: str, k: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """(a, b) over shells k: the count function of kind is a + b (2 kappa - k)."""
    vacuum = k == 0
    if kind in ("S", "Sp"):
        a = np.where(vacuum, -1.0 if kind == "Sp" else 0.0, 0.0)
        return a, np.divide(1.0, k, out=np.zeros(k.shape), where=~vacuum)
    if kind == "I":
        return np.ones(k.shape), 0.0
    return (vacuum if kind == "Pvac" else ~vacuum).astype(float), 0.0


# bench/tracing.py reads _SHELL_BLOCKS; ROADMAP item 12 removes that read and this dict
_SHELL_BLOCKS: dict = {}


def _grid(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Shell k = q + m over a side x side box, and the upper band's hop factors.

    The band entry at [q, m-1] couples (q, m) to (q+1, m-1), on shell
    k[q, m], with hop factor sqrt((q+1) m).
    """
    q = np.arange(side)
    return np.add.outer(q, q), np.sqrt(np.outer(q[1:], q[1:]).astype(float))


def _bands(selector: str, k: np.ndarray, hop: np.ndarray):
    """(diagonal, upper band) of selector over the box grid; no band (None) in basis 3."""
    basis_index, kind = _SELECTORS[selector]
    a, b = _affine(kind, k)
    if basis_index == 3:
        q = np.arange(len(k))
        return a + b * (2 * q[:, None] - k), None
    upper = b[:-1, 1:] * hop
    return a, 1j * upper if basis_index == 2 else upper


def _shell_terms(state: BGHZState, ops, on_diag=1.0, on_band=1.0) -> np.ndarray:
    """Per-shell terms of the band product of three selectors on a bright state.

    Entry k, for k from 0 to twice the box's largest photon count, is the
    shell-k part of sum D |A|^2 + 2 Re sum conj(A[q, m]) O A[q+1, m-1],
    with the diagonal D weighted by on_diag and the band O by on_band.
    """
    box = state._box
    k, hop = _grid(len(box))
    (d0, u0), (d1, u1), (d2, u2) = (_bands(op, k, hop) for op in ops)
    terms = (on_diag * d0 * d1 * d2 * (box.real**2 + box.imag**2)).ravel()
    shells = k.ravel()
    if not (u0 is None or u1 is None or u2 is None):
        band = 2.0 * on_band * (box[:-1, 1:].conj() * (u0 * u1 * u2) * box[1:, :-1]).real
        terms = np.concatenate((terms, band.ravel()))
        shells = np.concatenate((shells, k[:-1, 1:].ravel()))
    return np.bincount(shells, terms, minlength=2 * len(box) - 1)


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


def _mermin_form(state: BGHZState, selector: str) -> np.ndarray:
    """Per-shell terms of <111> - <122> - <212> - <221> on a bright state.

    selector names the basis-1 per-party operator ("S1p" or "S1"); the
    terms are those of _shell_terms, with the J - 3 Sigma weights of the
    module docstring, and the combination is their sum.
    """
    return _shell_terms(state, (selector,) * 3, -2.0, 4.0)


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
    return float(_shell_terms(state, ops).sum())


@dataclass(frozen=True)
class CorrelationTensor:
    """Triple Stokes correlations T_ijk of a bright state.

    Only four elements survive: T_111 = t and T_122 = T_212 = T_221 = -t.
    cross_check records |t - <S1 S1 S1>|, the closed form against the
    generic band product on the same truncated state.  The closed form
    equals <S1 S1 S1> only on exchange-symmetric boxes, A[q, m] = A[m, q],
    which every bright state is; elsewhere cross_check is not rounding.
    """

    gamma: float
    t: float
    elements: dict[tuple[int, int, int], float]
    cross_check: float


def _closed_form_t(state: BGHZState) -> float:
    """Double sum for t over the retained amplitudes.

    Each A[q, m] pairs with its direct partner A[q-1, m+1] and its
    transposed partner A[m-1, q+1], hopping one photon between the a and b
    modes in every party at once; the (x(y+1))^(3/2) weights are the
    three-party ladder factors and k^3 the Stokes normalization.  The
    transposed partner makes it <S1 S1 S1> only on exchange-symmetric boxes.
    """
    box = state._box
    q = np.arange(len(box))
    # over (q, m) -> (q+1, m-1), entry [q, m-1]: ((q+1) m)^(3/2) / k^3
    weight = np.outer(q[1:], q[1:]) ** 1.5 / np.add.outer(q[:-1], q[1:]) ** 3
    direct = (box[:-1, 1:].conj() * box[1:, :-1]).real
    transposed = (box.T[1:, :-1].conj() * box[:-1, 1:]).real
    return float((weight * (direct + transposed)).sum())


def tensor_t(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> CorrelationTensor:
    """Correlation tensor of the bright state at one gain.

    Builds the state (or reuses a provided one), evaluates the closed-form
    double sum for t, fills the GHZ sign pattern, and cross-checks t
    against the generic evaluation of <S1 S1 S1>.  A provided state must be
    exchange-symmetric, A[q, m] = A[m, q], for t to be its T_111.
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
