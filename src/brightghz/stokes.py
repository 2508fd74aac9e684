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
its a-mode and m in its b-mode, on shell k = q + m.  An entrywise product
of tridiagonal operators is tridiagonal, so a selector triple has a
diagonal D and an upper band O on (q, m) -> (q+1, m-1), and its
expectation is

    sum D |A|^2 + 2 Re sum conj(A[q, m]) O A[q+1, m-1].

Each party's diagonal is a_k + b_k (q - m), as 2q - k = q - m, with the
slope b_k in basis 3 only, so D on shell k is a cubic in q - m with
coefficients e_p[k].  Each party's upper band is b_k sqrt((q+1) m), times
i in basis 2 and zero in basis 3, so O exists only when no party measures
in basis 3, and is then i^n2 b0_k b1_k b2_k ((q+1) m)^(3/2), n2 the number
of basis-2 parties.  Shell k of the expectation is therefore

    sum_p e_p[k] M_p[k] + 2 Re(i^n2 b0_k b1_k b2_k N[k])

over the state's shell moments (BGHZState._moments), M_p[k] = sum
(q - m)^p |A[q, m]|^2 for p = 0..3 and N[k] = sum conj(A[q, m])
((q+1) m)^(3/2) A[q+1, m-1], both over the pairs on shell k: one
read-only (6, shells) float array per state, rows M_0..M_3, Re N, Im N,
built once (build_bghz memoizes the state per gain).  The weights e_p[k]
and w = i^n2 b0_k b1_k b2_k depend only on the triple and k, and an
expectation is linear in them, so a form, a weighted sum of triples (a
witness, the Mermin combination), has the weighted sums of its triples'.
They are one read-only (6, width) array per form (_WEIGHTS), rows e_0..e_3,
2 Re w and -2 Im w, so that a form of any length costs one slice, one
product with the moments and one NumPy sum, with no pass over the box; a
single selector triple is the one-entry form.  That sum is NumPy's own
pairwise reduction, not a BLAS dot (np.dot, np.vdot, @): a dot is faster,
but its last bits follow the BLAS kernel that the CPU selects, and the CLI
goldens hold thresholds byte for byte.  The closed form for t
(BGHZState._closed_form_t, computed once per state) reads the box itself,
so CorrelationTensor.cross_check and the agreement diagnostics compare two
different computations.

This module holds the engine: the selector table (_SELECTORS, one row of
numbers per per-party operator) and the form evaluator (_form_terms and
_form_value).  The forms it evaluates, the Mermin combination and the two
witnesses, are constants in nonclassicality.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from brightghz.state import (
    CUTOFF_CAP,
    DEFAULT_POLICY,
    BGHZState,
    NumericPolicy,
    _state_at,
)
from brightghz.series_core import _shown, _typed

__all__ = [
    "CorrelationTensor",
    "stokes_expectation",
    "tensor_t",
]

# selector -> (measurement basis, value on the party vacuum, value on k > 0
# photons, whether the Stokes slope 1/k applies): the count function is
# a + b (2 kappa - k), a the vacuum or k > 0 value and b = 1/k or 0
_SELECTORS = {
    "S0": (3, 0.0, 1.0, False),
    "S1": (1, 0.0, 0.0, True),
    "S2": (2, 0.0, 0.0, True),
    "S3": (3, 0.0, 0.0, True),
    "S1p": (1, -1.0, 0.0, True),
    "S2p": (2, -1.0, 0.0, True),
    "S3p": (3, -1.0, 0.0, True),
    "Pi": (3, 0.0, 1.0, False),
    "Pvac": (3, 1.0, 0.0, False),
    "I": (3, 1.0, 1.0, False),
}

# bench/tracing.py reads _SHELL_BLOCKS; ROADMAP item 12 removes that read and this dict
_SHELL_BLOCKS: dict = {}

# Weight rows per form, a tuple of (diagonal weight, band weight, selector
# triple) entries: the module docstring's (6, width) array, summed over the
# entries.  They depend on neither the state nor the gain, so each is built
# once, read-only, through shell 2 CUTOFF_CAP (grown for a box with more
# shells: a hand-made one, or a cutoff pinned past the cap) and sliced per
# call.  Production uses one-entry forms (expectations and the Mermin form)
# and the two witnesses, about 5.8 kB each at 2 CUTOFF_CAP + 1 shells.
_WEIGHTS: dict[tuple, np.ndarray] = {}


def _triple_weights(ops: tuple, on_diag: float, on_band: float, k: np.ndarray) -> np.ndarray:
    """The (6, len(k)) weight rows of on_diag D + on_band O for the selector triple ops."""
    vacuum = k == 0
    slope = np.divide(1.0, k, out=np.zeros(k.shape), where=~vacuum)
    rows = np.zeros((6, len(k)))
    # the diagonal product as a polynomial in q - m, one coefficient row per power
    poly = rows[:4]
    poly[0] = on_diag
    band = 2.0 * on_band
    for op in ops:
        basis, on_vacuum, on_photons, sloped = _SELECTORS[op]
        a = np.where(vacuum, on_vacuum, on_photons)
        b = slope if sloped else 0.0
        if basis == 3:
            poly[1:] = a * poly[1:] + b * poly[:-1]
            poly[0] *= a
            band = 0.0  # a basis-3 party leaves no band
        else:
            poly *= a
            band = band * (1j * b if basis == 2 else b)
    rows[4], rows[5] = np.real(band), -np.imag(band)
    return rows


def _form_terms(state: BGHZState, form: tuple) -> np.ndarray:
    """Terms of a form, a tuple of (on_diag, on_band, selector triple) entries.

    The (6, shells) product of the form's weight rows with the state's shell
    moments, shells running from 0 to twice the box's largest photon count.
    Column k sums to the shell-k part of the entries' sum D |A|^2 + 2 Re sum
    conj(A[q, m]) O A[q+1, m-1], each D weighted by its on_diag and O by its
    on_band; the whole product sums to the form's value (_form_value).
    """
    moments = state._moments
    shells = moments.shape[1]
    weights = _WEIGHTS.get(form)
    if weights is None or weights.shape[1] < shells:
        k = np.arange(max(shells, 2 * CUTOFF_CAP + 1))
        weights = sum(_triple_weights(ops, on_diag, on_band, k) for on_diag, on_band, ops in form)
        weights.setflags(write=False)
        _WEIGHTS[form] = weights
    return weights[:, :shells] * moments


def _form_value(state: BGHZState, form: tuple) -> float:
    """A form's value on a state: its terms summed in one NumPy reduction."""
    return float(_form_terms(state, form).sum())


def _validate_selectors(ops) -> tuple[str, str, str]:
    """ops as a tuple; ValueError naming it unless it is three selectors, one per party."""
    triple = tuple(_typed("ops", ops, Iterable))
    if len(triple) != 3 or not all(isinstance(op, str) and op in _SELECTORS for op in triple):
        raise ValueError(f"ops must be three of {sorted(_SELECTORS)}, got {_shown(ops)}")
    return triple


def stokes_expectation(state, ops) -> float:
    """Expectation of a product of one per-party polarization observable.

    ops is a 3-sequence of selectors: S1/S2/S3 (normalized Stokes in the
    +-45, circular, H/V bases), S1p/S2p/S3p (vacuum counted as -1), S0 or
    Pi (non-vacuum projector), Pvac (vacuum projector), I (identity, for
    marginals).  state must be a BGHZState.
    """
    ops = _validate_selectors(ops)
    return _form_value(_typed("state", state, BGHZState), ((1.0, 1.0, ops),))


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


# every element of a CorrelationTensor zero, copied per call before the GHZ pattern is filled
_NO_ELEMENTS = dict.fromkeys(itertools.product((1, 2, 3), repeat=3), 0.0)


def tensor_t(
    gamma: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    state: BGHZState | None = None,
) -> CorrelationTensor:
    """Correlation tensor of the bright state at one gain.

    Builds the state (or reuses a provided one), reads its closed-form
    double sum for t (computed once per state), fills the GHZ sign pattern,
    and cross-checks t against the generic evaluation of <S1 S1 S1>.  A provided state must be
    exchange-symmetric, A[q, m] = A[m, q], for t to be its T_111.
    """
    state = _state_at(gamma, policy, state)
    t = state._closed_form_t
    generic = stokes_expectation(state, ("S1", "S1", "S1"))
    elements = {**_NO_ELEMENTS, (1, 1, 1): t, (1, 2, 2): -t, (2, 1, 2): -t, (2, 2, 1): -t}
    return CorrelationTensor(
        gamma=state.gamma,
        t=t,
        elements=elements,
        cross_check=abs(t - generic),
    )
