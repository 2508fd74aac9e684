"""Basis rotations, Stokes expectations, and the correlation tensor."""

import math

import numpy as np
import pytest

from brightghz import stokes
from brightghz.oracles import (
    DenseTruncatedState,
    binomial_shell_rotation,
    dense_expectation,
)
from brightghz.state import CUTOFF_CAP, BGHZState, NumericPolicy, build_bghz
from brightghz.stokes import (
    _shell_rotation,
    _shell_unitary,
    CorrelationTensor,
    stokes_expectation,
    tensor_t,
)

SQ2 = math.sqrt(2.0)

MERMIN_TRIPLES = [
    ("S1", "S1", "S1"),
    ("S1", "S2", "S2"),
    ("S2", "S1", "S2"),
    ("S2", "S2", "S1"),
]


@pytest.fixture(scope="module")
def ghz():
    """Ideal single-triple GHZ superposition on the diagonal support."""
    return BGHZState(
        gamma=0.0,
        cutoff=1,
        amps={(1, 0): 1 / SQ2, (0, 1): 1 / SQ2},
        norm_residual=0.0,
    )


@pytest.fixture(scope="module")
def vacuum():
    return BGHZState(gamma=0.0, cutoff=0, amps={(0, 0): 1.0}, norm_residual=0.0)


@pytest.fixture(scope="module")
def bright_small():
    return build_bghz(0.3, NumericPolicy(cutoff=4))


def test_basis_unitarity_and_unbiasedness():
    bases = {**stokes._BASES, 3: np.eye(2)}
    for u in bases.values():
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    # any two different bases are mutually unbiased
    for a in bases:
        for b in bases:
            if a == b:
                continue
            overlap = bases[a] @ bases[b].conj().T
            assert np.allclose(np.abs(overlap) ** 2, 0.5, atol=1e-14)


def test_single_photon_rotation_amplitudes():
    # |1, 0> splits evenly between the +45 and -45 modes
    column = _shell_rotation(1, 1)[:, 1]
    assert column[1] == pytest.approx(1 / SQ2)
    assert column[0] == pytest.approx(1 / SQ2)


def test_two_photon_rotation_amplitudes():
    # |2, 0> in the +-45 basis: amplitudes 1/2, 1/sqrt(2), 1/2 over kappa = 2, 1, 0
    column = np.abs(_shell_rotation(1, 2)[:, 2])
    assert column[2] == pytest.approx(0.5)
    assert column[1] == pytest.approx(1 / SQ2)
    assert column[0] == pytest.approx(0.5)


def test_rotation_round_trip_is_identity():
    # rotating into the circular basis and back restores every shell
    back = stokes._BASES[2].conj().T
    for k in range(6):
        there = _shell_rotation(2, k)
        assert np.allclose(_shell_unitary(back, k) @ there, np.eye(k + 1), atol=1e-12)


def _u2(theta, phi, chi, psi):
    """General 2x2 unitary, det = exp(2 i psi)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * psi) * np.array(
        [
            [c * np.exp(1j * chi), -s * np.exp(-1j * phi)],
            [s * np.exp(1j * phi), c * np.exp(-1j * chi)],
        ]
    )


CUSTOM_UNITARIES = {
    "phase": np.exp(0.7j) * np.eye(2),
    "near_identity": _u2(1e-9, 0.3, -2e-10, 0.0),
    "reflection": np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex),
    "swap": np.array([[0, 1], [1, 0]], dtype=complex),
    "generic": _u2(1.1, 0.4, 2.3, -0.9),
    "near_minus_identity": _u2(math.pi - 1e-9, 0.1, 0.2, 0.0),
}


def _unitarity_error(a):
    return np.abs(a.conj().T @ a - np.eye(a.shape[0])).max()


def test_basis_shell_rotations_unitary_through_twice_cutoff_cap():
    for index in (1, 2):
        for k in range(2 * CUTOFF_CAP + 1):
            assert _unitarity_error(_shell_rotation(index, k)) <= 1e-12, (index, k)


@pytest.mark.parametrize("name", sorted(CUSTOM_UNITARIES))
def test_custom_shell_rotations_unitary(name):
    u = CUSTOM_UNITARIES[name]
    for k in (0, 1, 2, 5, 17, 40, 61, 90, 2 * CUTOFF_CAP):
        assert _unitarity_error(_shell_unitary(u, k)) <= 1e-12, k
    if name == "phase":
        # a global phase multiplies every k-photon state by its k-th power
        for k in (0, 3, 2 * CUTOFF_CAP):
            assert np.allclose(_shell_unitary(u, k), np.exp(0.7j * k) * np.eye(k + 1))


@pytest.mark.parametrize(
    "u",
    [stokes._BASES[1], stokes._BASES[2], *CUSTOM_UNITARIES.values()],
    ids=["basis1", "basis2", *CUSTOM_UNITARIES],
)
def test_shell_rotation_matches_binomial_reference(u):
    for k in range(21):
        got = _shell_unitary(u, k)
        assert np.abs(got - binomial_shell_rotation(u, k)).max() <= 1e-13, k


def test_ghz_correlations(ghz):
    assert stokes_expectation(ghz, ("S1", "S1", "S1")) == pytest.approx(1.0)
    assert stokes_expectation(ghz, ("S2", "S2", "S2")) == pytest.approx(0.0, abs=1e-12)
    for ops in MERMIN_TRIPLES[1:]:
        assert stokes_expectation(ghz, ops) == pytest.approx(-1.0)
    assert stokes_expectation(ghz, ("S3", "S3", "S3")) == pytest.approx(0.0, abs=1e-12)
    assert stokes_expectation(ghz, ("Pi", "Pi", "Pi")) == pytest.approx(1.0)
    # Mermin combination reaches the GHZ maximum of 4
    total = stokes_expectation(ghz, MERMIN_TRIPLES[0]) - sum(
        stokes_expectation(ghz, ops) for ops in MERMIN_TRIPLES[1:]
    )
    assert abs(total) == pytest.approx(4.0)


def test_vacuum_values(vacuum):
    assert stokes_expectation(vacuum, ("S1p", "S2p", "S3p")) == pytest.approx(-1.0)
    assert stokes_expectation(vacuum, ("S1", "S1", "S1")) == 0.0
    assert stokes_expectation(vacuum, ("Pvac", "Pvac", "Pvac")) == pytest.approx(1.0)
    assert stokes_expectation(vacuum, ("S0", "S0", "S0")) == 0.0


def test_selector_validation(ghz):
    with pytest.raises(ValueError):
        stokes_expectation(ghz, ("S1", "S1"))
    with pytest.raises(ValueError):
        stokes_expectation(ghz, ("S1", "S4", "S1"))
    with pytest.raises(TypeError):
        stokes_expectation({(0, 0): 1.0}, ("S1", "S1", "S1"))


def test_fast_path_matches_joint_path(bright_small):
    # the shell kernel against the dense six-mode state, every shell kept
    joint = DenseTruncatedState.from_amplitudes(bright_small.amps, cap=8)
    triples = MERMIN_TRIPLES + [
        ("S1p", "S2p", "S2p"),
        ("S3", "S3", "S3"),
        ("Pi", "Pi", "Pi"),
        ("Pvac", "I", "S0"),
    ]
    for ops in triples:
        fast = stokes_expectation(bright_small, ops)
        generic = dense_expectation(joint, ops)
        assert fast == pytest.approx(generic, abs=1e-10)


def test_nonvacuum_projector_complements_vacuum(bright_small):
    p_vac = abs(bright_small.amps[(0, 0)]) ** 2
    assert stokes_expectation(bright_small, ("Pi", "Pi", "Pi")) == pytest.approx(
        1.0 - p_vac, abs=1e-12
    )


@pytest.mark.parametrize("gamma", [0.1, 0.4, 0.8])
def test_tensor_closed_form_matches_generic(gamma):
    tensor = tensor_t(gamma)
    assert tensor.cross_check <= 1e-8
    assert tensor.elements[(1, 1, 1)] == tensor.t
    for index in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
        assert tensor.elements[index] == -tensor.t
        # the sign pattern is real, not just bookkeeping
        ops = tuple(f"S{i}" for i in index)
        state = build_bghz(gamma)
        assert stokes_expectation(state, ops) == pytest.approx(-tensor.t, abs=1e-8)


def test_tensor_limits():
    assert tensor_t(0.0).t == pytest.approx(0.0, abs=1e-12)
    # small-gain leading order grows from zero
    small = tensor_t(0.05).t
    assert 0.0 < small < 0.02


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
def test_structural_zeros(gamma):
    """Everything with an S3 leg, and the all-S2 triple, vanishes."""
    state = build_bghz(gamma)
    triples = [
        (i, j, k)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
        if 3 in (i, j, k)
    ] + [(2, 2, 2)]
    for index in triples:
        ops = tuple(f"S{i}" for i in index)
        assert abs(stokes_expectation(state, ops)) < 1e-10


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
def test_party_stokes_vector_in_bloch_ball(gamma):
    state = build_bghz(gamma)
    for party in range(3):
        components = []
        for j in (1, 2, 3):
            ops = ["I", "I", "I"]
            ops[party] = f"S{j}"
            components.append(stokes_expectation(state, tuple(ops)))
        assert sum(c * c for c in components) <= 1.0 + 1e-10


@pytest.mark.parametrize("gamma", [0.5, 0.8])
def test_sparse_matches_dense_oracle(gamma):
    state = build_bghz(gamma, NumericPolicy(cutoff=2))
    dense = DenseTruncatedState.from_amplitudes(state.amps)
    triples = MERMIN_TRIPLES + [
        ("S1p", "S1p", "S1p"),
        ("S2p", "S2p", "S1p"),
        ("S3", "S3", "S3"),
        ("Pi", "Pi", "Pi"),
    ]
    for ops in triples:
        sparse = stokes_expectation(state, ops)
        brute = dense_expectation(dense, ops)
        assert sparse == pytest.approx(brute, abs=1e-10)
