"""Basis rotations, Stokes expectations, and the correlation tensor."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brightghz import stokes
from brightghz.oracles import (
    DenseTruncatedState,
    binomial_shell_rotation,
    dense_expectation,
)
from brightghz.state import (
    CUTOFF_CAP,
    BGHZState,
    NumericPolicy,
    build_bghz,
    project_out_vacuum,
)
from brightghz.stokes import (
    _diagonal_block,
    _mermin_form,
    _shell_basis,
    _shell_block,
    CorrelationTensor,
    stokes_expectation,
    tensor_t,
)

SQ2 = math.sqrt(2.0)

# Mode unitaries of the rotated bases, new modes = U @ old (H/V) modes: the
# inputs of the binomial reference for the shell blocks.
BASES = {
    # diagonal: difference of +-45 mode counts is adag b + bdag a
    1: np.array([[1, 1], [1, -1]], dtype=complex) / SQ2,
    # circular: difference of R/L mode counts is i(bdag a - adag b)
    2: np.array([[1, -1j], [1, 1j]], dtype=complex) / SQ2,
}

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
    bases = {**BASES, 3: np.eye(2)}
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
    row = np.abs(_shell_basis(1)[1])
    assert row[1] == pytest.approx(1 / SQ2)
    assert row[0] == pytest.approx(1 / SQ2)


def test_two_photon_rotation_amplitudes():
    # |2, 0> in the +-45 basis: amplitudes 1/2, 1/sqrt(2), 1/2 over kappa = 2, 1, 0
    row = np.abs(_shell_basis(2)[2])
    assert row[2] == pytest.approx(0.5)
    assert row[1] == pytest.approx(1 / SQ2)
    assert row[0] == pytest.approx(0.5)


def test_basis_shell_rotations_unitary_through_twice_cutoff_cap():
    # one real eigenbasis per shell: orthogonal, and column kappa holds
    # kappa photons in the +45 mode, eigenvalue 2 kappa - k of adag b + bdag a
    for k in range(2 * CUTOFF_CAP + 1):
        w = _shell_basis(k)
        assert w.dtype == np.float64
        assert np.abs(w.T @ w - np.eye(k + 1)).max() <= 1e-12, k
        q = np.arange(k)
        hop = np.sqrt((q + 1.0) * (k - q))  # <q+1, k-q-1| adag b |q, k-q>
        gen = np.diag(hop, 1) + np.diag(hop, -1)
        want = np.diag(2.0 * np.arange(k + 1) - k)
        assert np.abs(w.T @ gen @ w - want).max() <= 1e-12 * max(k, 1), k


def _reference_block(basis, values, k):
    rot = binomial_shell_rotation(BASES[basis], k)
    return rot.conj().T @ (values[:, None] * rot)


@pytest.mark.parametrize("basis", [1, 2], ids=["basis1", "basis2"])
def test_shell_rotation_matches_binomial_reference(basis, monkeypatch):
    # blocks, unlike the basis vectors, carry no sign or phase convention
    for k in range(21):
        for kind, suffix in (("S", ""), ("Sp", "p")):
            got = _shell_block(f"S{basis}{suffix}", k)
            want = _reference_block(basis, stokes._diagonal_values(kind, k), k)
            assert np.abs(got - want).max() <= 1e-13, (kind, k)
    # and for arbitrary real values on the rotated counts
    rng = np.random.default_rng(basis)
    values = {k: rng.standard_normal(k + 1) for k in range(21)}
    monkeypatch.setattr(stokes, "_SHELL_BLOCKS", {})
    monkeypatch.setattr(stokes, "_diagonal_values", lambda kind, k: values[k])
    for k in range(21):
        want = _reference_block(basis, values[k], k)
        assert np.abs(_shell_block(f"S{basis}", k) - want).max() <= 1e-13, k


@pytest.mark.parametrize("kind,suffix", [("S", ""), ("Sp", "p")])
def test_basis2_block_is_basis1_times_quarter_turns_bit_for_bit(kind, suffix):
    # the phase i^(q' - q) applied in one broadcast product, signed zeros
    # included, through every shell a bright state at the cap can reach
    for k in range(2 * CUTOFF_CAP + 1):
        q = np.arange(k + 1)
        real = _diagonal_block(stokes._diagonal_values(kind, k), k, slice(None))
        want = real * stokes._QUARTER_TURNS[(q[None, :] - q[:, None]) % 4]
        got = _shell_block(f"S2{suffix}", k)
        assert got.dtype == want.dtype and np.array_equal(
            got.view(np.uint64), want.view(np.uint64)
        ), k


def _full_shell_expectation(state, ops):
    # the whole shell vectors and blocks, without the support restriction
    shells = {}
    for (q, m), amp in state.amps.items():
        shells.setdefault(q + m, np.zeros(q + m + 1, dtype=complex))[q] = amp
    total = 0.0
    for k, vec in shells.items():
        block = _shell_block(ops[0], k) * _shell_block(ops[1], k) * _shell_block(ops[2], k)
        total += np.real(np.vdot(vec, block @ vec))
    return total


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 12).flatmap(
        lambda cutoff: st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi), st.booleans()),
            min_size=(cutoff + 1) ** 2,
            max_size=(cutoff + 1) ** 2,
        )
    ),
    st.booleans(),
)
def test_mermin_kernel_equals_four_setting_sum(entries, projected):
    # exchange-diagonal states with arbitrary complex amplitudes and zeros
    # anywhere, so a shell's support may start or end inside it or be empty;
    # projected drops the (0, 0) entry the way the witnesses do
    side = math.isqrt(len(entries))
    raw = {
        (q, m): r * cmath.exp(1j * phi) if keep else 0j
        for (q, m), (r, phi, keep) in zip(itertools.product(range(side), repeat=2), entries)
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    assume(norm > 1e-6)
    amps = {qm: a / norm for qm, a in raw.items()}
    state = BGHZState(gamma=0.0, cutoff=side - 1, amps=amps, norm_residual=0.0)
    if projected:
        assume(1.0 - abs(amps[(0, 0)]) ** 2 > 1e-12)
        state = project_out_vacuum(state)
    for suffix, kind in (("p", "Sp"), ("", "S")):
        triples = [tuple(op + suffix for op in ops) for ops in MERMIN_TRIPLES]
        terms = [stokes_expectation(state, ops) for ops in triples]
        for ops, term in zip(triples, terms):
            assert term == pytest.approx(_full_shell_expectation(state, ops), abs=1e-12)
        want = terms[0] - sum(terms[1:])
        got = _mermin_form(state, lambda k, rows: _shell_block(f"S1{suffix}", k)[rows, rows])
        assert got == pytest.approx(want, abs=1e-12)
        # the lossy kernel's blocks: the rotation restricted to the rows
        got = _mermin_form(
            state,
            lambda k, rows: _diagonal_block(stokes._diagonal_values(kind, k), k, rows),
        )
        assert got == pytest.approx(want, abs=1e-12)


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
