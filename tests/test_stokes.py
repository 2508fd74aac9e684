"""Basis rotations, Stokes expectations, and the correlation tensor."""

import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brightghz.stokes as stokes_module
from brightghz.state import (
    CUTOFF_CAP,
    BGHZState,
    NumericPolicy,
    build_bghz,
    project_out_vacuum,
)
from brightghz.stokes import (
    _SELECTORS,
    _affine,
    _mermin_form,
    _shell_terms,
    CorrelationTensor,
    stokes_expectation,
    tensor_t,
)
from references import (
    BASES,
    DenseTruncatedState,
    amplitude_boxes,
    dense_expectation,
    diagonal_state,
    reference_block,
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


def _count_values(kind, k):
    """The count function of kind on kappa photons in the measured mode of shell k."""
    values = []
    for ka in range(k + 1):
        kb = k - ka
        if kind in ("S", "Sp"):
            values.append((ka - kb) / k if k else (-1.0 if kind == "Sp" else 0.0))
        else:
            values.append({"Pi": float(k > 0), "Pvac": float(k == 0), "I": 1.0}[kind])
    return np.array(values)


def _eigenbasis_block(values, k):
    # the rotation as the eigenbasis of the hop matrix adag b + bdag a,
    # whose column kappa holds kappa photons in the +45 mode
    q = np.arange(k)
    hop = np.sqrt((q + 1.0) * (k - q))  # <q+1, k-q-1| adag b |q, k-q>
    w = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))[1]
    return (w * values) @ w.T


def _band_blocks(selector, top):
    """Shell-k blocks for k = 0..top, assembled from the production affine
    data: a + b (2q - k) on the diagonal in basis 3, a elsewhere, and the
    upper band b sqrt((q+1)(k-q)) on |q, k-q> -> |q+1, k-q-1>, times i in
    basis 2."""
    basis, kind = _SELECTORS[selector]
    a, b = _affine(kind, np.arange(top + 1))
    b = np.broadcast_to(b, a.shape)
    blocks = []
    for k in range(top + 1):
        q = np.arange(k + 1)
        if basis == 3:
            blocks.append(np.diag(a[k] + b[k] * (2 * q - k)))
            continue
        u = b[k] * np.sqrt((q[:-1] + 1.0) * (k - q[:-1]))
        if basis == 2:
            u = 1j * u
        block = np.diag(np.full(k + 1, a[k], u.dtype))
        blocks.append(block + np.diag(u, 1) + np.diag(u.conj(), -1))
    return blocks


@pytest.mark.parametrize("basis", [1, 2, 3], ids=["basis1", "basis2", "basis3"])
def test_shell_rotation_matches_binomial_reference(basis):
    # blocks, unlike the basis vectors, carry no sign or phase convention
    selectors = [sel for sel, (b, _) in _SELECTORS.items() if b == basis]
    for sel in selectors:
        for k, block in enumerate(_band_blocks(sel, 20)):
            want = reference_block(basis, _count_values(_SELECTORS[sel][1], k), k)
            assert np.abs(block - want).max() <= 1e-13, (sel, k)


def test_s1_block_matches_eigenbasis_block_through_twice_cutoff_cap():
    for k, block in enumerate(_band_blocks("S1", 2 * CUTOFF_CAP)):
        want = _eigenbasis_block(_count_values("S", k), k)
        assert np.abs(block - want).max() <= 2e-15, k


def test_basis1_blocks_are_symmetric_with_zero_diagonal():
    # which makes the entrywise cube of alpha B - beta I equal
    # alpha^3 B*B*B - beta^3 I, the lossy Mermin closed form
    for sel in ("S1", "S1p"):
        for k, block in enumerate(_band_blocks(sel, 2 * CUTOFF_CAP)):
            assert block.dtype == np.float64
            assert np.array_equal(block, block.T), (sel, k)
            if k:
                assert not np.diag(block).any(), (sel, k)


@pytest.mark.parametrize("kind,suffix", [("S", ""), ("Sp", "p")])
def test_basis2_block_is_hermitian_basis1_times_quarter_turns(kind, suffix):
    # the circular basis is the diagonal one after a quarter wave on the b
    # mode, through every shell a bright state at the cap can reach
    pairs = zip(
        _band_blocks(f"S2{suffix}", 2 * CUTOFF_CAP), _band_blocks(f"S1{suffix}", 2 * CUTOFF_CAP)
    )
    for k, (got, basis1) in enumerate(pairs):
        q = np.arange(k + 1)
        want = basis1 * 1j ** (q[None, :] - q[:, None])
        assert np.array_equal(got, got.conj().T), k
        assert np.abs(got - want).max() <= 1e-15, k


@functools.lru_cache(maxsize=None)
def _reference_block(selector, k):
    basis, kind = _SELECTORS[selector]
    return reference_block(basis, _count_values(kind, k), k)


def _reference_shell_terms(state, ops, on_diag=1.0, on_band=1.0):
    # whole shell vectors against the binomial reference blocks, one term per
    # shell k = 0..2(side-1), the diagonal weighted by on_diag and the rest by on_band
    side = 1 + max(max(key) for key in state.amps)
    shells = {}
    for (q, m), amp in state.amps.items():
        shells.setdefault(q + m, np.zeros(q + m + 1, dtype=complex))[q] = amp
    terms = np.zeros(2 * side - 1)
    for k, vec in shells.items():
        block = (
            _reference_block(ops[0], k) * _reference_block(ops[1], k) * _reference_block(ops[2], k)
        )
        diag = np.diag(np.diag(block))
        terms[k] = np.real(np.vdot(vec, (on_diag * diag + on_band * (block - diag)) @ vec))
    return terms


def _full_shell_expectation(state, ops):
    return _reference_shell_terms(state, ops).sum()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    amplitude_boxes(12),
    st.tuples(*[st.sampled_from(sorted(_SELECTORS))] * 3),
    st.sampled_from([(1.0, 1.0), (-2.0, 4.0), (0.5, -3.0)]),
)
def test_shell_terms_match_reference_per_shell(entries, ops, weights):
    # the lossy Mermin test reweighs shells, so every term must be right,
    # not only their sum
    state = diagonal_state(entries)
    assume(state is not None)
    got = _shell_terms(state, ops, *weights)
    want = _reference_shell_terms(state, ops, *weights)
    assert got.shape == want.shape == (2 * state.cutoff + 1,)
    assert np.abs(got - want).max() <= 1e-12


def _direct_shell_terms(state, ops, on_diag=1.0, on_band=1.0):
    # the per-shell weights built afresh over exactly the state's shells, by
    # the same elementwise operations as the production tables
    moments, hops = state._moments
    k = np.arange(len(hops))
    poly = np.zeros(moments.shape)
    poly[0] = 1.0
    band = 2.0 * on_band
    for op in ops:
        basis_index, kind = _SELECTORS[op]
        a, b = _affine(kind, k)
        if basis_index == 3:
            poly[1:] = a * poly[1:] + b * poly[:-1]
            poly[0] *= a
            band = None
        else:
            poly *= a
            if band is not None:
                band = band * (1j * b if basis_index == 2 else b)
    terms = on_diag * (poly * moments).sum(axis=0)
    if band is not None:
        terms += (band * hops).real
    return terms


def _hand_state(side, amps):
    # a hand-made state whose box has the given side, amps on a few keys only
    amps = {(side - 1, side - 1): 0.0, **amps}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return BGHZState(
        gamma=0.0,
        cutoff=side - 1,
        amps={qm: a / norm for qm, a in amps.items()},
        norm_residual=0.0,
    )


def test_shell_terms_do_not_depend_on_the_first_table_size(monkeypatch):
    # the same small state's terms, bit for bit, whichever box first built
    # the tables: itself (9 shells), a state at the cutoff cap (121) or a
    # hand-made box past the cap (131), and equal to weights built afresh
    # over its own 9 shells
    small = build_bghz(0.3, NumericPolicy(cutoff=4))
    firsts = [
        None,
        build_bghz(0.352),
        _hand_state(CUTOFF_CAP + 6, {(0, 0): 1.0, (3, 2): 0.5j, (4, 1): -0.25}),
    ]
    triples = list(itertools.product(sorted(_SELECTORS), repeat=3))
    weights = [(1.0, 1.0), (-2.0, 4.0)]
    got = []
    for first in firsts:
        monkeypatch.setattr(stokes_module, "_WEIGHTS", {})
        if first is not None:
            assert len(first._moments[1]) > len(small._moments[1]) == 9
            for ops in triples:
                for w in weights:
                    _shell_terms(first, ops, *w)
        got.append([_shell_terms(small, ops, *w) for ops in triples for w in weights])
    want = [_direct_shell_terms(small, ops, *w) for ops in triples for w in weights]
    for terms in got:
        assert all(np.array_equal(a, b) for a, b in zip(terms, want))


def test_tables_grow_past_the_cap(monkeypatch):
    # a hand-made box with more than 2 CUTOFF_CAP + 1 shells grows the shell
    # weights; every term equals weights built afresh and matches the
    # reference, whose binomial rotations hold through shell 2 CUTOFF_CAP
    # (basis-3 blocks are diagonal, exact on all), and the closed form's t
    # holds on the whole box
    monkeypatch.setattr(stokes_module, "_WEIGHTS", {})
    side = CUTOFF_CAP + 5
    top = side - 1
    state = _hand_state(
        side,
        {
            (0, 0): 0.6,
            (30, 20): 0.3,
            (31, 19): -0.2j,
            (20, 30): 0.3,
            (19, 31): -0.2j,
            (top, top - 1): 0.25 + 0.1j,
            (top - 1, top): 0.25 + 0.1j,
            (top, top): 0.15,
        },
    )
    shells = 2 * side - 1
    assert shells > 2 * CUTOFF_CAP + 1
    triples = [("S1", "S1", "S1"), ("S1p", "S2p", "S2p"), ("S2", "S2", "S1"), ("S3", "S3", "S0")]
    small = build_bghz(0.3, NumericPolicy(cutoff=4))
    for ops in triples:
        _shell_terms(small, ops)  # a table first built at the default size
        assert stokes_module._WEIGHTS[ops, 1.0][0].shape[1] == 2 * CUTOFF_CAP + 1
        got = _shell_terms(state, ops)
        assert stokes_module._WEIGHTS[ops, 1.0][0].shape[1] >= shells
        assert np.array_equal(got, _direct_shell_terms(state, ops))
        reach = shells if set(ops) <= {"S3", "S0", "I"} else 2 * CUTOFF_CAP + 1
        want = _reference_shell_terms(state, ops)
        assert np.abs(got - want)[:reach].max() <= 1e-12
        assert np.abs(got[2 * top - 1 :]).max() > 0  # the top shells count
    assert state._closed_form_t == pytest.approx(
        stokes_expectation(state, ("S1", "S1", "S1")), abs=1e-12
    )


def test_weight_tables_are_read_only():
    state = build_bghz(0.3, NumericPolicy(cutoff=4))
    for ops in [("S1", "S2", "S2"), ("S3", "S3", "S0")]:
        _shell_terms(state, ops)
        poly, band = stokes_module._WEIGHTS[ops, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            poly[0, 0] = 0.0
        if band is not None:
            with pytest.raises(ValueError, match="read-only"):
                band[0] = 0.0


def test_warm_kernels_build_no_weights(monkeypatch):
    # after warm-up a selector triple is a table lookup and a moment sum,
    # and the closed-form t, computed once per state, builds no hop weights
    state = build_bghz(0.352)
    triples = [(sel,) * 3 for sel in sorted(_SELECTORS)] + MERMIN_TRIPLES
    before = [stokes_expectation(state, ops) for ops in triples]
    t = tensor_t(0.352, state=state).t

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm kernel rebuilt its shell weights")

    monkeypatch.setattr(stokes_module, "_affine", forbidden)
    monkeypatch.setattr(np, "outer", forbidden)
    assert [stokes_expectation(state, ops) for ops in triples] == before
    assert tensor_t(0.352, state=state).t == state._closed_form_t == t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    amplitude_boxes(12),
    st.tuples(*[st.sampled_from(sorted(_SELECTORS))] * 3),
)
def test_band_product_matches_reference_blocks(entries, ops):
    state = diagonal_state(entries)
    assume(state is not None)
    assert stokes_expectation(state, ops) == pytest.approx(
        _full_shell_expectation(state, ops), abs=1e-12
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(amplitude_boxes(12), st.booleans())
def test_mermin_kernel_equals_four_setting_sum(entries, projected):
    # exchange-diagonal states with arbitrary complex amplitudes and zeros
    # anywhere; projected drops the (0, 0) entry the way the witnesses do
    state = diagonal_state(entries)
    assume(state is not None)
    if projected:
        assume(1.0 - abs(state.amps[(0, 0)]) ** 2 > 1e-12)
        state = project_out_vacuum(state)
    for suffix in ("p", ""):
        triples = [tuple(op + suffix for op in ops) for ops in MERMIN_TRIPLES]
        terms = [stokes_expectation(state, ops) for ops in triples]
        for ops, term in zip(triples, terms):
            assert term == pytest.approx(_full_shell_expectation(state, ops), abs=1e-12)
        want = terms[0] - sum(terms[1:])
        got = _mermin_form(state, f"S1{suffix}")
        assert got.shape == (2 * len(state._box) - 1,)
        assert got.sum() == pytest.approx(want, abs=1e-12)


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


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({(-1, 2): 0.8}, id="key0"),
        pytest.param({(2, -1): 0.8}, id="key1"),
        pytest.param({(0.5, 1): 0.8}, id="key2"),
        pytest.param({(1, 2, 0): 0.8}, id="key3"),
        pytest.param({"ab": 0.8}, id="ab"),
        # lengths that compensate were once read as the pairs (1, 2), (3, 4)
        pytest.param({(1,): 0.6, (2, 3, 4): 0.2}, id="compensating_lengths"),
    ],
)
def test_amplitude_keys_must_be_photon_counts(bad):
    # a negative count once wrapped round its shell: (-1, 2) answered
    # <S3 I I> = +1, the value of |1, 0>, where |1, 2> gives -1/3
    good = BGHZState(gamma=0.0, cutoff=2, amps={(1, 2): 1.0}, norm_residual=0.0)
    assert stokes_expectation(good, ("S3", "I", "I")) == pytest.approx(-1.0 / 3.0)
    state = BGHZState(gamma=0.0, cutoff=2, amps={(1, 2): 0.6, **bad}, norm_residual=0.0)
    with pytest.raises(ValueError, match=re.escape(repr(next(iter(bad))))):
        stokes_expectation(state, ("S3", "I", "I"))


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(amplitude_boxes(12))
def test_closed_form_t_matches_kernel_on_symmetric_boxes(entries):
    # complex phases and zeros anywhere, mirrored so A[q, m] = A[m, q]
    state = diagonal_state(entries, symmetric=True)
    assume(state is not None)
    generic = stokes_expectation(state, ("S1", "S1", "S1"))
    assert state._closed_form_t == pytest.approx(generic, abs=1e-12)


def test_closed_form_t_differs_off_symmetric_boxes():
    # the closed form reads the transposed partner A[m-1, q+1] in place of
    # A[q+1, m-1]; off the symmetric boxes it is a different number, which is
    # what lets cross_check and the agreement diagnostics catch a broken kernel
    state = BGHZState(
        gamma=0.0,
        cutoff=1,
        amps={(1, 0): 1j / SQ2, (0, 1): 1 / SQ2},
        norm_residual=0.0,
    )
    assert stokes_expectation(state, ("S1", "S1", "S1")) == pytest.approx(0.0, abs=1e-15)
    assert state._closed_form_t == pytest.approx(0.5, abs=1e-15)
    assert tensor_t(0.0, state=state).cross_check == pytest.approx(0.5, abs=1e-15)


def test_kernels_keep_no_memory_between_calls():
    # the box of the benchmark's synthetic warm-up state: every photon shell
    # a state at the cutoff cap reaches, all 10 selectors in every position
    side = CUTOFF_CAP + 1
    state = BGHZState(
        gamma=0.0,
        cutoff=CUTOFF_CAP,
        amps={(q, m): complex(1.0 / side) for q in range(side) for m in range(side)},
        norm_residual=0.0,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sel, party in itertools.product(sorted(_SELECTORS), range(3)):
            ops = ["S1", "S3", "Pi"]
            ops[party] = sel
            stokes_expectation(state, ops)
            stokes_expectation(state, (sel, sel, sel))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1e6


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
