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
from brightghz.nonclassicality import _MERMIN_FORM, _W1_FORM, _W2_FORM
from brightghz.state import (
    CUTOFF_CAP,
    BGHZState,
    NumericPolicy,
    build_bghz,
    project_out_vacuum,
)
from brightghz.stokes import (
    _SELECTORS,
    _form_terms,
    _triple_weights,
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


# each selector's count function, spelled apart from the production rows
_KINDS = {
    "S0": "Pi",
    "S1": "S",
    "S2": "S",
    "S3": "S",
    "S1p": "Sp",
    "S2p": "Sp",
    "S3p": "Sp",
    "Pi": "Pi",
    "Pvac": "Pvac",
    "I": "I",
}


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
    """Shell-k blocks for k = 0..top, assembled from the production row:
    a, the vacuum value on shell 0 and the k > 0 value past it, and b = 1/k
    where the Stokes slope applies, else 0; a + b (2q - k) on the diagonal
    in basis 3, a elsewhere, and the upper band b sqrt((q+1)(k-q)) on
    |q, k-q> -> |q+1, k-q-1>, times i in basis 2."""
    basis, on_vacuum, on_photons, sloped = _SELECTORS[selector]
    k = np.arange(top + 1)
    a = np.where(k == 0, on_vacuum, on_photons)
    b = np.divide(1.0, k, out=np.zeros(k.shape), where=k > 0) if sloped else np.zeros(k.shape)
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
    assert _KINDS.keys() == _SELECTORS.keys()
    selectors = [sel for sel, (b, *_) in _SELECTORS.items() if b == basis]
    for sel in selectors:
        for k, block in enumerate(_band_blocks(sel, 20)):
            want = reference_block(basis, _count_values(_KINDS[sel], k), k)
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
    return reference_block(_SELECTORS[selector][0], _count_values(_KINDS[selector], k), k)


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
    got = _form_terms(state, ((*weights, ops),)).sum(axis=0)
    want = _reference_shell_terms(state, ops, *weights)
    assert got.shape == want.shape == (2 * state.cutoff + 1,)
    assert np.abs(got - want).max() <= 1e-12


def _direct_shell_terms(state, ops, on_diag=1.0, on_band=1.0):
    # the per-shell weights built afresh over exactly the state's shells
    moments = state._moments
    weights = _triple_weights(ops, on_diag, on_band, np.arange(moments.shape[1]))
    return (weights * moments).sum(axis=0)


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
            assert first._moments.shape[1] > small._moments.shape[1] == 9
            for ops in triples:
                for w in weights:
                    _form_terms(first, ((*w, ops),))
        got.append(
            [_form_terms(small, ((*w, ops),)).sum(axis=0) for ops in triples for w in weights]
        )
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
        _form_terms(small, ((1.0, 1.0, ops),))  # a table first built at the default size
        assert stokes_module._WEIGHTS[((1.0, 1.0, ops),)].shape == (6, 2 * CUTOFF_CAP + 1)
        got = _form_terms(state, ((1.0, 1.0, ops),)).sum(axis=0)
        assert stokes_module._WEIGHTS[((1.0, 1.0, ops),)].shape[1] >= shells
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
        _form_terms(state, ((1.0, 1.0, ops),))
        weights = stokes_module._WEIGHTS[((1.0, 1.0, ops),)]
        for row in (0, 5):
            with pytest.raises(ValueError, match="read-only"):
                weights[row, 0] = 0.0


def test_warm_kernels_build_no_weights(monkeypatch):
    # after warm-up a selector triple is a table lookup and a moment sum,
    # and the closed-form t, computed once per state, builds no hop weights
    state = build_bghz(0.352)
    triples = [(sel,) * 3 for sel in sorted(_SELECTORS)] + MERMIN_TRIPLES
    before = [stokes_expectation(state, ops) for ops in triples]
    t = tensor_t(0.352, state=state).t

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm kernel rebuilt its shell weights")

    monkeypatch.setattr(stokes_module, "_triple_weights", forbidden)
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


@functools.lru_cache(maxsize=None)
def _reference_stack(k):
    # every selector's shell-k reference block, in sorted(_SELECTORS) order
    return np.array([_reference_block(sel, k) for sel in sorted(_SELECTORS)], dtype=complex)


def _reference_values(state):
    """<ops> for all 1000 selector triples from the dense reference blocks,
    indexed by the triple's positions in sorted(_SELECTORS)."""
    shells = {}
    for (q, m), amp in state.amps.items():
        shells.setdefault(q + m, np.zeros(q + m + 1, dtype=complex))[q] = amp
    values = np.zeros((len(_SELECTORS),) * 3)
    for k, vec in shells.items():
        blocks = _reference_stack(k)
        outer = np.outer(vec.conj(), vec)
        values += np.einsum("aij,bij,cij,ij->abc", blocks, blocks, blocks, outer).real
    return values


# Rounding allowances of the bounds below, each a few times the largest seen
# on 200 drawn boxes: |<ops>| reached 1 + 1 ulp, a form's value lay 2 ulps
# of its terms' absolute sum from the fsum of its per-shell terms, and the
# cross check reached 2.8e-17 (1.1e-16 with the per-shell sum)
_UNIT_SLACK = 8 * 2**-52
_FSUM_ULPS = 8
_CROSS_CHECK_BOUND = 4e-16


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(amplitude_boxes(12), st.booleans())
def test_hand_made_boxes_keep_every_bound(entries, symmetric):
    # complex boxes with zeros anywhere, exchange-symmetric or not, 1 to 12
    # photons per mode: every product of selectors is bounded by 1, each
    # value matches the dense reference, a form's value is its per-shell
    # terms summed, and on symmetric boxes the closed form's t is <S1 S1 S1>
    state = diagonal_state(entries, symmetric)
    assume(state is not None and state.cutoff >= 1)
    triples = list(itertools.product(sorted(_SELECTORS), repeat=3))
    got = np.array([stokes_expectation(state, ops) for ops in triples]).reshape((10,) * 3)
    assert np.abs(got).max() <= 1.0 + _UNIT_SLACK
    assert np.abs(got - _reference_values(state)).max() <= 1e-12
    for form in (_MERMIN_FORM, _W1_FORM, _W2_FORM, ((1.0, 1.0, ("S2", "S1", "S1")),)):
        terms = _form_terms(state, form)
        value = stokes_module._form_value(state, form)
        assert value == terms.sum()
        shell_sum = math.fsum(terms.sum(axis=0).tolist())
        assert abs(value - shell_sum) <= _FSUM_ULPS * math.ulp(max(1.0, np.abs(terms).sum()))
    if symmetric:
        assert tensor_t(0.0, state=state).cross_check <= _CROSS_CHECK_BOUND


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
        # the J - 3 Sigma weights: -2 on the diagonal, 4 on the band
        form = ((-2.0, 4.0, (f"S1{suffix}",) * 3),)
        if suffix:
            assert form == _MERMIN_FORM
        got = _form_terms(state, form)
        assert got.shape == (6, 2 * len(state._box) - 1)
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
