"""Resummed coefficients, photon statistics, and bright-state construction."""

import functools
import itertools
import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import brightghz.state as state_module
import brightghz.stokes as stokes_module
from brightghz.nonclassicality import (
    _MERMIN_FORM,
    eta_threshold,
    evaluate_w2,
    find_crossing,
    lossy_mermin_lhs,
    mermin_lhs,
    mermin_sweep,
    per_party_loss_factor,
    witness_w1,
)
from brightghz.oracles import coherent_pk, squeezed_pk
from brightghz.pade import DiagonalResummer, ResummationResult, _fraction
from brightghz.series_core import _record
from brightghz.state import (
    CUTOFF_CAP,
    DEFAULT_POLICY,
    BGHZState,
    NumericPolicy,
    ResummationError,
    build_bghz,
    photon_distribution,
    project_out_vacuum,
    resummed_coefficient,
)
from brightghz.stokes import _form_terms, stokes_expectation, tensor_t
from references import (
    _omitted,
    exact_distribution,
    exact_factor,
    exact_retained_weights,
    to_mpf,
)

# Reference distribution at gain 0.8, k = 0..10, for one, two, and three
# beams; entries carry the precision they were published with.
REFERENCE_PK = {
    1: [0.53, 0.34, 0.11, 0.023, 0.0037, 0.00047, 5e-5, 4.6e-6, 3.7e-7, 2.6e-8, 1.7e-9],
    2: [0.55, 0.24, 0.11, 0.048, 0.021, 0.0093, 0.0041, 0.0018, 0.0008, 0.00035, 0.00016],
    3: [0.60, 0.16, 0.074, 0.040, 0.024, 0.016, 0.011, 0.0087, 0.0066, 0.0052, 0.0042],
}


def _last_digit_unit(ref: float) -> float:
    """One unit in the last digit of ref as conventionally printed."""
    text = repr(ref)
    if "e" in text:
        mantissa, exponent = text.split("e")
        decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
        return 10.0 ** (int(exponent) - decimals)
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 10.0**-decimals


def test_distribution_validation():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        photon_distribution(0, 0.5)
    with pytest.raises(ValueError, match=re.escape("gamma must lie in [0, inf)")):
        photon_distribution(3, -0.1)


@pytest.mark.parametrize("gamma", [-0.1, float("nan"), float("inf"), Decimal("NaN")])
def test_gain_must_be_finite_and_non_negative(gamma):
    with pytest.raises(ValueError, match=re.escape("gamma must lie in [0, inf)")):
        photon_distribution(3, gamma)
    with pytest.raises(ValueError, match=re.escape("gamma must lie in [0, inf)")):
        build_bghz(gamma)
    with pytest.raises(ValueError, match=re.escape("gamma must lie in [0, inf)")):
        resummed_coefficient(3, 2, gamma)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_bool_is_not_a_real(flag):
    # a gain, an efficiency or a tolerance given as a bool is rejected, as a
    # count given as one is, instead of running at 1 or 0
    calls = [
        lambda: build_bghz(flag),
        lambda: photon_distribution(3, flag),
        lambda: resummed_coefficient(3, 2, flag),
        lambda: lossy_mermin_lhs(0.3, flag),
        lambda: per_party_loss_factor(1, 2, flag),
        lambda: NumericPolicy(tol=flag),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


HUGE = 10**400


@pytest.mark.parametrize(
    "call",
    [
        lambda: NumericPolicy(tol=HUGE),
        lambda: NumericPolicy(tol=Fraction(HUGE)),
        lambda: photon_distribution(3, HUGE),
        lambda: build_bghz(Fraction(HUGE)),
        lambda: resummed_coefficient(3, 1, HUGE),
        lambda: per_party_loss_factor(1, 1, HUGE),
        lambda: lossy_mermin_lhs(0.3, HUGE),
        lambda: DiagonalResummer([1.0] * 9).resum(0.5, max_order=4, tol=HUGE),
        lambda: mermin_sweep([HUGE]),
        lambda: find_crossing(lambda x: x, 0.0, -HUGE, 1.0),
    ],
    ids=[
        "policy_tol",
        "policy_tol_fraction",
        "distribution_gain",
        "build_gain_fraction",
        "coefficient_gain",
        "loss_factor_eta",
        "lossy_lhs_eta",
        "resum_tol",
        "sweep_grid",
        "crossing_bracket",
    ],
)
def test_a_real_too_large_for_a_float_fails_its_range_check(call):
    # float() of such an int or Fraction raised OverflowError past every
    # check; its float is now infinite, as a Decimal's is
    with pytest.raises(ValueError, match="finite|must lie in|below the soft level"):
        call()


@pytest.mark.filterwarnings("ignore:gain 1.0 is at or past")
@pytest.mark.parametrize(
    "gamma",
    [np.float32(0.3), np.float64(0.3), 0.3, 0, 1, Fraction(1, 3), np.float32(0.77), Decimal("0.3")],
)
def test_gain_of_any_real_type_is_its_float(gamma):
    # a gain is converted to float once, so every real type gives the
    # numbers of its float and shares its cached values
    g = float(gamma)
    dist = photon_distribution(3, gamma)
    assert type(dist.gamma) is float and dist.gamma == g
    assert dist == photon_distribution(3, g)
    assert resummed_coefficient(3, 2, gamma) == resummed_coefficient(3, 2, g)
    assert build_bghz(gamma) is build_bghz(g)


@pytest.mark.parametrize(
    "fields",
    [
        {"pade_order": 1},
        {"tol": 0.0},
        {"tol": 0.5},
        {"tol": float("inf")},
        {"bits": 32},
        {"cutoff": -1},
    ],
)
def test_policy_rejects_out_of_range_fields(fields):
    with pytest.raises(ValueError):
        NumericPolicy(**fields)


@pytest.mark.parametrize(
    "name, value",
    [
        ("pade_order", 40.0),
        ("pade_order", True),
        ("pade_order", "40"),
        ("pade_order", None),
        ("bits", 256.5),
        ("bits", np.float64(256)),
        ("cutoff", 2.5),
        ("cutoff", True),
        ("cutoff", False),
        ("cutoff", np.bool_(True)),
    ],
)
def test_policy_rejects_non_integer_counts(name, value):
    # the field is named at construction, not met later as a TypeError deep
    # inside the resummation or the float-to-Decimal conversion
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        NumericPolicy(**{name: value})


def test_policy_accepts_integer_counts():
    policy = NumericPolicy(pade_order=np.int64(30), bits=np.int32(128), cutoff=np.int16(4))
    assert policy == NumericPolicy(pade_order=30, bits=128, cutoff=4)
    assert hash(policy) == hash(NumericPolicy(pade_order=30, bits=128, cutoff=4))
    assert all(type(c) is int for c in (policy.pade_order, policy.bits, policy.cutoff))
    assert NumericPolicy(cutoff=None).cutoff is None
    assert build_bghz(0.3, NumericPolicy(cutoff=0)).cutoff == 0


def test_numpy_float_tol_builds_its_float_twin(monkeypatch):
    # a NumPy float tol passed the policy's checks, then every walk raised
    builds = []
    for tol in (np.float32(1e-10), float(np.float32(1e-10))):
        weights = functools.lru_cache(32)(state_module._retained_weights.__wrapped__)
        monkeypatch.setattr(state_module, "_retained_weights", weights)
        monkeypatch.setattr(
            state_module, "_bright_state", functools.cache(state_module._bright_state.__wrapped__)
        )
        builds.append(build_bghz(0.3, NumericPolicy(tol=tol)))
    narrow, twin = builds
    assert narrow.cutoff == twin.cutoff
    assert narrow.amps == twin.amps
    assert np.array_equal(narrow._box, twin._box)
    assert narrow.norm_residual == twin.norm_residual


def test_coefficient_validation():
    with pytest.raises(ValueError):
        resummed_coefficient(0, 0, 0.5)
    with pytest.raises(ValueError):
        resummed_coefficient(1, -1, 0.5)
    with pytest.raises(ValueError):
        resummed_coefficient(1, 0, -0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: photon_distribution(2.5, 0.3), "n must be an integer, got 2.5"),
        (lambda: photon_distribution(True, 0.3), "n must be an integer, got True"),
        (lambda: resummed_coefficient(True, 1, 0.3), "n must be an integer, got True"),
        (lambda: resummed_coefficient(3.0, 1, 0.3), "n must be an integer, got 3.0"),
        (lambda: resummed_coefficient(3, 1.5, 0.3), "k must be an integer, got 1.5"),
        (lambda: resummed_coefficient(3, False, 0.3), "k must be an integer, got False"),
    ],
)
def test_counts_must_be_integers(call, message):
    # named at the call, not met later as a TypeError inside the series
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_POLICY_CALLS = {
    "photon_distribution": lambda policy: photon_distribution(3, 0.3, policy),
    "photon_distribution_past_the_guard": lambda policy: photon_distribution(3, 0.95, policy),
    "build_bghz": lambda policy: build_bghz(0.3, policy),
    "build_bghz_past_the_guard": lambda policy: build_bghz(0.95, policy),
    "resummed_coefficient": lambda policy: resummed_coefficient(3, 1, 0.3, policy),
    "mermin_sweep": lambda policy: mermin_sweep([0.3], policy),
}


@pytest.mark.parametrize("policy", [None, {"bits": 64}, 128, "default"], ids=repr)
@pytest.mark.parametrize("call", sorted(_POLICY_CALLS))
def test_policy_must_be_a_numeric_policy(call, policy):
    # the builders raised AttributeError from inside the ladder; rejected
    # before the guard warning too
    message = f"policy must be a NumericPolicy, got {type(policy).__name__}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=re.escape(message)):
            _POLICY_CALLS[call](policy)


@pytest.mark.parametrize("value", ["x", None, 3, BGHZState], ids=repr)
def test_state_argument_must_be_a_state(value):
    # raised AttributeError from inside (_box)
    name = type(value).__name__
    with pytest.raises(TypeError, match=re.escape(f"state must be a BGHZState, got {name}")):
        project_out_vacuum(value)


@pytest.mark.parametrize(
    "bits", [769, 65537, 2**64, 10**400], ids=lambda bits: f"{len(str(bits))}-digit"
)
def test_bits_past_the_ceiling_are_rejected(bits):
    # 10**400 raised OverflowError ("too many digits in integer") from the
    # walk's first shift, at every gain that walks instead of reading a table,
    # and 65536 bits at order 40 built one state in 634 s
    shown = str(bits) if bits.bit_length() <= 64 else f"an integer of {bits.bit_length()} bits"
    with pytest.raises(ValueError, match=re.escape(f"bits must be <= 768, got {shown}")):
        NumericPolicy(bits=bits)


@pytest.mark.parametrize(
    "fields",
    [{}, {"pade_order": 41}, {"cutoff": CUTOFF_CAP + 1}, {"pade_order": 100, "cutoff": 200}],
    ids=repr,
)
def test_every_policy_takes_bits_up_to_one_ceiling(fields):
    # the ceiling was 768 past order 40 or CUTOFF_CAP and 65536 below them
    assert NumericPolicy(**fields, bits=768).bits == 768
    with pytest.raises(ValueError, match=re.escape("bits must be <= 768, got 769")):
        NumericPolicy(**fields, bits=769)


def test_counts_accept_numpy_integers():
    assert type(photon_distribution(np.int64(3), 0.3).n) is int
    assert resummed_coefficient(np.int64(3), np.int32(2), 0.3) == resummed_coefficient(3, 2, 0.3)


def test_coefficient_at_zero_gain():
    # 1 at k = 0, else 0; every zero part is +0.0, whatever the phase i**k
    for n, k in itertools.product((1, 2, 3), range(8)):
        c = resummed_coefficient(n, k, 0.0)
        assert c == (1.0 if k == 0 else 0.0)
        assert math.copysign(1.0, c.real) == math.copysign(1.0, c.imag) == 1.0


def test_coefficient_matches_coherent_closed_form():
    # |C_k| = exp(-G^2/2) G^k / k!, phase i^k
    for gamma in (0.3, 0.8):
        for k in range(7):
            got = resummed_coefficient(1, k, gamma)
            mag = math.exp(-gamma * gamma / 2) * gamma**k / math.factorial(k)
            want = (1j) ** (k % 4) * mag
            assert got == pytest.approx(want, abs=1e-12)


def test_coefficient_matches_squeezed_closed_form():
    # |C_k| = sech(G) tanh(G)^k / k!, phase i^k
    for gamma in (0.3, 0.8):
        sech = 1.0 / math.cosh(gamma)
        th = math.tanh(gamma)
        for k in range(7):
            got = resummed_coefficient(2, k, gamma)
            want = (1j) ** (k % 4) * (sech * th**k / math.factorial(k))
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,oracle", [(1, coherent_pk), (2, squeezed_pk)])
def test_distribution_matches_closed_forms(n, oracle):
    for gamma in [x / 10 for x in range(1, 9)]:
        dist = photon_distribution(n, gamma)
        for k, p in enumerate(dist.probs):
            assert p == pytest.approx(oracle(gamma, k), abs=1e-6)


@pytest.mark.parametrize("oracle", [coherent_pk, squeezed_pk])
def test_closed_forms_take_only_photon_counts(oracle):
    # the package's count rule: integers, NumPy ones included, but no bool
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            oracle(0.5, k)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        oracle(0.5, -1)
    assert oracle(0.5, np.int64(2)) == oracle(0.5, 2)


def test_coherent_weight_past_the_float_factorial():
    # 171! has no float, so every k >= 171 raised OverflowError; the weight
    # is now its value, 0.0 past underflow
    assert coherent_pk(0.3, 171) == 0.0
    with mp.workprec(256):
        want = float(mp.exp(-16) * mpf(16) ** 171 / mp.factorial(171))
    assert coherent_pk(4.0, 171) == pytest.approx(want, rel=4 * 2**-53)
    assert math.fsum(coherent_pk(4.0, k) for k in range(400)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "gamma,k",
    [(27.0, 729), (30.0, 900), (26.0, 600), (26.7, 713), (38.0, 1000), (40.0, 1600), (0.9, 60)],
)
def test_coherent_weight_past_the_float_exponential(gamma, k):
    # once G^2 passes about 709, G^(2k) / k! has no float near the peak and
    # exp(-G^2) none at all, which raised OverflowError; the two are now
    # scaled together.  The rounding of ln 2 in the scaled exponential costs
    # about G^2 / 3 units in the last place, hence the bound
    lam = gamma * gamma
    with mp.workprec(256):
        want = float(mp.exp(-mpf(lam)) * mpf(lam) ** k / mp.factorial(k))
    assert coherent_pk(gamma, k) == pytest.approx(want, rel=(lam + 4) * 2**-52)


def test_reference_distribution_all_beams():
    for n, column in REFERENCE_PK.items():
        dist = photon_distribution(n, 0.8)
        assert not dist.diverged
        for k, ref in enumerate(column):
            assert abs(dist.probs[k] - ref) <= _last_digit_unit(ref) + 1e-12, (
                f"n={n} k={k}: {dist.probs[k]} vs {ref}"
            )


def test_vacuum_probability_grows_with_beams():
    p0 = [
        photon_distribution(n, 0.8).probs[0]
        for n in (1, 2, 3)
    ]
    assert p0[0] < p0[1] < p0[2]


def test_three_beam_tail_overtakes_two_beam():
    d2 = photon_distribution(2, 0.8)
    d3 = photon_distribution(3, 0.8)
    for k in range(4, 11):
        assert d3.probs[k] > d2.probs[k]


def test_distribution_invariants():
    for n in (1, 2, 3):
        dist = photon_distribution(n, 0.8)
        assert all(0.0 <= p <= 1.0 for p in dist.probs)
        assert sum(dist.probs) + dist.tail_bound == pytest.approx(1.0, abs=1e-9)
        assert dist.cutoff <= CUTOFF_CAP
        # weights decay monotonically past the first excited order
        for k in range(1, dist.cutoff):
            assert dist.probs[k + 1] < dist.probs[k]


def test_poisson_mean():
    dist = photon_distribution(1, 0.5)
    assert dist.mean == pytest.approx(0.25, abs=1e-6)


def test_zero_gain_distribution():
    dist = photon_distribution(3, 0.0)
    assert dist.probs[0] == 1.0
    assert all(p == 0.0 for p in dist.probs[1:])
    assert dist.tail_bound == 0.0


def test_pinned_cutoff_reports_fat_tail():
    dist = photon_distribution(3, 0.8, NumericPolicy(cutoff=5))
    assert dist.cutoff == 5
    assert dist.tail_bound > 0.01
    assert sum(dist.probs) + dist.tail_bound == pytest.approx(1.0, abs=1e-9)


def test_infinite_tail_estimate_marks_divergence():
    # a cutoff of 1 at gain 1.5 retains weights 1 and 2.25 (times e^-2.25):
    # their ratio is at least 1, so the geometric tail estimate, and with it
    # the omitted mass, is infinite; the retained weights are normalized on
    # their own, flagged diverged, without a mean
    dist = photon_distribution(1, 1.5, NumericPolicy(cutoff=1))
    assert dist.tail_bound == math.inf
    assert dist.diverged and dist.mean is None
    assert dist.probs == pytest.approx((4 / 13, 9 / 13), rel=1e-12)
    assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "args",
    [(3, 0.0, NumericPolicy(cutoff=4)), (1, 0.001, NumericPolicy(cutoff=60))],
    ids=["gain_0", "underflow"],
)
def test_zero_weights_do_not_mark_divergence(args):
    # every weight past k = 0 is 0 at gain 0, and the last weights' floats
    # are 0 past underflow at gain 0.001: zeros do not grow, so the
    # distribution is not flagged diverged and keeps its mean
    dist = photon_distribution(*args)
    assert dist.probs[-4:] == (0.0,) * 4
    assert not dist.diverged
    assert dist.mean is not None
    assert dist == exact_distribution(*args)


def test_validity_boundary_warns_and_flags():
    # three-beam statistics and the state warn alike from GAMMA_GUARD on, on
    # the caller's line; fewer beams and lower gains do not warn
    with pytest.warns(RuntimeWarning) as caught:
        dist = photon_distribution(3, 0.95)
        build_bghz(0.95, NumericPolicy(cutoff=6))
    assert dist.diverged
    assert dist.mean is None
    message = "gain 0.95 is at or past the guard 0.9; three-beam statistics may not converge"
    assert [str(w.message) for w in caught] == [message] * 2
    assert {w.filename for w in caught} == {__file__}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        photon_distribution(3, 0.89)
        photon_distribution(2, 1.5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.5, 0.77, 0.85])
@pytest.mark.parametrize("cutoff", [None, 12])
def test_distribution_equals_the_quadratic_loop(n, gamma, cutoff):
    # every retained sum of the exact referee is taken from scratch
    policy = NumericPolicy(cutoff=cutoff)
    assert photon_distribution(n, gamma, policy) == exact_distribution(n, gamma, policy)


def test_pinned_cutoff_tail_is_the_exact_ratio():
    # at gamma = 0.05 the tail past a cutoff of 8 lies far below 2**-53, the
    # grain of a 1 - mass rounded to 53 bits, which set it to 1.11e-16; it is
    # the geometric estimate's exact ratio to the total, rounded once
    policy = NumericPolicy(cutoff=8)
    dist = photon_distribution(3, 0.05, policy)
    assert dist == exact_distribution(3, 0.05, policy)
    assert dist.tail_bound == 1.0978735435731935e-18


def test_three_beam_cutoff_stops_at_the_first_unresolved_order():
    # at the Bell threshold the auto cutoff ends on a ladder that does not
    # settle, not on the tail target or the cap
    dist = photon_distribution(3, 0.77)
    assert dist.cutoff == 32
    with pytest.raises(ResummationError):
        resummed_coefficient(3, 33, 0.77)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_distribution_ignores_global_precision(n):
    default = photon_distribution(n, 0.5)
    for bits in (300, 20):
        with mp.workprec(bits):
            assert photon_distribution(n, 0.5) == default, bits


def test_unresolvable_coefficient_raises():
    with pytest.raises(ResummationError):
        resummed_coefficient(3, 25, 1.2)


def test_soft_acceptance_compares_the_last_two_orders(monkeypatch):
    # a ladder that broke down after two early orders agreed to 1e-3 is
    # not settled: the orders tried last carry no value
    early = ((1, 1.0), (2, 1.0001))
    skipped = tuple((order, None) for order in range(3, 41))
    late = ((39, 1.0), (40, 1.0001))

    class Stub:
        def __init__(self, diagnostics):
            self.diagnostics = diagnostics

        def resum(self, u, max_order, tol, bits):
            pair = state_module._dyadic(1.0001)
            return _record(
                ResummationResult,
                _dyadic=pair,
                converged=False,
                order_used=max_order,
                diagnostics=self.diagnostics,
            )

    for diagnostics, settles in ((early + skipped, False), (skipped[:-2] + late, True)):
        monkeypatch.setattr(state_module, "_resummer", lambda n, k, L: Stub(diagnostics))
        if settles:
            assert abs(resummed_coefficient(3, 2, 0.5)) == pytest.approx(0.25 * 1.0001)
        else:
            with pytest.raises(ResummationError):
                resummed_coefficient(3, 2, 0.5)


def test_state_normalization_and_symmetry():
    state = build_bghz(0.5)
    total = sum(abs(a) ** 2 for a in state.amps.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    for (q, m), amp in state.amps.items():
        assert amp == pytest.approx(state.amps[(m, q)], abs=1e-15)


def test_state_phases_follow_total_occupation():
    state = build_bghz(0.5)
    for (q, m), amp in state.amps.items():
        if abs(amp) < 1e-12:
            continue
        # amplitude sits on the i^(q+m) ray
        rotated = amp * (-1j) ** ((q + m) % 4)
        assert abs(rotated.imag) < 1e-12 * abs(amp)
        assert rotated.real > 0


def test_state_small_gain_matches_leading_order():
    gamma = 0.05
    state = build_bghz(gamma)
    # leading amplitudes: 1, i*G, i*G, -G^2 up to O(G^2) corrections
    assert abs(state.amps[(0, 0)]) == pytest.approx(1.0, abs=5 * gamma**2)
    assert abs(state.amps[(1, 0)]) == pytest.approx(gamma, abs=5 * gamma**3)
    assert abs(state.amps[(1, 1)]) == pytest.approx(gamma**2, rel=0.05)


def test_state_zero_gain_is_vacuum():
    # gain 0 climbs the same photon ladder as any other gain: all the
    # amplitude sits in the vacuum, the box is cutoff + 1 on a side, and the
    # cutoff is the photon statistics', auto or pinned
    for policy in (DEFAULT_POLICY, NumericPolicy(cutoff=0), NumericPolicy(cutoff=5)):
        state = build_bghz(0.0, policy)
        assert abs(state.amps[0, 0]) == 1.0
        assert all(a == 0 for qm, a in state.amps.items() if qm != (0, 0))
        assert state._box.shape == (state.cutoff + 1,) * 2
        assert state.cutoff == photon_distribution(3, 0.0, policy).cutoff
        assert state.cutoff == (1 if policy.cutoff is None else policy.cutoff)
        assert mermin_lhs(0.0, policy) == 2.0
    assert build_bghz(0.0).cutoff == build_bghz(1e-9).cutoff


def test_state_guard_warns():
    with pytest.warns(RuntimeWarning):
        build_bghz(0.95, NumericPolicy(cutoff=6))


def test_norm_residual_tracks_truncation():
    assert build_bghz(0.3).norm_residual < 1e-8
    with pytest.warns(RuntimeWarning):
        heavy = build_bghz(0.92, NumericPolicy(cutoff=20))
    assert heavy.norm_residual > 1e-3


def test_vacuum_projection():
    state = build_bghz(0.4)
    projected = project_out_vacuum(state)
    assert projected.vacuum_projected
    assert (0, 0) not in projected.amps
    total = sum(abs(a) ** 2 for a in projected.amps.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    # relative weights of surviving components are untouched
    ratio = abs(projected.amps[(1, 0)]) / abs(state.amps[(1, 0)])
    for qm, amp in projected.amps.items():
        assert abs(amp) / abs(state.amps[qm]) == pytest.approx(ratio, rel=1e-12)


def test_vacuum_projection_needs_support():
    with pytest.raises(ValueError):
        project_out_vacuum(build_bghz(0.0))


def test_pinned_cutoff_weights_are_the_auto_ones(monkeypatch):
    # resummed values do not depend on the cutoff: a pinned build, which
    # walks its own ladders, retains the leading weights and signs of the
    # auto-cutoff build at the same gain, bit for bit
    weights = functools.lru_cache(32)(state_module._retained_weights.__wrapped__)
    monkeypatch.setattr(state_module, "_retained_weights", weights)
    monkeypatch.setattr(
        state_module, "_bright_state", functools.cache(state_module._bright_state.__wrapped__)
    )
    auto = build_bghz(0.3)
    calls = _count_resums(monkeypatch)
    pinned = build_bghz(0.3, NumericPolicy(cutoff=4))
    assert len(calls) == 5
    assert pinned.cutoff == 4 < auto.cutoff
    w, signs, _, _ = weights(3, 0.3, DEFAULT_POLICY)
    assert weights(3, 0.3, NumericPolicy(cutoff=4))[:2] == (w[:5], signs[:5])


def test_failed_ladder_is_cached(monkeypatch):
    # At gain 0.59 the auto cutoff stops on the unresolvable k = 41; a
    # warm rebuild reuses the built state instead of walking again, and a
    # repeated failure walks again to an equal error.
    first = build_bghz(0.59)
    with pytest.raises(ResummationError) as err:
        resummed_coefficient(3, first.cutoff + 1, 0.59)
    assert err.value.order_reached == DEFAULT_POLICY.pade_order
    calls = _count_resums(monkeypatch)
    second = build_bghz(0.59)
    assert calls == []
    assert second.cutoff == first.cutoff
    with pytest.raises(ResummationError) as again:
        resummed_coefficient(3, first.cutoff + 1, 0.59)
    assert len(calls) == 1
    assert again.value is not err.value
    assert str(again.value) == str(err.value)
    assert again.value.order_reached == err.value.order_reached


def test_cutoff_cache_is_bounded(monkeypatch):
    # the per-gain memos of the state and of the retained weights, which
    # hold the auto cutoff, keep to 32 entries each, and a gain evicted from
    # both on the way walks its ladders again to the same cutoff and box
    assert state_module._bright_state.cache_info().maxsize == 32
    assert state_module._retained_weights.cache_info().maxsize == 32
    bright = functools.lru_cache(maxsize=4)(state_module._bright_state.__wrapped__)
    weights = functools.lru_cache(maxsize=4)(state_module._retained_weights.__wrapped__)
    monkeypatch.setattr(state_module, "_bright_state", bright)
    monkeypatch.setattr(state_module, "_retained_weights", weights)
    first = build_bghz(0.1)
    for i in range(8):
        build_bghz(0.11 + 0.01 * i)
        assert bright.cache_info().currsize <= 4
        assert weights.cache_info().currsize <= 4
    assert bright.cache_info().currsize == weights.cache_info().currsize == 4
    misses = bright.cache_info().misses, weights.cache_info().misses
    calls = _count_resums(monkeypatch)
    again = build_bghz(0.1)
    assert bright.cache_info().misses == misses[0] + 1  # 0.1 was evicted
    assert weights.cache_info().misses == misses[1] + 1
    assert len(calls) == first.cutoff + 1
    assert again is not first
    assert again.cutoff == first.cutoff
    assert np.array_equal(again._box, first._box)


def _count_resums(monkeypatch) -> list:
    """From here on, the points of every DiagonalResummer.resum call."""
    calls = []
    resum = DiagonalResummer.resum

    def counted(self, *args, **kwargs):
        calls.append(args)
        return resum(self, *args, **kwargs)

    monkeypatch.setattr(DiagonalResummer, "resum", counted)
    return calls


def test_repeated_statistics_walk_no_ladder(monkeypatch):
    # table1's repeat: the distributions for one, two and three beams at one
    # gain, asked for again, and a cold state build after them, read the
    # memoized weights and walk no ladder
    gamma = 0.8
    weights = functools.lru_cache(32)(state_module._retained_weights.__wrapped__)
    monkeypatch.setattr(state_module, "_retained_weights", weights)
    monkeypatch.setattr(
        state_module, "_bright_state", functools.cache(state_module._bright_state.__wrapped__)
    )
    calls = _count_resums(monkeypatch)
    first = [photon_distribution(n, gamma) for n in (1, 2, 3)]
    assert calls
    calls.clear()
    assert [photon_distribution(n, gamma) for n in (1, 2, 3)] == first
    state = build_bghz(gamma)
    assert calls == []
    assert state.cutoff == first[2].cutoff


def test_warm_state_equals_cold_state(monkeypatch):
    build_bghz(0.563)
    hits = state_module._bright_state.cache_info().hits
    warm = build_bghz(0.563)
    assert state_module._bright_state.cache_info().hits == hits + 1
    weights = functools.lru_cache(32)(state_module._retained_weights.__wrapped__)
    monkeypatch.setattr(state_module, "_retained_weights", weights)
    monkeypatch.setattr(
        state_module, "_bright_state", functools.cache(state_module._bright_state.__wrapped__)
    )
    cold = build_bghz(0.563)
    assert warm is not cold
    assert warm.cutoff == cold.cutoff
    assert warm.amps == cold.amps
    assert np.array_equal(warm._box, cold._box)
    assert warm.norm_residual == cold.norm_residual


def test_warm_build_does_no_working_precision_work(monkeypatch):
    # a warm build is one memo lookup that returns the same frozen state: no
    # series value is read and no photon ladder is climbed, with the auto
    # cutoff and with a pinned one, which keep separate entries
    gamma = 0.352
    bright = functools.cache(state_module._bright_state.__wrapped__)
    monkeypatch.setattr(state_module, "_bright_state", bright)
    policies = {cutoff: NumericPolicy(cutoff=cutoff) for cutoff in (None, 12)}
    cold = {cutoff: build_bghz(gamma, policy) for cutoff, policy in policies.items()}
    assert cold[None].cutoff == CUTOFF_CAP and cold[12].cutoff == 12
    assert bright.cache_info().currsize == len(policies)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm build did working-precision work")

    monkeypatch.setattr(state_module, "_series_value", forbidden)
    monkeypatch.setattr(state_module, "_retained_weights", forbidden)
    for cutoff, policy in policies.items():
        warm = build_bghz(gamma, policy)
        assert warm is cold[cutoff]
        assert warm.cutoff == cold[cutoff].cutoff
    assert bright.cache_info().hits == len(policies)
    for state in cold.values():
        with pytest.raises(ValueError, match="read-only"):
            state._box[0, 0] = 0.0


def test_amplitudes_pin_the_per_pair_formula():
    # each amplitude is the float outer product of the two normalized factor
    # magnitudes, each rounded to a float once: three roundings against the
    # one of the working-precision pair product, so within 2**-51 relative
    # of it; the amplitudes run in q-major order, and the box is symmetric
    # bit for bit
    gamma, policy = 0.352, DEFAULT_POLICY
    state = build_bghz(gamma, policy)
    assert state.cutoff == CUTOFF_CAP
    size = state.cutoff + 1
    assert list(state.amps) == [(q, m) for q in range(size) for m in range(size)]
    assert np.array_equal(state._box, state._box.T)
    with mp.workprec(policy.bits):
        values = [
            to_mpf(state_module._series_value(3, q, gamma, policy))
            for q in range(state.cutoff + 1)
        ]
        mags = [
            abs(s) * mpf(gamma) ** q * mpf(math.factorial(q)) ** mpf(1.5)
            for q, s in enumerate(values)
        ]
        root = sum(x * x for x in mags) ** 0.5
        for (q, m), amp in state.amps.items():
            sign = (1 if values[q] >= 0 else -1) * (1 if values[m] >= 0 else -1)
            pair = 1j ** ((q + m) % 4) * (sign * float(mags[q] / root * (mags[m] / root)))
            assert abs(amp - pair) <= 2.0**-51 * abs(pair), (q, m)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.352, 0.563])
@pytest.mark.parametrize("cutoff", [None, 12])
def test_handed_box_is_the_rank_one_box_of_the_amplitudes(gamma, cutoff):
    # build_bghz hands the state its box; the box built from the state's own
    # amps is the same array, and A[q, m] = u_q u_m makes it rank one
    state = build_bghz(gamma, NumericPolicy(cutoff=cutoff))
    assert "_box" in vars(state)
    rebuilt = BGHZState(
        gamma=state.gamma,
        cutoff=state.cutoff,
        amps=state.amps,
        norm_residual=state.norm_residual,
    )
    box = state._box
    assert np.array_equal(box, rebuilt._box)
    minors = box * box[0, 0] - np.outer(box[:, 0], box[0, :])
    assert np.abs(minors).max() <= 1e-15


def test_amps_view_reads_the_box():
    # a built state's amps is a read-only mapping over its box: q-major keys,
    # one per box entry, values complex(box[q, m]), equal to the dict of the
    # same items, and a KeyError for any key outside the box
    state = build_bghz(0.3, NumericPolicy(cutoff=4))
    box = state._box
    side = len(box)
    keys = [(q, m) for q in range(side) for m in range(side)]
    assert list(state.amps) == keys
    assert len(state.amps) == box.size == side * side
    items = {qm: complex(box[qm]) for qm in keys}
    assert state.amps == items and items == state.amps
    assert state.amps != {**items, (0, 0): 0j}
    assert all(type(a) is complex for a in state.amps.values())
    bad_keys = [(-1, 0), (0, -1), (1, -1), (-1, side + 1), (side, 0), (0, side), (0.5, 1)]
    for bad in bad_keys + [(1,), (1, 2, 3), "ab", None]:
        with pytest.raises(KeyError):
            state.amps[bad]
        assert bad not in state.amps
    with pytest.raises(TypeError):
        state.amps[(0, 0)] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        box[0, 0] = 1.0
    rebuilt = BGHZState(
        gamma=state.gamma, cutoff=state.cutoff, amps=state.amps, norm_residual=state.norm_residual
    )
    assert np.array_equal(rebuilt._box, box)
    assert rebuilt == state


def test_projected_state_is_read_off_a_scaled_box():
    # the projected box is the zeroed-vacuum copy scaled by the inverse root
    # of the correctly rounded sum of the squared magnitudes, bit for bit,
    # and its amps leave out (0, 0)
    state = build_bghz(0.352)
    projected = project_out_vacuum(state)
    rest = {qm: a for qm, a in state.amps.items() if qm != (0, 0)}
    scale = math.fsum(abs(a) * abs(a) for a in rest.values()) ** -0.5
    assert projected.amps == {qm: a * scale for qm, a in rest.items()}
    assert list(projected.amps) == list(rest)
    assert len(projected.amps) == state._box.size - 1
    assert projected._box[0, 0] == 0 and projected._box.shape == state._box.shape
    with pytest.raises(KeyError):
        projected.amps[(0, 0)]
    assert state._box[0, 0] != 0 and (0, 0) in state.amps  # the source keeps its vacuum


def test_projection_total_is_correctly_rounded():
    # past the vacuum the squared magnitudes are 1, 1e-16 and 1e-16: added
    # left to right (builtin sum before Python 3.12) the small ones vanish
    # against 1, but together they move the total by one unit in the last place
    tiny = 1e-8
    squares = [1.0, tiny * tiny, tiny * tiny]
    assert (squares[0] + squares[1]) + squares[2] != math.fsum(squares)
    state = BGHZState(
        gamma=0.1,
        cutoff=1,
        amps={(0, 0): 0.5, (0, 1): 1.0, (1, 0): tiny, (1, 1): tiny},
        norm_residual=0.0,
    )
    projected = project_out_vacuum(state)
    assert projected._box[0, 1] == math.fsum(squares) ** -0.5


def test_warm_build_reuses_the_shell_moments(monkeypatch):
    # the memo keeps the state with the read-only moments of its box, binned
    # when it was built; a warm build returns that state without binning again
    gamma = 0.352
    monkeypatch.setattr(
        state_module, "_bright_state", functools.cache(state_module._bright_state.__wrapped__)
    )
    cold = build_bghz(gamma)
    assert "_moments" in vars(cold)
    cold_moments = cold._moments

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm build binned its box by shell")

    monkeypatch.setattr(state_module.np, "bincount", forbidden)
    warm = build_bghz(gamma)
    assert warm is cold
    assert warm._moments is cold_moments
    with pytest.raises(ValueError, match="read-only"):
        warm._moments[0, 0] = 0.0


# Properties of the photon ladder over a small pool of gains up to 0.85 and
# cheap policies, auto and pinned cutoffs; the pool is small so the
# resummers and the memoized weights are shared across examples and tests.
LADDER_GAINS = (0.05, 0.2, 0.352, 0.5, 0.63, 0.77, 0.85)
ladder_policies = st.builds(
    NumericPolicy,
    pade_order=st.sampled_from((20, 30, 40)),
    cutoff=st.none() | st.integers(0, 12),
)


def _magnitude_formula_factor(gamma, policy, cutoff):
    """build_bghz's factor and norm residual as they were computed before
    the factor was read off the weights: |s_q| gamma^q (q!)^1.5, normalized
    at working precision."""
    with mp.workprec(policy.bits):
        values = [
            to_mpf(state_module._series_value(3, q, gamma, policy)) for q in range(cutoff + 1)
        ]
        mags = [
            abs(s) * mpf(gamma) ** q * mpf(math.factorial(q)) ** mpf(1.5)
            for q, s in enumerate(values)
        ]
        col = sum(m * m for m in mags)
        root = col**0.5
        factor = np.array(
            [
                (1j) ** (q % 4) * ((1 if s >= 0 else -1) * float(m / root))
                for q, (s, m) in enumerate(zip(values, mags))
            ]
        )
        return factor, float(abs(1 - col * col))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(LADDER_GAINS), ladder_policies)
def test_factor_is_the_square_root_of_the_weights(gamma, policy):
    # the box, the outer product of the factor read off the retained
    # weights, equals that of the magnitude formula bit for bit, and an auto
    # cutoff is the three-beam distribution's
    state = build_bghz(gamma, policy)
    hits = state_module._bright_state.cache_info().hits
    assert build_bghz(gamma, policy) is state
    assert state_module._bright_state.cache_info().hits == hits + 1
    cutoff = state.cutoff
    if policy.cutoff is None:
        assert cutoff == photon_distribution(3, gamma, policy).cutoff
    else:
        assert cutoff == policy.cutoff
    want, want_residual = _magnitude_formula_factor(gamma, policy, cutoff)
    assert state._box.tobytes() == np.outer(want, want).tobytes()
    assert state.norm_residual == want_residual


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(LADDER_GAINS), ladder_policies)
def test_statistics_and_state_equal_the_mpmath_chain(gamma, policy):
    # the integer arithmetic gives what the exact referee gives, each float
    # correctly rounded from Fractions: the distributions field for field,
    # and the state's cutoff, box bytes and norm residual
    for n in (1, 2, 3):
        assert photon_distribution(n, gamma, policy) == exact_distribution(n, gamma, policy)
    state = build_bghz(gamma, policy)
    factor, norm_residual = exact_factor(gamma, policy)
    assert state.cutoff == len(factor) - 1
    assert state._box.tobytes() == np.outer(factor, factor).tobytes()
    assert state.norm_residual == norm_residual


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((1, 2, 3)), st.sampled_from(LADDER_GAINS), ladder_policies)
def test_distribution_splits_unit_probability(n, gamma, policy):
    dist = photon_distribution(n, gamma, policy)
    assert min(dist.probs) >= 0.0
    if math.isinf(dist.tail_bound):
        # no finite tail: the retained weights are normalized on their own
        assert dist.diverged
        assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12
    else:
        assert abs(math.fsum(dist.probs) + dist.tail_bound - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(LADDER_GAINS), ladder_policies)
def test_mermin_terms_are_bounded_by_the_shell_masses(gamma, policy):
    # every primed selector is bounded by 1 on a photon shell, so the Mermin
    # operator's norm is at most 4 there: |m_k| <= 4 p_k
    state = build_bghz(gamma, policy)
    terms = _form_terms(state, _MERMIN_FORM).sum(axis=0)
    masses = _form_terms(state, ((1.0, 1.0, ("I", "I", "I")),)).sum(axis=0)
    assert len(terms) == len(masses) == 2 * state.cutoff + 1
    assert np.all(masses >= 0.0)
    assert np.all(np.abs(terms) <= 4.0 * masses)


# The bounds at gains drawn from the whole range below the guard, each a
# cold build at the default policy; the tests above share the pool of
# LADDER_GAINS, where non-default policies stay warm.
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 0.9, exclude_min=True, exclude_max=True))
@example(math.nextafter(0.9, 0.0))  # the last gain below the guard: diverged, tail finite
def test_bounds_hold_at_random_gains(gamma):
    for n in (1, 2, 3):
        dist = photon_distribution(n, gamma)
        assert min(dist.probs) >= 0.0
        if math.isinf(dist.tail_bound):
            assert dist.diverged
            assert abs(math.fsum(dist.probs) - 1.0) <= 2 * math.ulp(1.0)
        else:
            assert abs(math.fsum((*dist.probs, dist.tail_bound)) - 1.0) <= 2 * math.ulp(1.0)
    state = build_bghz(gamma)
    terms = _form_terms(state, _MERMIN_FORM).sum(axis=0)
    masses = _form_terms(state, ((1.0, 1.0, ("I", "I", "I")),)).sum(axis=0)
    assert np.all(np.abs(terms) <= 4.0 * masses)
    assert lossy_mermin_lhs(gamma, 1.0) == mermin_lhs(gamma)
    # the GHZ sign pattern, T_111 = -T_122 = -T_212 = -T_221 = t and every
    # other element 0, is the state's, not only tensor_t's bookkeeping
    tensor = tensor_t(gamma)
    assert tensor.cross_check <= 1e-8
    for index in itertools.product((1, 2, 3), repeat=3):
        sign = {(1, 1, 1): 1.0, (1, 2, 2): -1.0, (2, 1, 2): -1.0, (2, 2, 1): -1.0}.get(index, 0.0)
        assert tensor.elements[index] == sign * tensor.t
        ops = tuple(f"S{i}" for i in index)
        assert stokes_expectation(state, ops) == pytest.approx(sign * tensor.t, abs=1e-8)


def _outcome(call):
    """call()'s result as bits (float hex, array bytes, a float's repr, which
    round-trips), or its ResummationError or ValueError."""
    try:
        got = call()
    except ResummationError as err:
        return "error", str(err), err.order_reached
    except ValueError as err:  # projecting a state that holds vacuum only
        return "error", str(err)
    if isinstance(got, BGHZState):
        return got.cutoff, got.norm_residual.hex(), got._box.tobytes(), got._moments.tobytes()
    if not hasattr(got, "probs"):
        return repr(got)
    mean = None if got.mean is None else got.mean.hex()
    probs = tuple(p.hex() for p in got.probs)
    return got.n, got.gamma.hex(), probs, got.tail_bound.hex(), mean, got.diverged


# A kernel at (gamma, policy) as a run calls it, building the state through
# the memos and projecting through the state's own memo; cold, on a state
# built by the patched builders and projected by hand (project_out_vacuum),
# so that a projection memo keyed by less than its state shows.
def _kernel(name, gamma, policy, eta, cold=False):
    state, projected = None, name.endswith("projected")
    if cold:
        state = build_bghz(gamma, policy)
        if projected:
            state, projected = project_out_vacuum(state), False
    if name.startswith("w1"):
        return witness_w1(gamma, projected, policy, state)
    if name.startswith("w2"):
        return evaluate_w2(gamma, projected, policy, state)
    if name == "stokes":
        state = build_bghz(gamma, policy) if state is None else state
        return stokes_expectation(state, ("S1p", "S2", "S3"))
    kernel = {"mermin": mermin_lhs, "tensor": tensor_t, "eta": eta_threshold}.get(name)
    return kernel(gamma, policy, state) if kernel else lossy_mermin_lhs(gamma, eta, policy, state)


_KERNELS = (
    "mermin", "lossy", "eta", "w1", "w1 projected", "w2", "w2 projected", "tensor", "stokes"
)


def _clear_lossy(gamma, policy):
    """Drop the lossy polynomial kept on the memoized state at (gamma, policy), if any."""
    try:
        vars(build_bghz(gamma, policy)).pop("_lossy_lhs", None)
    except ResummationError:
        pass


@st.composite
def _memo_runs(draw):
    """A few gains up to 0.5 and cheap policies, some differing only in the
    cutoff, and a run of calls on them: statistics, builds and kernels."""
    gains = draw(st.lists(st.floats(0, 0.5), min_size=1, max_size=3))
    orders = draw(st.lists(st.sampled_from((20, 30, 40)), min_size=1, max_size=2, unique=True))
    cutoffs = draw(st.lists(st.none() | st.integers(0, 12), min_size=1, max_size=3, unique=True))
    policies = [NumericPolicy(pade_order=o, cutoff=c) for o in orders for c in cutoffs]
    point = st.tuples(st.sampled_from(gains), st.sampled_from(policies))
    call = st.one_of(
        st.tuples(st.sampled_from((1, 2, 3)), point),
        st.tuples(st.just("build"), point),
        st.tuples(st.sampled_from(_KERNELS), st.tuples(point, st.floats(0, 1))),
        st.tuples(
            st.sampled_from(("clear weights", "clear states", "clear forms", "clear geometry")),
            st.none(),
        ),
        st.tuples(st.just("clear lossy"), point),
    )
    return draw(st.lists(call, min_size=4, max_size=12))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_memo_runs())
def test_memos_give_what_cold_calls_give(run):
    # distributions, builds and the Bell, loss, witness and Stokes kernels
    # interleaved with clears of the two state memos, of the Stokes form
    # weights, of the box geometry and of a state's lossy polynomial: each
    # result equals, bit for bit, the one computed with no memo
    weights, bright = state_module._retained_weights, state_module._bright_state
    memos = {"clear weights": weights.cache_clear, "clear states": bright.cache_clear}
    memos["clear forms"] = stokes_module._WEIGHTS.clear
    memos["clear geometry"] = state_module._GEOMETRY.clear
    cold = {"_retained_weights": weights.__wrapped__, "_bright_state": bright.__wrapped__}
    for clear in memos.values():
        clear()
    for what, point in run:
        if what in memos:
            memos[what]()
            continue
        if what == "clear lossy":
            _clear_lossy(*point)
            continue
        if what == "build":
            call = cold_call = functools.partial(build_bghz, *point)
        elif what in _KERNELS:
            (gamma, policy), eta = point
            call = functools.partial(_kernel, what, gamma, policy, eta)
            cold_call = functools.partial(call, cold=True)
        else:
            call = cold_call = functools.partial(photon_distribution, what, *point)
        got = _outcome(call)
        with mock.patch.multiple(state_module, **cold, _GEOMETRY=[]), mock.patch.object(
            stokes_module, "_WEIGHTS", {}
        ):
            assert got == _outcome(cold_call), (what, point)


# The box geometry as each formula built it inline before it was tabled:
# the shell moments, the closed-form t and the vacuum projection.
def _inline_moments(box):
    q = np.arange(len(box))
    shells = 2 * len(box) - 1
    k = np.add.outer(q, q)
    mass = (box.real**2 + box.imag**2).ravel()
    powers = np.subtract.outer(q, q).ravel() ** np.arange(4)[:, None]
    rows = [np.bincount(k.ravel(), w, shells) for w in powers * mass]
    band = (box[:-1, 1:].conj() * np.sqrt(np.outer(q[1:], q[1:]) ** 3) * box[1:, :-1]).ravel()
    on = k[:-1, 1:].ravel()
    rows += [np.bincount(on, band.real, shells), np.bincount(on, band.imag, shells)]
    return np.array(rows)


def _inline_closed_form_t(box):
    q = np.arange(1, len(box))
    weight = np.sqrt(np.outer(q, q) ** 3) / np.add.outer(q - 1, q) ** 3
    direct = (box[:-1, 1:].conj() * box[1:, :-1]).real
    transposed = (box.T[1:, :-1].conj() * box[:-1, 1:]).real
    return float((weight * (direct + transposed)).sum())


def _inline_projected(box):
    box = box.copy()
    box[0, 0] = 0.0
    return box * math.fsum((np.abs(box) ** 2).ravel().tolist()) ** -0.5


def _geometry_states():
    """Built states of sides 61 (the cutoff cap), 6 and 41, the loss_scan
    band gains, and a dense hand-made box of side 81, past the cap."""
    states = {g: build_bghz(g) for g in (0.352, 0.075, 0.58)}
    draw = np.random.default_rng(81)
    box = draw.normal(size=(81, 81)) + 1j * draw.normal(size=(81, 81))
    box /= np.sqrt((np.abs(box) ** 2).sum())
    amps = {(q, m): complex(box[q, m]) for q in range(81) for m in range(81)}
    hand = BGHZState(gamma=0.0, cutoff=80, amps=amps, norm_residual=0.0)
    return [states[0.352], states[0.075], hand, states[0.58]]


def test_box_geometry_does_not_depend_on_the_order_of_sides(monkeypatch):
    # sides 61, 6, 81 and 41 in that order and in shuffled orders, each from
    # an empty geometry table: every state's moments, closed-form t and
    # vacuum-projected twin equal, bit for bit, the inline formulas', and the
    # table never holds more than the largest side seen
    states = _geometry_states()
    assert [len(s._box) for s in states] == [61, 6, 81, 41]
    orders = [states] + [random.Random(seed).sample(states, len(states)) for seed in range(5)]
    for order in orders:
        monkeypatch.setattr(state_module, "_GEOMETRY", [])
        largest = 0
        for built in order:
            state = BGHZState._from_box(
                built.gamma, built.cutoff, built._box.copy(), built.norm_residual
            )
            box = state._box
            twin = state._vacuum_projected
            assert twin._box.tobytes() == _inline_projected(box).tobytes()
            assert state._moments.tobytes() == _inline_moments(box).tobytes()
            assert twin._moments.tobytes() == _inline_moments(twin._box).tobytes()
            assert state._closed_form_t.hex() == _inline_closed_form_t(box).hex()
            largest = max(largest, len(box))
            shell, powers, ladder, weight = state_module._GEOMETRY
            assert shell.shape == powers.shape[1:] == (largest, largest)
            assert ladder.shape == weight.shape == (largest - 1, largest - 1)


# The cutoff loop carries its mass and forms one tail per k; its weights,
# signs, mass and tail equal those of the referee's loop, which takes every
# sum from scratch in Fractions, exactly.  Orders below 40 read no shipped
# table, so those draws run qd.
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    gamma=st.floats(0.0, 0.9, exclude_min=True, exclude_max=True),
    order=st.integers(20, 40),
)
def test_screened_cutoff_loop_equals_the_exact_one(n, gamma, order):
    policy = NumericPolicy(pade_order=order)
    w, signs, mass, tail = state_module._retained_weights.__wrapped__(n, gamma, policy)
    got = (
        tuple(_fraction(*x) for x in w),
        signs,
        _fraction(*mass),
        math.inf if tail is None else _fraction(*tail[:2]) / tail[2],
    )
    assert got == exact_retained_weights(n, gamma, policy)


# Dyadic weights (m, e) below 2**-d, or small mantissas at exponents near 0,
# a mantissa of 0 among them; the cutoff loop sums the mass from (0, 0).
_weight = st.one_of(
    st.builds(
        lambda m, d: (m, -m.bit_length() - d), st.integers(0, 2**70), st.integers(0, 40)
    ),
    st.tuples(st.integers(0, 7), st.integers(-3, 0)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_weight, min_size=1, max_size=6))
@example([(1, -1)])  # one weight
@example([(3, -1)])  # one weight past 1: the shortfall is negative, the tail 0
@example([(1, -1), (1, -2), (0, 0)])  # a last weight of 0
@example([(1, 0), (1, -1), (0, -5)])  # a last weight of 0 past a mass of 1
@example([(1, -2), (1, -2)])  # w_K = w_{K-1}: no finite tail
@example([(1, -3), (3, -3)])  # w_K > w_{K-1}
@example([(1, -1), (1, -40)])  # the shortfall is the larger estimate
@example([(1, -1), (1, -2), (1, -3)])  # the geometric one is, on a mass of 7/8
@example([(1, -2), (3, -4)])  # w_{K-1} at the higher exponent, G the larger
@example([(3, -3), (1, -2)])  # w_K at the higher exponent: no finite tail
@example([(1, 0), (1, -1)])  # a mass exponent of -1
def test_omitted_mass_and_cutoff_test_are_exact(w):
    # _omitted_mass is the referee's omitted mass, the larger of the
    # geometric estimate and the shortfall, exactly, and _settled is the
    # test tail < TAIL_TARGET (mass + tail) on Fractions
    mass = state_module._sum((0, 0), *w)
    exact = [_fraction(*x) for x in w]
    want = _omitted(exact)
    tail = state_module._omitted_mass(w, mass)
    if want == math.inf:
        assert tail is None
        return
    m, e, q = tail
    assert q > 0
    assert _fraction(m, e) / q == want
    target = Fraction(state_module.TAIL_TARGET)
    assert state_module._settled(tail, mass) == (want < target * (sum(exact) + want))


@pytest.mark.parametrize("mass", [(1, 0), (3, -2), (2**300 - 1, -300), (5, 40)])
def test_cutoff_test_is_strict_at_the_target(mass):
    # a tail of exactly TAIL_TARGET (mass + tail) is not settled; one just
    # below it is
    a, b = state_module.TAIL_TARGET.as_integer_ratio()
    n, f = mass
    assert not state_module._settled((a * n, f, b - a), mass)
    assert state_module._settled((a * n - 1, f, b - a), mass)
    assert state_module._settled((a * n * 2**64 - 1, f - 64, b - a), mass)
    assert not state_module._settled((a * n * 2**64, f - 64, b - a), mass)
