"""Mermin-like inequality, detector loss, thresholds, and witnesses."""

import cmath
import itertools
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brightghz import nonclassicality
from brightghz import state as state_module
from brightghz import stokes as stokes_module
from brightghz.nonclassicality import (
    _MERMIN_FORM,
    SweepResult,
    eta_threshold,
    eta_threshold_sweep,
    evaluate_mermin,
    evaluate_w2,
    find_crossing,
    gamma_threshold,
    lossy_mermin_lhs,
    mermin_lhs,
    mermin_sweep,
    per_party_loss_factor,
    witness_sweep,
    witness_w1,
    witness_w2,
)
from brightghz.state import BGHZState, NumericPolicy, build_bghz, project_out_vacuum
from brightghz.stokes import _form_terms, stokes_expectation, tensor_t
from references import (
    amplitude_boxes,
    dense_expectation,
    diagonal_state,
    random_product_state,
    reference_block,
)


def test_loss_factor_hand_values():
    # one a-photon: click answers +1 with probability eta, no click -1
    for eta in (0.0, 0.3, 0.79, 1.0):
        assert per_party_loss_factor(1, 0, eta) == pytest.approx(2 * eta - 1)
        # one b-photon: click and no-click both answer -1, so loss is moot
        assert per_party_loss_factor(0, 1, eta) == pytest.approx(-1.0)
    assert per_party_loss_factor(0, 0, 0.5) == -1.0


def test_loss_factor_limits():
    for ka, kb in [(0, 0), (1, 2), (4, 0), (3, 3)]:
        # perfect detection reproduces the primed eigenvalues
        want = (ka - kb) / (ka + kb) if ka + kb else -1.0
        assert per_party_loss_factor(ka, kb, 1.0) == pytest.approx(want)
        # losing every photon answers -1
        assert per_party_loss_factor(ka, kb, 0.0) == pytest.approx(-1.0)


def test_loss_factor_bounded():
    for eta in np.linspace(0.0, 1.0, 9):
        for ka in range(6):
            for kb in range(6):
                value = per_party_loss_factor(ka, kb, float(eta))
                assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_loss_factor_validation():
    with pytest.raises(ValueError, match="k_a must be >= 0, got -1"):
        per_party_loss_factor(-1, 0, 0.5)
    with pytest.raises(ValueError, match="k_a must be an integer"):
        per_party_loss_factor(1.5, 0, 0.5)
    with pytest.raises(ValueError, match="k_b must be an integer"):
        per_party_loss_factor(2, 1.0, 0.5)
    with pytest.raises(ValueError, match="k_a must be an integer, got True"):
        per_party_loss_factor(True, 0, 0.5)
    with pytest.raises(ValueError, match="k_b must be an integer, got False"):
        per_party_loss_factor(1, False, 0.5)
    with pytest.raises(ValueError):
        per_party_loss_factor(0, 0, 1.5)


def _thinned_response_table(eta, kmax):
    """L[k_a, k_b] = B V B^T: the primed response V averaged over binomial thinning B."""
    dim = kmax + 1
    B = np.zeros((dim, dim))
    for k in range(dim):
        for j in range(k + 1):
            B[k, j] = math.comb(k, j) * eta**j * (1.0 - eta) ** (k - j)
    V = np.zeros((dim, dim))
    for ka in range(dim):
        for kb in range(dim):
            V[ka, kb] = (ka - kb) / (ka + kb) if ka + kb else -1.0
    return B @ V @ B.T


def _dense_lossy_mermin(state, eta):
    """Four-setting Mermin sum over lossy basis-1 and basis-2 blocks built from the table."""
    table = _thinned_response_table(eta, 2 * state.cutoff)
    shells = {}
    for (q, m), amp in state.amps.items():
        shells.setdefault(q + m, np.zeros(q + m + 1, dtype=complex))[q] = amp
    total = 0.0
    for k, psi in shells.items():
        kappa = np.arange(k + 1)
        b1, b2 = (reference_block(basis, table[kappa, k - kappa], k) for basis in (1, 2))
        total += np.vdot(psi, (b1 * b1 * b1 - 3.0 * b1 * b2 * b2) @ psi).real
    return (1.0 - state.norm_residual) * abs(total)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(amplitude_boxes(10), st.floats(0.0, 1.0))
def test_lossy_closed_form_matches_thinned_blocks(entries, eta):
    # random exchange-diagonal states through shell 20, against binomial
    # thinning of the response table rotated into every shell
    state = diagonal_state(entries)
    assume(state is not None)
    got = lossy_mermin_lhs(0.0, eta, state=state)
    assert got == pytest.approx(_dense_lossy_mermin(state, eta), abs=1e-12)
    table = _thinned_response_table(eta, 20)
    for ka in range(21):
        for kb in range(21 - ka):
            assert per_party_loss_factor(ka, kb, eta) == pytest.approx(table[ka, kb], abs=1e-13)


@pytest.mark.parametrize("eta", [1.5, -0.2, math.nan])
def test_lossy_mermin_rejects_efficiency_outside_unit_interval(eta):
    # one shared check on the range, so neither can extrapolate the
    # all-lost probability (1 - eta)^k past it
    state = build_bghz(0.5)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        lossy_mermin_lhs(0.5, eta, state=state)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        per_party_loss_factor(1, 0, eta)


@pytest.mark.parametrize("eta", [True, False, np.True_])
def test_bool_efficiency_is_rejected(eta):
    state = build_bghz(0.5)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        lossy_mermin_lhs(0.5, eta, state=state)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        per_party_loss_factor(1, 0, eta)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        per_party_loss_factor(0, 0, eta)


# one gain in each loss_scan benchmark band; at 0.352 the auto cutoff
# reaches CUTOFF_CAP, so the lossy polynomial has its full 361 terms
LOSS_SCAN_GAINS = (0.075, 0.352, 0.58)

# hand-made boxes, exchange-symmetric or not, and the loss_scan band states
_FORM_STATES = st.one_of(
    st.sampled_from(LOSS_SCAN_GAINS).map(build_bghz),
    st.tuples(amplitude_boxes(8), st.booleans()).map(lambda drawn: diagonal_state(*drawn)),
)


def _thinned_shell_sum(state, eta):
    """The lossy Mermin LHS as the sum over shells of alpha_k^3 m_k + 2 beta_k^3 p_k."""
    terms = _form_terms(state, _MERMIN_FORM).sum(axis=0)
    masses = _form_terms(state, ((1.0, 1.0, ("I", "I", "I")),)).sum(axis=0)
    beta = (1.0 - eta) ** np.arange(len(terms), dtype=float)
    total = ((1.0 - beta) ** 3 * terms + beta**3 * 2.0 * masses).sum()
    return (1.0 - state.norm_residual) * abs(float(total))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_FORM_STATES, st.floats(0.0, 1.0))
def test_lossy_polynomial_matches_the_thinned_shell_sum(state, eta):
    # the polynomial in 1 - eta cancels between its c^k, c^2k and c^3k
    # coefficients, more as eta falls; the bound is relative to the band
    # states' LHS, near 2 or above, and absolute for a hand-made box's
    assume(state is not None)
    want = _thinned_shell_sum(state, eta)
    got = lossy_mermin_lhs(state.gamma, eta, state=state)
    assert abs(got - want) <= 1e-14 * max(1.0, want)
    assert lossy_mermin_lhs(state.gamma, 1.0, state=state) == mermin_lhs(0.0, state=state)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(LOSS_SCAN_GAINS),
    st.lists(st.floats(0.5, 1.0), min_size=2, max_size=8, unique=True),
)
def test_lossy_polynomial_rises_with_efficiency(gamma, etas):
    # above its minimum, near eta = 0.4 on every band state (the LHS is 2 at
    # eta = 0 and dips below it first), where the thresholds lie
    state = build_bghz(gamma)
    values = [lossy_mermin_lhs(gamma, eta, state=state) for eta in sorted(etas)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "eta", [Decimal("NaN"), np.float32("nan")], ids=lambda eta: type(eta).__name__
)
def test_nan_efficiency_of_any_type_is_rejected(eta):
    # a Decimal NaN raised decimal.InvalidOperation from the range check
    state = build_bghz(0.5)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        lossy_mermin_lhs(0.5, eta, state=state)
    with pytest.raises(ValueError, match=re.escape("eta must lie in [0, 1]")):
        per_party_loss_factor(1, 0, eta)


@pytest.mark.parametrize(
    "eta",
    [Decimal("0.5"), Fraction(1, 3), np.float16(0.7), np.float32(0.5), np.float32(0.9)],
    ids=lambda eta: f"{type(eta).__name__}({float(eta):.3g})",
)
def test_efficiency_of_any_real_type_thins_as_its_float(eta):
    # a Decimal raised TypeError, and a float32 computed in float32
    state, twin = build_bghz(0.5), float(eta)
    for ka, kb in ((1, 2), (0, 3), (4, 0)):
        got = per_party_loss_factor(ka, kb, eta)
        assert type(got) is float and got == per_party_loss_factor(ka, kb, twin)
    got = lossy_mermin_lhs(0.5, eta, state=state)
    assert type(got) is float and got == lossy_mermin_lhs(0.5, twin, state=state)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.8])
def test_mermin_reduction_identity(gamma):
    evaluation = evaluate_mermin(gamma)
    assert evaluation.agreement <= 1e-8
    assert evaluation.lhs == pytest.approx(evaluation.reduced, abs=1e-8)


def test_cross_checks_never_read_the_shell_moments():
    # the kernels read only the state's cached shell moments and the closed
    # form only its box, so corrupted moments move the kernels, leave the
    # closed form alone and show up in both diagnostics; the moments are
    # corrupted on a private copy of the memoized state, before its t is read
    gamma = 0.4
    built = build_bghz(gamma)
    t = built._closed_form_t
    s111 = stokes_expectation(built, ("S1", "S1", "S1"))
    lhs = mermin_lhs(gamma, state=built)
    assert evaluate_mermin(gamma, state=built).agreement <= 1e-12
    assert tensor_t(gamma, state=built).cross_check <= 1e-12
    state = BGHZState._from_box(gamma, built.cutoff, built._box.copy(), built.norm_residual)
    state.__dict__["_moments"] = 1.5 * built._moments
    assert "_closed_form_t" not in vars(state)
    assert abs(stokes_expectation(state, ("S1", "S1", "S1")) - 1.5 * s111) <= 1e-12
    assert abs(mermin_lhs(gamma, state=state) - lhs) > 0.1
    assert state._closed_form_t == t
    assert evaluate_mermin(gamma, state=state).agreement > 0.1
    assert tensor_t(gamma, state=state).cross_check > 0.1


def _counted_points(monkeypatch):
    """The points c = 1 - eta at which the lossy LHS is evaluated, in order."""
    seen, at = [], nonclassicality._lossy_at

    def counted(lossy, c):
        seen.append(c)
        return at(lossy, c)

    monkeypatch.setattr(nonclassicality, "_lossy_at", counted)
    return seen


def test_eta_threshold_evaluates_each_efficiency_once(monkeypatch):
    # the violation check at eta = 1 and the bracket's upper end share one
    # evaluation, no efficiency is evaluated twice, Newton needs fewer than
    # the ten or so ITP took, and the threshold is the crossing of
    # lossy_mermin_lhs that ITP brackets to its tol
    gamma = 0.3
    seen = _counted_points(monkeypatch)
    eta = eta_threshold(gamma)
    assert seen.count(0.0) == 1
    assert len(seen) == len(set(seen)) <= 10
    itp = find_crossing(lambda e: lossy_mermin_lhs(gamma, e), 2.0, 1e-6, 1.0)
    assert abs(eta - itp) <= 5e-4


def test_mermin_small_gain_limit():
    # the classical bound is attained from above as the gain vanishes
    lhs = mermin_lhs(0.01)
    assert 2.0 < lhs < 2.001
    assert mermin_lhs(0.05) > 2.0


def test_mermin_violated_through_midrange():
    for gamma in (0.05, 0.2, 0.4, 0.6, 0.7):
        assert mermin_lhs(gamma) > 2.0


def test_gamma_threshold_matches_reference():
    # the default bracket ends inside the construction guard, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        threshold = gamma_threshold()
    assert threshold == pytest.approx(0.77, abs=0.02)


def test_thresholds_hold_under_a_deeper_ladder():
    # the printed thresholds rest on the default order budget; one ten orders
    # deeper moves them by less than their bisection tolerance
    deeper = NumericPolicy(pade_order=50)
    assert gamma_threshold() == pytest.approx(gamma_threshold(deeper), abs=1e-3)
    assert eta_threshold(0.05) == pytest.approx(eta_threshold(0.05, deeper), abs=1e-3)


def test_gamma_threshold_no_crossing_on_restricted_range():
    with pytest.raises(ValueError, match="no crossing"):
        gamma_threshold(gamma_min=0.05, gamma_max=0.3)


def test_find_crossing_on_analytic_function():
    root = find_crossing(lambda x: x * x, 2.0, 0.0, 2.0, tol=1e-6)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-5)
    with pytest.raises(ValueError, match="no crossing"):
        find_crossing(lambda x: x * x, -1.0, 0.0, 2.0)


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)])
def test_find_crossing_needs_an_ordered_bracket(lo, hi):
    # a reversed or empty bracket used to return its midpoint unbisected
    calls = []
    # a NaN end is no real, and is named before the order is tested
    message = "lo < hi"
    if math.isnan(lo) or math.isnan(hi):
        message = f"{'lo' if math.isnan(lo) else 'hi'} must lie in"
    with pytest.raises(ValueError, match=message):
        find_crossing(lambda x: calls.append(x) or x - 0.3, 0.0, lo, hi)
    assert calls == []


def test_gamma_threshold_rejects_a_reversed_range():
    # the crossing near 0.770 lies inside, but the range runs backwards
    with pytest.raises(ValueError, match="lo < hi"):
        gamma_threshold(gamma_min=0.85, gamma_max=0.05)


def test_find_crossing_rejects_non_finite_values():
    def f(x):
        return math.nan if 0.3 < x < 0.7 else x - 0.5

    # NaN at the first midpoint, then at an endpoint
    with pytest.raises(ValueError, match="non-finite"):
        find_crossing(f, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        find_crossing(f, 0.0, 0.5, 1.0)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, "2", True, None], ids=repr)
def test_find_crossing_rejects_a_level_that_is_not_a_finite_real(level):
    # NaN and inf used to reach the endpoint test ("no crossing: endpoints
    # give nan and nan, both on the same side of inf"), a string the
    # subtraction (TypeError), and True was taken as 1
    def fn(x):
        raise AssertionError("fn was called")

    message = f"level must lie in (-inf, inf), got {level!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        find_crossing(fn, level, 0.0, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_find_crossing_rejects_bad_tolerance(tol):
    # NaN used to end the loop at once, 0 to never end it
    with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, inf), got {tol!r}")):
        find_crossing(lambda x: x - 0.3, 0.0, 0.0, 1.0, tol=tol)


def test_find_crossing_stops_at_adjacent_floats():
    # a tolerance below the float spacing at the crossing: the bracket
    # cannot shrink past two neighbouring floats, so the loop ends there
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        if evals > 2000:
            raise AssertionError("the bisection does not end")
        return x**3 - 0.1

    root = find_crossing(f, 0.0, 0.0, 1.0, tol=1e-300)
    assert abs(root - 0.1 ** (1 / 3)) <= 2 * math.ulp(root)
    assert evals < 100


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_find_crossing_rejects_an_infinite_bracket_end(lo, hi):
    # rejected before fn runs; on (-inf, 1) the infinite end used to come
    # back as the crossing
    calls = []
    message = f"{'lo' if math.isinf(lo) else 'hi'} must lie in (-inf, inf)"
    with pytest.raises(ValueError, match=re.escape(message)):
        find_crossing(lambda x: calls.append(x) or math.tanh(x), 0.0, lo, hi)
    assert calls == []


@pytest.mark.parametrize("real", [Decimal, Fraction, np.float32, np.float64])
def test_find_crossing_reads_any_real_bracket_as_floats(real):
    # a Decimal bracket used to raise TypeError, and NumPy ends came back as
    # NumPy scalars
    want = find_crossing(lambda x: x**3, 0.2, 0.125, 0.875, tol=2**-20)
    got = find_crossing(lambda x: x**3, 0.2, real("0.125"), real("0.875"), tol=real(2**-20))
    assert type(got) is float and got == want


def test_find_crossing_on_a_bracket_as_wide_as_the_floats():
    # hi - lo overflows to inf; every width and step is formed from
    # half-widths, so the search still closes in on the crossing
    evals = []
    root = find_crossing(lambda x: evals.append(x) or x - 1e300, 0.0, -1.7e308, 1.7e308)
    assert abs(root - 1e300) <= 2 * math.ulp(1e300)
    assert all(math.isfinite(x) for x in evals)
    assert len(evals) < 200


def _bisection_steps(lo, hi, tol):
    # the evaluations bisection takes past the two ends when no midpoint
    # lands on the crossing: the least n with (hi - lo) / 2**n <= tol
    width, steps = Fraction(hi) - Fraction(lo), 0
    while width > Fraction(tol):
        width, steps = width / 2, steps + 1
    return steps


def _check_crossing(fn, level, lo, hi, tol):
    # the result lies in a sign-change bracket of evaluated points no wider
    # than tol (or two adjacent floats, where they lie further apart), found
    # within one evaluation (n0) of bisection's count
    evals = {}

    def counted(x):
        evals[x] = fn(x)
        return evals[x]

    root = find_crossing(counted, level, lo, hi, tol)
    points = sorted(evals)
    side = [(evals[x] > level) - (evals[x] < level) for x in points]
    assert any(
        a <= root <= b
        and (b - a <= tol or b == math.nextafter(a, hi))
        and side[i] * side[i + 1] <= 0
        for i, (a, b) in enumerate(zip(points, points[1:]))
    ) or evals[root] == level
    assert len(evals) - 2 <= _bisection_steps(lo, hi, tol) + 1
    return root, len(evals) - 2


_BRACKETS = st.tuples(
    st.floats(-10.0, 10.0), st.floats(1e-3, 20.0), st.integers(0, 30), st.floats(0.0, 1.0)
)
_CURVES = {
    "linear": lambda u: u,
    "cubic": lambda u: u**3 + 1e-3 * u,
    "exp": lambda u: math.expm1(3.0 * u),
    "atan": lambda u: math.atan(40.0 * u),
    "flat then steep": lambda u: math.sinh(8.0 * u),
}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_BRACKETS, st.sampled_from(sorted(_CURVES)), st.booleans(), st.floats(-1.0, 1.0))
def test_find_crossing_on_monotone_curves(bracket, curve, falling, level):
    lo, width, halvings, at = bracket
    hi = lo + width
    tol = math.ldexp(width, -halvings)
    crossing = lo + at * width
    sign = -1.0 if falling else 1.0
    g = _CURVES[curve]

    def fn(x):
        return level + sign * g((x - crossing) / width)

    assume(lo < hi and min(fn(lo), fn(hi)) <= level <= max(fn(lo), fn(hi)))
    root, _ = _check_crossing(fn, level, lo, hi, tol)
    # on a monotone curve every sign-change bracket holds the crossing
    assert abs(root - crossing) <= tol / 2 + 1e-12 * width


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    _BRACKETS,
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-0.3, 0.3)), max_size=12),
    st.booleans(),
)
def test_find_crossing_on_curves_with_jumps(bracket, jumps, falling):
    # a falling line with jumps of either sign, as the Mermin LHS steps
    # where the auto cutoff changes: up to several crossings, any of which
    # may be found, but always inside a sign-change bracket
    lo, width, halvings, at = bracket
    hi = lo + width
    tol = math.ldexp(width, -halvings)
    sign = -1.0 if falling else 1.0
    steps = [(lo + where * width, height) for where, height in jumps]

    def fn(x):
        u = (x - lo) / width - at
        return sign * u + sum(height for where, height in steps if x > where)

    assume(lo < hi and min(fn(lo), fn(hi)) <= 0.0 <= max(fn(lo), fn(hi)))
    _check_crossing(fn, 0.0, lo, hi, tol)


def test_mermin_crossing_takes_fewer_cold_evaluations():
    # a bell_scan-shaped bracket, 0.09 wide around the crossing near 0.770:
    # bisection to 1e-3 evaluates 7 new gains, ITP at most 5
    evals = []

    def lhs(g):
        evals.append(g)
        return mermin_lhs(g)

    root = find_crossing(lhs, 2.0, 0.7167, 0.8067, tol=1e-3)
    assert _bisection_steps(0.7167, 0.8067, 1e-3) == 7
    assert len(evals) - 2 <= 5
    assert abs(root - 0.7700790) <= 5e-4


def test_lossless_limit_matches_mermin():
    # at eta = 1 nothing is lost, so both calls sum the same lossless
    # per-shell Mermin terms
    state = build_bghz(0.4)
    assert lossy_mermin_lhs(0.4, 1.0, state=state) == mermin_lhs(0.4, state=state)


def test_all_lost_detectors_pin_the_bound():
    # every party answers -1 deterministically, so the combination is 2
    assert lossy_mermin_lhs(0.3, 0.0) == pytest.approx(2.0, abs=1e-6)


def test_loss_is_monotone_in_efficiency():
    values = [lossy_mermin_lhs(0.4, eta) for eta in (1.0, 0.95, 0.9, 0.85, 0.83)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_eta_threshold_small_gain():
    assert eta_threshold(0.05) == pytest.approx(0.79, abs=0.01)


def test_eta_threshold_brackets_violation(monkeypatch):
    gamma = 0.4
    threshold = eta_threshold(gamma)
    assert lossy_mermin_lhs(gamma, threshold + 0.01) > 2.0
    assert lossy_mermin_lhs(gamma, threshold - 0.01) < 2.0
    # a given state is reused, not rebuilt
    state = build_bghz(gamma)

    def no_build(*args, **kwargs):
        raise AssertionError("eta_threshold rebuilt the state it was given")

    monkeypatch.setattr(state_module, "build_bghz", no_build)
    assert eta_threshold(gamma, state=state) == threshold


def test_eta_threshold_reuses_the_lossless_value(monkeypatch):
    # one Mermin form pass per threshold: every efficiency evaluates the
    # polynomial built from its terms, eta = 1, the upper bracket, too, where
    # only the constant coefficient, the lossless sum, survives bit for bit
    gamma = 0.4
    state = build_bghz(gamma)
    reference = find_crossing(
        lambda e: lossy_mermin_lhs(gamma, e, state=state), 2.0, 1e-6, 1.0, 1e-3
    )
    passes = []
    kernel = nonclassicality._form_terms

    def counted_kernel(state, form):
        passes.append(form)
        return kernel(state, form)

    monkeypatch.setattr(nonclassicality, "_form_terms", counted_kernel)
    seen = _counted_points(monkeypatch)
    assert abs(eta_threshold(gamma, state=state) - reference) <= 5e-4
    assert passes == [_MERMIN_FORM]
    assert 0.0 in seen
    lossless = nonclassicality._lossy_at(nonclassicality._lossy_lhs(state), 0.0)[0]
    assert lossless == mermin_lhs(gamma, state=state)


def test_not_violated_names_the_gain_of_the_given_state():
    # the message named the gamma argument, which a given state overrides
    with pytest.raises(ValueError, match=re.escape("not violated at eta=1 (gamma=0.85)")):
        eta_threshold(0.3, state=build_bghz(0.85))


def _hand_box(amps):
    """Unit-norm BGHZState of the given amplitudes."""
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    cutoff = max(max(qm) for qm in amps)
    return BGHZState(
        gamma=0.0, cutoff=cutoff, amps={qm: a / norm for qm, a in amps.items()}, norm_residual=0.0
    )


# a bright-like box u u^T over four shells, whose Mermin sum is positive,
# and a one-photon GHZ box whose phase makes it negative (LHS |sum| near 4)
_HAND_BOXES = {
    "bright-like": _hand_box(
        {(q, m): 1j ** (q + m) * u * v for (q, u), (m, v) in
         itertools.product(enumerate((0.8, 0.5, 0.3, 0.1)), repeat=2)}
    ),
    "negative sum": _hand_box({(1, 0): 1.0, (0, 1): cmath.exp(3j)}),
}


def _mp_crossing(state):
    """1 - c at the root of sign(d_0) P(c) = 2 / scale near the threshold,
    at 50 digits on the state's own float coefficients d."""
    rows, _, scale = nonclassicality._lossy_lhs(state)
    with mpmath.workdps(50):
        d = [mpmath.mpf(float(x)) for x in rows[0][::-1]]
        sign = 1 if d[-1] > 0 else -1

        def offset(c):
            return sign * mpmath.polyval(d, c) - 2 / mpmath.mpf(scale)

        c = mpmath.findroot(offset, 1 - mpmath.mpf(eta_threshold(state.gamma, state=state)))
        # a simple crossing, falling through 2 as c grows
        assert offset(c - mpmath.mpf(1e-12)) > 0 > offset(c + mpmath.mpf(1e-12))
        return 1 - c, sign * mpmath.polyval(d, c, derivative=True)[1] * scale


@pytest.mark.parametrize("state", [*_HAND_BOXES, *LOSS_SCAN_GAINS, 0.3, 0.7])
def test_eta_threshold_is_the_crossing_of_the_float_polynomial(state):
    # the bracket closes to 2**-52 in c, 2 ulps of eta, around where the
    # float LHS crosses 2, and that lies within its own last bit, ulp(2),
    # over the slope from the exact crossing.  Measured: 0.2-0.4 ulps on the
    # hand boxes, 0.5-2.3 on the states from 0.3 up, and 19.6 at 0.075,
    # where the LHS is flattest (slope -0.08 in c), against a bound of 52
    state = _HAND_BOXES[state] if state in _HAND_BOXES else build_bghz(state)
    eta = eta_threshold(state.gamma, state=state)
    crossing, slope = _mp_crossing(state)
    ulps = float(abs(eta - crossing)) / math.ulp(eta)
    assert ulps <= 2 + math.ulp(2.0) / abs(float(slope)) / math.ulp(eta)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.floats(0.02, 0.75, exclude_min=True, exclude_max=True))
def test_eta_threshold_lies_on_the_itp_crossing(gamma):
    # within tol / 2 of the crossing ITP brackets on the same LHS, which
    # rises through 2 there: above it a nano-efficiency higher, below lower
    state = build_bghz(gamma)
    eta = eta_threshold(gamma, state=state)

    def lhs(e):
        return lossy_mermin_lhs(gamma, e, state=state)

    assert abs(eta - find_crossing(lhs, 2.0, 1e-6, 1.0)) <= 5e-4
    assert lhs(eta + 1e-9) > 2.0 > lhs(eta - 1e-9)


def test_eta_threshold_requires_violation():
    with pytest.raises(ValueError, match="not violated"):
        eta_threshold(0.85)


def test_eta_threshold_grows_with_gain():
    thresholds = [eta_threshold(g) for g in (0.05, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))


def test_witness_w1_limits():
    # with the vacuum removed the small-gain state is the photon-triple GHZ
    assert witness_w1(0.02, projected=True) == pytest.approx(-1.0, abs=0.005)
    # unprojected, the vacuum swamps every term
    assert abs(witness_w1(0.02, projected=False)) < 0.005
    assert witness_w1(0.4, projected=True) < witness_w1(0.4, projected=False) < 0.0


@pytest.mark.parametrize("gamma", [0.05, 0.4, 0.8])
@pytest.mark.parametrize("projected", [False, True])
def test_witness_w2_closed_form_agreement(gamma, projected):
    evaluation = evaluate_w2(gamma, projected=projected)
    assert evaluation.agreement <= 1e-8
    assert evaluation.value == pytest.approx(evaluation.closed_form, abs=1e-8)


def test_projected_witnesses_project_each_state_once(monkeypatch):
    state = build_bghz(0.352)
    reference = project_out_vacuum(state)
    want_w1 = witness_w1(0.352, state=reference)
    want_w2 = evaluate_w2(0.352, state=reference)
    calls = []

    def counted(state):
        calls.append(state)
        return project_out_vacuum(state)

    monkeypatch.setattr(state_module, "project_out_vacuum", counted)
    for _ in range(2):
        assert witness_w1(0.352, projected=True, state=state) == want_w1
        assert evaluate_w2(0.352, projected=True, state=state) == want_w2
    assert len(calls) == 1 and calls[0] is state


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_FORM_STATES, st.booleans())
def test_witness_forms_match_their_terms(state, projected):
    # each witness in one moment pass, against its terms evaluated apart
    # and combined as the witness is written
    assume(state is not None)
    if projected:
        assume(1.0 - state._vacuum_probability > 1e-12)
    on = state._vacuum_projected if projected else state

    def term(*ops):
        return stokes_expectation(on, ops)

    w1 = 1.5 * term("S0", "S0", "S0")
    w1 -= term("S1", "S1", "S1")
    w1 -= 0.5 * (term("S3", "S3", "S0") + term("S0", "S3", "S3") + term("S3", "S0", "S3"))
    got = witness_w1(state.gamma, projected, state=state)
    assert abs(got - w1) <= 1e-14 * max(1.0, abs(w1))
    w2 = -_form_terms(on, ((-2.0, 4.0, ("S1",) * 3),)).sum() + term("Pi", "Pi", "Pi")
    got = evaluate_w2(state.gamma, projected, state=state).value
    assert abs(got - w2) <= 1e-14 * max(1.0, abs(w2))


def test_warm_witnesses_build_no_weights(monkeypatch):
    # each witness's summed weights are one table, built on first use
    state = build_bghz(0.352)
    before = witness_w1(0.352, state=state), evaluate_w2(0.352, state=state)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm witness rebuilt its weights")

    monkeypatch.setattr(stokes_module, "_triple_weights", forbidden)
    assert (witness_w1(0.352, state=state), evaluate_w2(0.352, state=state)) == before


_STATE_CALLS = {
    "mermin_lhs": lambda state: mermin_lhs(0.3, state=state),
    "evaluate_mermin": lambda state: evaluate_mermin(0.3, state=state),
    "lossy_mermin_lhs": lambda state: lossy_mermin_lhs(0.3, 0.9, state=state),
    "eta_threshold": lambda state: eta_threshold(0.3, state=state),
    "witness_w1": lambda state: witness_w1(0.3, True, state=state),
    "evaluate_w2": lambda state: evaluate_w2(0.3, state=state),
    "witness_w2": lambda state: witness_w2(0.3, True, state=state),
    "tensor_t": lambda state: tensor_t(0.3, state=state),
    "stokes_expectation": lambda state: stokes_expectation(state, ("S1", "S1", "S1")),
}


@pytest.mark.parametrize("state", ["x", {(0, 0): 1.0}, 0.3], ids=repr)
@pytest.mark.parametrize("call", sorted(_STATE_CALLS))
def test_a_given_state_must_be_a_bright_state(call, state):
    # each used to raise AttributeError from inside the kernel, but for
    # stokes_expectation, whose message every one now gives
    message = f"state must be a BGHZState, got {type(state).__name__}"
    with pytest.raises(TypeError, match=re.escape(message)):
        _STATE_CALLS[call](state)


_WITNESS_CALLS = {
    "witness_w1": lambda projected: witness_w1(0.4, projected),
    "evaluate_w2": lambda projected: evaluate_w2(0.4, projected),
    "witness_w2": lambda projected: witness_w2(0.4, projected),
    "witness_sweep": lambda projected: witness_sweep(1, (0.3, 0.4), projected),
}


@pytest.mark.parametrize("projected", ["no", None, 1, 0.0], ids=repr)
@pytest.mark.parametrize("call", sorted(_WITNESS_CALLS))
def test_projected_must_be_a_bool(call, projected):
    # "no" used to evaluate the projected witness and None the unprojected one
    with pytest.raises(ValueError, match="projected must be a bool"):
        _WITNESS_CALLS[call](projected)


@pytest.mark.parametrize("call", sorted(_WITNESS_CALLS))
def test_numpy_bool_projected_reads_as_its_bool(call):
    assert _WITNESS_CALLS[call](np.True_) == _WITNESS_CALLS[call](True)
    assert _WITNESS_CALLS[call](np.False_) == _WITNESS_CALLS[call](False)


def test_witness_w2_limits():
    assert witness_w2(0.02, projected=True) == pytest.approx(-3.0, abs=0.01)
    assert abs(witness_w2(0.02, projected=False)) < 0.01


def test_witness_half_depth_ordering():
    """w2 keeps half its ideal depth out to larger gain than w1 does."""
    half_w1 = find_crossing(
        lambda g: witness_w1(g, projected=True), -0.5, 0.05, 0.85
    )
    half_w2 = find_crossing(
        lambda g: witness_w2(g, projected=True), -1.5, 0.05, 0.85
    )
    assert half_w2 > half_w1
    assert half_w1 == pytest.approx(0.55, abs=0.05)
    assert half_w2 == pytest.approx(0.61, abs=0.05)


def test_separable_states_respect_witness_bound():
    rng = np.random.default_rng(20240817)
    largest = 0.0
    for _ in range(200):
        state = random_product_state(rng)
        m_value = (
            dense_expectation(state, ("S1", "S2", "S2"))
            + dense_expectation(state, ("S2", "S1", "S2"))
            + dense_expectation(state, ("S2", "S2", "S1"))
            - dense_expectation(state, ("S1", "S1", "S1"))
        )
        assert abs(m_value) <= 1.0 + 1e-9
        largest = max(largest, abs(m_value))
    # the sampler must actually exercise the bound, not orbit zero
    assert largest > 0.1


def test_sweep_result_with_a_bracket_needs_its_bisect():
    # threshold used to raise TypeError: 'NoneType' object is not callable
    with pytest.raises(ValueError, match="bracket needs the bisect"):
        SweepResult(axis=(0.1, 0.2), values=(3.0, 1.0), diagnostics=({}, {}), bracket=(0.1, 0.2))
    bare = SweepResult(axis=(0.1, 0.2), values=(3.0, 1.0), diagnostics=({}, {}))
    assert bare.threshold is None


def test_sweep_result_validates_axis():
    with pytest.raises(ValueError):
        SweepResult(axis=(0.2, 0.1), values=(1.0, 2.0), diagnostics=({}, {}))
    with pytest.raises(ValueError):
        SweepResult(axis=(0.1, 0.2), values=(1.0,), diagnostics=({}, {}))
    for axis in [(0.1, math.nan), (math.nan, 0.1), (math.nan,)]:
        with pytest.raises(ValueError, match="NaN"):
            SweepResult(axis=axis, values=(1.0,) * len(axis), diagnostics=({},) * len(axis))


@pytest.mark.parametrize(
    "grid", [(0.3, 0.2), (0.2, 0.2), (0.1, math.nan), (math.nan,), (0.1, math.inf), (-0.1, 0.2)]
)
def test_sweep_checks_the_grid_before_evaluating(monkeypatch, grid):
    # a grid that is not finite, non-negative and strictly increasing is
    # rejected before any point costs a (possibly cold) evaluation
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return 0.0

    monkeypatch.setattr(nonclassicality, "witness_w1", recorded)
    monkeypatch.setattr(nonclassicality, "eta_threshold", recorded)
    for sweep in (lambda: witness_sweep(1, grid), lambda: eta_threshold_sweep(grid)):
        with pytest.raises(ValueError, match="gammas must"):
            sweep()
    assert calls == []


def test_mermin_sweep_brackets_threshold():
    result = mermin_sweep((0.6, 0.7, 0.75, 0.8))
    assert result.values[0] > 2.0 > result.values[-1]
    assert all(d["agreement"] <= 1e-8 for d in result.diagnostics)
    assert result.threshold == pytest.approx(0.77, abs=0.02)
    assert result.threshold == gamma_threshold(gamma_min=0.75, gamma_max=0.8)


def test_mermin_sweep_from_zero_gain_has_no_threshold():
    # the LHS is exactly 2 at gain 0 and rises from there: no falling crossing
    result = mermin_sweep((0.0, 0.1))
    assert result.values[0] == 2.0 < result.values[1]
    assert result.bracket is None and result.threshold is None


def test_sweep_marks_failed_points_nan():
    # with the cutoff pinned at 45 the ladder cannot resolve gain 0.59
    result = witness_sweep(1, (0.3, 0.59), policy=NumericPolicy(cutoff=45))
    assert not math.isnan(result.values[0]) and "failed" not in result.diagnostics[0]
    assert math.isnan(result.values[1])
    assert result.diagnostics[1]["failed"]
    assert "did not settle" in result.diagnostics[1]["error"]


def test_sweep_bisects_only_when_threshold_is_read(monkeypatch):
    calls = []
    crossing = nonclassicality.find_crossing

    def counted(*args, **kwargs):
        calls.append(args)
        return crossing(*args, **kwargs)

    monkeypatch.setattr(nonclassicality, "find_crossing", counted)
    monkeypatch.setattr(nonclassicality, "witness_w1", lambda g, projected, policy: g - 0.5)
    result = witness_sweep(1, (0.2, 0.8))
    assert result.bracket == (0.2, 0.8)  # rising through 0
    assert calls == []
    # read twice, bisected once
    assert result.threshold == pytest.approx(0.5, abs=1e-3)
    assert result.threshold == pytest.approx(0.5, abs=1e-3)
    assert len(calls) == 1


def test_eta_threshold_sweep_flags_unviolated_points():
    result = eta_threshold_sweep((0.1, 0.4, 0.85))
    assert result.diagnostics[0]["violated"]
    assert result.diagnostics[1]["violated"]
    assert not result.diagnostics[2]["violated"]
    assert math.isnan(result.values[2])
    assert result.values[1] > result.values[0]


def test_eta_threshold_sweep_marks_other_errors_failed(monkeypatch):
    # only "not violated at eta = 1" reads as violated False; any other
    # ValueError is a failed point, as in every sweep
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(nonclassicality, "eta_threshold", boom)
    result = eta_threshold_sweep((0.3, 0.4))
    assert all(math.isnan(v) for v in result.values)
    assert result.diagnostics == ({"failed": True, "error": "boom"},) * 2


def test_witness_sweep_values_and_diagnostics():
    result = witness_sweep(2, (0.2, 0.4, 0.6), projected=True)
    assert result.threshold is None  # stays negative on this range
    assert all(v < 0 for v in result.values)
    assert all(d["agreement"] <= 1e-8 for d in result.diagnostics)
    with pytest.raises(ValueError):
        witness_sweep(3, (0.2, 0.4))


@pytest.mark.parametrize("which", [True, 1.0, "1"], ids=repr)
def test_witness_sweep_index_must_be_an_integer(which):
    # True and 1.0 used to evaluate w1
    with pytest.raises(ValueError, match="which must be an integer"):
        witness_sweep(which, (0.1, 0.2))
