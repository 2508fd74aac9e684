"""Acceptance gate: one check per published anchor, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the [PASS]/[FAIL]
lines, or directly with ``python3 tests/test_acceptance.py``.  Each criterion
states its tolerance inline; together they pin the library to the published
photon statistics, thresholds, witness limits, and tensor structure.
"""

import time
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np

from brightghz.nonclassicality import (
    eta_threshold_sweep,
    evaluate_w2,
    find_crossing,
    gamma_threshold,
    mermin_lhs,
    witness_w1,
    witness_w2,
)
from brightghz.oracles import coherent_pk, squeezed_pk
from brightghz.pade import diagonal_resum
from brightghz.series_core import _ensure_store, c_series
from brightghz.state import BrightStateSpec, NumericPolicy, build_bghz, photon_distribution
from brightghz.stokes import stokes_expectation
from references import (
    DenseTruncatedState,
    build_pade,
    dense_expectation,
    evaluate,
    p_explicit,
    to_mpf,
)


def _verdict(num, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {title}{suffix}")
    assert ok, f"criterion {num}: {title}{suffix}"


# printed reference values, two significant figures as published
TABLE1 = {
    1: ["0.53", "0.34", "0.11", "0.023", "0.0037", "0.00047",
        "5e-5", "4.6e-6", "3.7e-7", "2.6e-8", "1.7e-9"],
    2: ["0.55", "0.24", "0.11", "0.048", "0.021", "0.0093",
        "0.0041", "0.0018", "0.0008", "0.00035", "0.00016"],
    3: ["0.60", "0.16", "0.074", "0.040", "0.024", "0.016",
        "0.011", "0.0087", "0.0066", "0.0052", "0.0042"],
}


def _printed_ulp(text):
    # unit in the last printed place: "0.074" -> 1e-3, "4.6e-6" -> 1e-7
    mantissa, _, exponent = text.partition("e")
    scale = 10.0 ** int(exponent) if exponent else 1.0
    places = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return scale * 10.0 ** (-places)


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for n, column in TABLE1.items():
        dist = photon_distribution(BrightStateSpec(n=n, gamma=0.8))
        for k, text in enumerate(column):
            got = dist.probs[k]
            # several published entries are truncated rather than rounded,
            # so the printed precision means one ulp of the last digit
            slack = _printed_ulp(text) * (1.0 + 1e-9)
            miss = abs(got - float(text)) / slack
            worst = max(worst, miss)
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "emission table at gamma 0.8, n in {1,2,3}, k <= 10",
        worst <= 1.0 and elapsed < 30.0,
        f"worst miss {worst:.3f} printed ulp, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_oracles():
    worst = 0.0
    for tenth in range(1, 9):
        gamma = tenth / 10.0
        for n, oracle in ((1, coherent_pk), (2, squeezed_pk)):
            dist = photon_distribution(BrightStateSpec(n=n, gamma=gamma))
            for k in range(min(dist.cutoff, 12) + 1):
                worst = max(worst, abs(dist.probs[k] - oracle(gamma, k)))
    _verdict(
        2,
        "coherent and squeezed-vacuum columns within 1e-6 per entry",
        worst <= 1e-6,
        f"worst abs error {worst:.2e}",
    )


def test_criterion_3_recurrence_equals_explicit():
    ok = True
    for n in (1, 2, 3, 4):
        store = _ensure_store(n, 12)
        for l in range(13):
            for k in range(l + 1):
                expected = p_explicit(k, n, l) if (l - k) % 2 == 0 else 0
                if (l - k) % 2 == 1 and store.get((k, l), 0) != 0:
                    ok = False
                if store.get((k, l), 0) != expected:
                    ok = False
    _verdict(
        3,
        "weight recurrence equals explicit sum for k <= l <= 12, n <= 4",
        ok,
        "parity entries exactly zero",
    )


def test_criterion_4_mermin_threshold():
    threshold = gamma_threshold(gamma_max=0.85)
    samples = {g: mermin_lhs(g) for g in (0.05, 0.2, 0.35, 0.5, 0.7)}
    violated = all(v > 2.0 for v in samples.values())
    _verdict(
        4,
        "violation threshold 0.77 +- 0.02 with LHS > 2 through gamma 0.7",
        abs(threshold - 0.77) <= 0.02 and violated,
        f"threshold {threshold:.4f}, min sampled LHS {min(samples.values()):.5f}",
    )


def test_criterion_5_loss_threshold():
    grid = np.linspace(0.05, 0.75, 20)
    sweep = eta_threshold_sweep(grid)
    values = np.asarray(sweep.values)
    all_violated = bool(np.all(np.isfinite(values)))
    monotone = bool(np.all(np.diff(values) >= -1e-9))
    at_low_gain = values[0]
    _verdict(
        5,
        "critical efficiency 0.79 +- 0.01 at low gain, non-decreasing in gain",
        abs(at_low_gain - 0.79) <= 0.01 and all_violated and monotone,
        f"eta_tr(0.05) = {at_low_gain:.4f}, 20-point grid monotone = {monotone}",
    )


def test_criterion_6_witness_limits():
    low = witness_w1(0.02, projected=True)
    agreements = []
    for gamma in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.84):
        agreements.append(evaluate_w2(gamma, projected=True).agreement)
        agreements.append(evaluate_w2(gamma, projected=False).agreement)
    half_w1 = find_crossing(
        lambda g: witness_w1(g, projected=True), -0.5, 0.3, 0.8
    )
    half_w2 = find_crossing(
        lambda g: witness_w2(g, projected=True), -1.5, 0.3, 0.8
    )
    ok = (
        abs(low + 1.0) <= 0.02
        and max(agreements) <= 1e-8
        and half_w2 > half_w1
        and abs(half_w1 - 0.55) <= 0.05
        and abs(half_w2 - 0.61) <= 0.05
    )
    _verdict(
        6,
        "witness limits: projected w1 -> -1, w2 identity, 50% points ordered",
        ok,
        f"w1(0.02) = {low:.4f}, half-depth {half_w1:.3f} < {half_w2:.3f}, "
        f"worst identity gap {max(agreements):.2e}",
    )


def test_criterion_7_tensor_structure():
    axes = (1, 2, 3)
    worst_relation = 0.0
    worst_zero = 0.0
    for gamma in (0.2, 0.5, 0.8):
        state = build_bghz(gamma)
        element = {}
        for i in axes:
            for j in axes:
                for k in axes:
                    element[i, j, k] = stokes_expectation(
                        state, (f"S{i}", f"S{j}", f"S{k}")
                    )
        t = element[1, 1, 1]
        for ijk in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            worst_relation = max(worst_relation, abs(element[ijk] + t))
        for ijk, value in element.items():
            if 3 in ijk or ijk == (2, 2, 2):
                worst_zero = max(worst_zero, abs(value))
    _verdict(
        7,
        "tensor sign pattern to 1e-8 and structural zeros below 1e-10",
        worst_relation <= 1e-8 and worst_zero < 1e-10,
        f"worst relation gap {worst_relation:.2e}, worst zero {worst_zero:.2e}",
    )


def _taylor_of_rational(num, den, count):
    # coefficients of (sum num_i x^i) / (sum den_i x^i) by long division
    coeffs = []
    carry = [Fraction(c) for c in num] + [Fraction(0)] * count
    den = [Fraction(c) for c in den]
    for j in range(count):
        c = carry[j] / den[0]
        coeffs.append(c)
        for i, d in enumerate(den):
            carry[j + i] -= c * d
    return coeffs


def test_criterion_8_pade_engine():
    # exact reproduction of a rational function from its Taylor series
    num, den = [2, -1, 3, 1], [1, 1, -2, 5]
    series = _taylor_of_rational(num, den, 13)
    approx = build_pade(series, 3, 3)
    exact_ok = True
    for x in (Fraction(1, 7), Fraction(-3, 5), Fraction(9, 4)):
        want = sum(Fraction(c) * x**i for i, c in enumerate(num)) / sum(
            Fraction(c) * x**i for i, c in enumerate(den)
        )
        got = evaluate(approx, x, bits=256)
        with mpmath.mp.workprec(320):
            reference = mpmath.mpf(want.numerator) / want.denominator
            if abs(got - reference) > 1e-40:
                exact_ok = False

    # divergent factorial series against its convergent integral form
    x = 0.2
    euler = [Fraction((-1) ** j * factorial(j)) for j in range(25)]
    resummed = diagonal_resum(euler, x, max_order=12, tol=1e-10)
    reference = mpmath.quad(
        lambda s: mpmath.exp(-s) / (1 + x * s), [0, mpmath.inf]
    )
    euler_gap = abs(float(to_mpf(resummed.value) - reference))

    # past the validity boundary the high-k ladders stop settling
    u = -(1.2**2)
    stalled = []
    for k in (7, 9):
        coeffs = c_series(k, 3, 81 + k).coeffs[:81]
        stalled.append(not diagonal_resum(coeffs, u, max_order=40).converged)
    ok = exact_ok and resummed.converged and euler_gap <= 1e-6 and all(stalled)
    _verdict(
        8,
        "rational functions exact, factorial series to 1e-6, gamma 1.2 stalls",
        ok,
        f"factorial-series gap {euler_gap:.2e}, stalled ladders {stalled}",
    )


def test_criterion_9_sparse_dense_agreement():
    triples = [
        ("S1", "S1", "S1"), ("S1", "S2", "S2"), ("S2", "S1", "S2"),
        ("S2", "S2", "S1"), ("S2", "S2", "S2"), ("S3", "S3", "S3"),
        ("S1p", "S2p", "S2p"), ("Pi", "Pi", "Pi"),
    ]
    worst = 0.0
    for gamma in (0.5, 0.8):
        state = build_bghz(gamma, NumericPolicy(cutoff=2))
        dense = DenseTruncatedState.from_amplitudes(state.amps)
        for ops in triples:
            sparse_value = stokes_expectation(state, ops)
            dense_value = dense_expectation(dense, ops)
            worst = max(worst, abs(sparse_value - dense_value))
    _verdict(
        9,
        "sparse evaluator agrees with the dense matrix oracle to 1e-10",
        worst <= 1e-10,
        f"worst gap {worst:.2e}",
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError:
                failures += 1
    raise SystemExit(1 if failures else 0)
