"""One argument contract over the whole public surface.

Every callable in brightghz.__all__ that takes arguments is fed, one
parameter at a time, a value of the wrong type or size; the rest of the
call is valid.  Each must raise TypeError or ValueError whose message
begins with the parameter's name as its signature spells it, at once: a
ceiling is checked before any exact integer work, so 10**400 and
+-10**5000 fail as fast as -1, and their message prints without Python's
limit on int-to-str conversion.  The exemptions are listed below, each with its
reason.
"""

import inspect
import math
import re
import signal
import time
from fractions import Fraction

import pytest

import brightghz
from brightghz import DiagonalResummer, build_bghz

PROBES = {
    "None": None,
    "'x'": "x",
    "True": True,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "object()": object(),
    "10**400": 10**400,
    "10**5000": 10**5000,
    "-10**5000": -(10**5000),
}

# The records and errors the package hands out: built by the package, or by
# hand as test fixtures, and read, not called with checked arguments.
RECORDS = {
    "FormalSeries",
    "ResummationResult",
    "PoleProximityError",
    "TripleDistribution",
    "BGHZState",
    "ResummationError",
    "CorrelationTensor",
    "SweepResult",
    "MerminEvaluation",
    "WitnessEvaluation",
}

SERIES = [Fraction(1, math.factorial(j)) for j in range(9)]
STATE = build_bghz(0.3)
POLICY = brightghz.DEFAULT_POLICY
# the arguments of the gain-level Bell and witness functions, a state
# given beside gamma and policy
AT = {"gamma": 0.3, "policy": POLICY, "state": STATE}

# A valid call of each callable, its arguments in the signature's order; the
# probes replace one argument at a time.
VALID = {
    "c_series": {"k": 2, "n": 3, "L": 5},
    "diagonal_resum": {"series": SERIES, "x": 0.1, "max_order": 4, "tol": 1e-10, "bits": 128},
    "DiagonalResummer": {"series": SERIES},
    "DiagonalResummer.resum": {"x": 0.1, "max_order": 4, "tol": 1e-10, "bits": 128},
    "NumericPolicy": {"pade_order": 40, "tol": 1e-10, "bits": 128, "cutoff": None},
    "resummed_coefficient": {"n": 3, "k": 2, "gamma": 0.3, "policy": POLICY},
    "photon_distribution": {"n": 3, "gamma": 0.3, "policy": POLICY},
    "build_bghz": {"gamma": 0.3, "policy": POLICY},
    "project_out_vacuum": {"state": STATE},
    "stokes_expectation": {"state": STATE, "ops": ("S1", "S1", "S1")},
    "tensor_t": AT,
    "mermin_lhs": AT,
    "evaluate_mermin": AT,
    "gamma_threshold": {"policy": POLICY, "gamma_min": 0.05, "gamma_max": 0.85, "tol": 1e-3},
    "per_party_loss_factor": {"k_a": 1, "k_b": 2, "eta": 0.5},
    "lossy_mermin_lhs": {"gamma": 0.3, "eta": 0.9, "policy": POLICY, "state": STATE},
    "eta_threshold": {"gamma": 0.3, "policy": POLICY, "state": STATE},
    "witness_w1": {"gamma": 0.3, "projected": False, "policy": POLICY, "state": STATE},
    "evaluate_w2": {"gamma": 0.3, "projected": False, "policy": POLICY, "state": STATE},
    "witness_w2": {"gamma": 0.3, "projected": False, "policy": POLICY, "state": STATE},
    "find_crossing": {"fn": lambda x: x - 0.5, "level": 0.0, "lo": 0.0, "hi": 1.0, "tol": 1e-3},
    "mermin_sweep": {"gammas": (0.3,), "policy": POLICY},
    "eta_threshold_sweep": {"gammas": (0.3,), "policy": POLICY},
    "witness_sweep": {"which": 1, "gammas": (0.3,), "projected": False, "policy": POLICY},
}

# an exact rational has no float range to leave, so a point of any size is
# valid; at these the walk finds no order with a value (PoleProximityError)
POINTS = {"-1", "10**400", "10**5000", "-10**5000"}
# (callable, parameter) -> the probes it takes as valid values, and why
EXEMPT = {
    ("find_crossing", "fn"): (set(PROBES), "a callable, called rather than checked"),
    ("find_crossing", "level"): ({"-1"}, "a level of -1 is valid; here it has no crossing"),
    ("find_crossing", "lo"): ({"-1"}, "a bracket end of -1 is valid"),
    ("find_crossing", "hi"): ({"-1"}, "below lo, named by the order: 'bracket needs lo < hi'"),
    ("diagonal_resum", "x"): (POINTS, "exact rational points; a pole there is a domain result"),
    ("DiagonalResummer.resum", "x"): (POINTS, "as for diagonal_resum"),
    ("NumericPolicy", "cutoff"): ({"None"}, "None is the auto cutoff"),
}
for name in ("witness_w1", "evaluate_w2", "witness_w2", "witness_sweep"):
    EXEMPT[name, "projected"] = ({"True"}, "a bool is the valid type")
for name, args in VALID.items():
    if "state" in args and "gamma" in args:
        EXEMPT[name, "state"] = ({"None"}, "the default: built from gamma and policy")


def _callable(name):
    if name == "DiagonalResummer.resum":
        return DiagonalResummer(SERIES).resum
    return getattr(brightghz, name)


def _cases():
    for name, args in VALID.items():
        for param in args:
            exempt = EXEMPT.get((name, param), ((), ""))[0]
            for label in PROBES:
                if label not in exempt:
                    yield pytest.param(name, param, label, id=f"{name}-{param}={label}")


def test_every_public_callable_is_probed():
    # a new public name needs a valid call here, or a place among the records
    callables = {n for n in brightghz.__all__ if callable(getattr(brightghz, n))}
    assert callables - RECORDS == set(VALID) - {"DiagonalResummer.resum"}
    for name, args in VALID.items():
        params = inspect.signature(_callable(name)).parameters
        assert list(params) == list(args), name


class _Stalled(Exception):
    pass


def _stall(signum, frame):
    raise _Stalled("no answer within 10 s")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, param, label", _cases())
def test_a_bad_argument_is_named_at_once(name, param, label):
    args = {**VALID[name], param: PROBES[label]}
    previous = signal.signal(signal.SIGALRM, _stall)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        with pytest.raises((TypeError, ValueError)) as raised:
            _callable(name)(**args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 2.0
    assert re.match(rf"{re.escape(param)}\b", str(raised.value)), str(raised.value)
