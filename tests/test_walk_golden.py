"""Golden digest of the continued-fraction walk: every field of every result.

The grid is every series a default Bell scan walks (three beams, k =
0..60) and every fifth series of one and two beams, at 34 gains, at the
shipped tables' own 256 bits and at the default policy's 128, where the
three-beam walks read those tables coarsened, plus a few series at
pade_order 60 and 320 bits, whose tables are computed at run time.  One
line per walk records the point, the value's numerator and denominator,
converged, order_used and each diagnostic as float.hex (or the pole
error); the golden file holds the SHA-256 of each series' lines, so a
mismatch names the series.

Regenerate the golden file with the commit the contract pins:

    PYTHONPATH=src python tests/test_walk_golden.py --write

Any other arguments print a usage line and exit 2, writing nothing.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from brightghz.pade import _SHIPPED_BITS, PoleProximityError
from brightghz.state import CUTOFF_CAP, DEFAULT_POLICY, NumericPolicy, _resummer

GOLDEN = Path(__file__).parent / "data" / "walk_digest.txt"

GAINS = [round(0.01 + 0.03 * i, 2) for i in range(30)] + [0.5845, 0.7698, 0.77, 0.8067]
DEEP = NumericPolicy(pade_order=60, bits=320)

# (n, k, policy, gains)
SERIES = (
    [
        entry
        for policy in (NumericPolicy(bits=_SHIPPED_BITS), DEFAULT_POLICY)
        for entry in [(3, k, policy, GAINS) for k in range(CUTOFF_CAP + 1)]
        + [(n, k, policy, GAINS) for n in (1, 2) for k in range(0, CUTOFF_CAP + 1, 5)]
    ]
    + [(3, k, DEEP, (0.3, 0.7698, 0.8067, 0.88)) for k in (0, 9, 30, 60)]
    + [(1, 5, DEEP, (0.5, 0.88))]
)


def _record(n: int, k: int, gamma: float, policy: NumericPolicy) -> str:
    resummer = _resummer(n, k, 2 * policy.pade_order + 1)
    u = -(Fraction(gamma) ** 2)
    try:
        got = resummer.resum(u, max_order=policy.pade_order, tol=policy.tol, bits=policy.bits)
    except PoleProximityError:
        return f"{gamma.hex()} pole"
    diagnostics = ",".join(f"{o}:{'none' if v is None else v.hex()}" for o, v in got.diagnostics)
    value = f"{got.value.numerator:x}/{got.value.denominator:x}"
    return f"{gamma.hex()} {value} {int(got.converged)} {got.order_used} {diagnostics}"


def digest() -> list[str]:
    """One line per series: n, k, pade_order, bits and the SHA-256 of its walks."""
    lines = []
    for n, k, policy, gains in SERIES:
        text = "".join(_record(n, k, g, policy) + "\n" for g in gains)
        sha = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"{n} {k} {policy.pade_order} {policy.bits} {sha}")
    return lines


def test_walks_match_the_golden_digest():
    want = GOLDEN.read_text().splitlines()
    got = digest()
    assert len(got) == len(want)
    assert [g for g, w in zip(got, want) if g != w] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: PYTHONPATH=src python tests/test_walk_golden.py --write", file=sys.stderr)
        sys.exit(2)
    GOLDEN.write_text("".join(line + "\n" for line in digest()))
