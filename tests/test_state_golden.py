"""Golden digest of the photon ladder: every built state and distribution, bit for bit.

64 gains (60 drawn with seed 19 in (0.01, 0.85), plus 0.352, which reaches
the cutoff cap, 0.77 and two tiny gains) under six policies: the shipped
tables' own 256 bits with an auto cutoff and with a pinned cutoff of 12,
320 bits with a pinned cutoff of 20, the 64-bit floor with an auto cutoff,
and the default 128 bits with an auto cutoff and with a pinned cutoff of 12.
Per policy and beam count one line holds the SHA-256 of every record: for
n = 3 the state build_bghz builds (cutoff, norm_residual, closed-form t
and vacuum probability as float.hex, the bytes of its box and of its shell
moments, then the bytes of its vacuum-projected twin's box and moments),
and for n = 1, 2 and 3 the photon_distribution (probs, tail_bound and mean
as float.hex, diverged).
An error is recorded by its repr.  So a mismatch names the policy and the
beam count.

Regenerate the golden file with the commit the contract pins:

    PYTHONPATH=src python tests/test_state_golden.py --write

Any other arguments print a usage line and exit 2, writing nothing.
"""

import hashlib
import random
import sys
from pathlib import Path

from brightghz.pade import _SHIPPED_BITS
from brightghz.state import (
    DEFAULT_POLICY,
    NumericPolicy,
    build_bghz,
    photon_distribution,
)

GOLDEN = Path(__file__).parent / "data" / "state_digest.txt"

_draw = random.Random(19)
GAINS = [_draw.uniform(0.01, 0.85) for _ in range(60)] + [0.352, 0.77, 1e-3, 5e-4]
POLICIES = (
    NumericPolicy(bits=_SHIPPED_BITS),
    NumericPolicy(bits=_SHIPPED_BITS, cutoff=12),
    NumericPolicy(bits=320, cutoff=20),
    NumericPolicy(bits=64),
    DEFAULT_POLICY,
    NumericPolicy(cutoff=12),
)


def _hex(value) -> str:
    return "none" if value is None else value.hex()


def _state_record(gamma: float, policy: NumericPolicy) -> bytes:
    try:
        state = build_bghz(gamma, policy)
    except Exception as err:  # noqa: BLE001 - a failure is part of the record
        return repr(err).encode()
    # the moment rows as first recorded: M_0..M_3, then the complex band moment
    rows = state._moments
    band = rows[4] + 1j * rows[5]
    head = f"{state.cutoff} {state.norm_residual.hex()}".encode()
    values = f"{state._closed_form_t.hex()} {state._vacuum_probability.hex()}".encode()
    try:
        twin = state._vacuum_projected
        projected = b" ".join((twin._box.tobytes(), twin._moments.tobytes()))
    except ValueError as err:  # a state that holds vacuum only
        projected = repr(err).encode()
    record = (head, state._box.tobytes(), rows[:4].tobytes(), band.tobytes(), values, projected)
    return b" ".join(record)


def _distribution_record(n: int, gamma: float, policy: NumericPolicy) -> bytes:
    try:
        dist = photon_distribution(n, gamma, policy)
    except Exception as err:  # noqa: BLE001 - a failure is part of the record
        return repr(err).encode()
    probs = ",".join(p.hex() for p in dist.probs)
    return f"{probs} {_hex(dist.tail_bound)} {_hex(dist.mean)} {int(dist.diverged)}".encode()


def digest() -> list[str]:
    """One line per policy and beam count: pade_order, bits, cutoff, n and a SHA-256."""
    lines = []
    for policy in POLICIES:
        for n in (1, 2, 3):
            sha = hashlib.sha256()
            for gamma in GAINS:
                sha.update(gamma.hex().encode() + b"\n")
                if n == 3:
                    sha.update(_state_record(gamma, policy) + b"\n")
                sha.update(_distribution_record(n, gamma, policy) + b"\n")
            cutoff = "auto" if policy.cutoff is None else policy.cutoff
            lines.append(f"{policy.pade_order} {policy.bits} {cutoff} {n} {sha.hexdigest()}")
    return lines


def test_states_and_distributions_match_the_golden_digest():
    want = GOLDEN.read_text().splitlines()
    got = digest()
    assert len(got) == len(want)
    assert [g for g, w in zip(got, want) if g != w] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: PYTHONPATH=src python tests/test_state_golden.py --write", file=sys.stderr)
        sys.exit(2)
    GOLDEN.write_text("".join(line + "\n" for line in digest()))
