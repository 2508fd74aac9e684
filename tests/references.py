"""Random exchange-diagonal states and binomial shell blocks shared by the tests."""

import cmath
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from brightghz.oracles import binomial_shell_rotation
from brightghz.state import BGHZState

SQ2 = math.sqrt(2.0)

# Mode unitaries of the rotated bases, new modes = U @ old (H/V) modes: the
# inputs of the binomial reference for the shell blocks.
BASES = {
    # diagonal: difference of +-45 mode counts is adag b + bdag a
    1: np.array([[1, 1], [1, -1]], dtype=complex) / SQ2,
    # circular: difference of R/L mode counts is i(bdag a - adag b)
    2: np.array([[1, -1j], [1, 1j]], dtype=complex) / SQ2,
}


def reference_block(basis, values, k):
    """Shell-k block of the operator taking values[kappa] on kappa photons in
    the measured mode of basis 1, 2 or 3, by binomial rotation."""
    if basis == 3:
        return np.diag(values)
    rot = binomial_shell_rotation(BASES[basis], k)
    return rot.conj().T @ (values[:, None] * rot)


def amplitude_boxes(max_cutoff):
    """(r, phase, keep) for every entry (q, m) of a box with cutoff up to max_cutoff."""
    return st.integers(0, max_cutoff).flatmap(
        lambda cutoff: st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi), st.booleans()),
            min_size=(cutoff + 1) ** 2,
            max_size=(cutoff + 1) ** 2,
        )
    )


def diagonal_state(entries, symmetric=False):
    """Unit-norm BGHZState of an amplitude_boxes draw, None if it is (nearly) zero.

    Zeros sit anywhere, so a shell's support may start or end inside it or
    be empty.  symmetric mirrors the entries with q <= m onto their
    transposes, so A[q, m] = A[m, q] like a bright state's box.
    """
    side = math.isqrt(len(entries))
    raw = {
        (q, m): r * cmath.exp(1j * phi) if keep else 0j
        for (q, m), (r, phi, keep) in zip(itertools.product(range(side), repeat=2), entries)
    }
    if symmetric:
        raw = {(q, m): raw[min(q, m), max(q, m)] for q, m in raw}
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    if norm <= 1e-6:
        return None
    amps = {qm: a / norm for qm, a in raw.items()}
    return BGHZState(gamma=0.0, cutoff=side - 1, amps=amps, norm_residual=0.0)
