"""Write the continued-fraction tables that ship with the package.

    PYTHONPATH=src python -m brightghz._cftables

rewrites src/brightghz/cfractions.bin from the code: the complete value
qd runs of the three-beam series of every tuple number the auto cutoff
can reach (0..CUTOFF_CAP) at the default policy's length and at their
own precision, pade._SHIPPED_BITS (256), each checked against its check
run; coarsened, they serve every lower precision and order (see pade).
The file holds the marshal (version 2) bytes of one dict, from each
table's name to the tuple of its integers a_i 2**F; a reader loads it
whole with marshal.loads, with no parse of its own.  Each series is read
off state's own resummers, which hold series_core's unreduced pairs
(P[k, k + 2j], (k + 2j)!), so every table is named by the key they look
up, a checksum of everything that fixes its numbers (see pade._name): a
table is read only where the code would compute those same numbers.  Run
it after any change that moves those tables or their names (the
recurrence, the form of the pairs, the qd algorithm, its precisions, the
shipped precision or the default policy's order); the test suite
regenerates them and fails while the shipped file is stale.
"""

from __future__ import annotations

from brightghz import pade, state
from brightghz.state import CUTOFF_CAP, DEFAULT_POLICY


def _archive() -> bytes:
    """The shipped archive's bytes, as the code computes them now."""
    length = 2 * DEFAULT_POLICY.pade_order + 1
    series = (state._resummer(3, k, length)._pairs for k in range(CUTOFF_CAP + 1))
    return pade._table_archive(series, pade._SHIPPED_BITS)


if __name__ == "__main__":
    data = _archive()
    pade._TABLES.write_bytes(data)
    print(f"wrote {len(data)} bytes to {pade._TABLES}")
