"""Write the continued-fraction tables that ship with the package.

    PYTHONPATH=src python -m brightghz._cftables

rewrites src/brightghz/cfractions.bin from the code: the complete value
qd runs of the three-beam series of every tuple number the auto cutoff can
reach (0..CUTOFF_CAP) at the default policy's length and precision, each
checked against its check run.  The file is one block read whole: a
little-endian uint32 table count; per table a 20-byte entry (its name in
16 ASCII bytes, its coefficient count and the byte width of each
coefficient, both uint16); then each table's integers a_i 2**F in that
width, little-endian two's complement.  A reader slices the block and
decodes only the coefficients a walk reads, with no per-line parse and no
decompression.  Each series is taken as the unreduced pairs (P[k, k + 2j],
(k + 2j)!) that series_core forms and state's resummers hold, so every
table is named by the key those resummers look up, a checksum of
everything that fixes its numbers (see pade._plan): a table is read only
where the code would compute those same numbers.  Run it after any change
that moves those tables or their names (the recurrence, the form of the
pairs, the qd algorithm, its contexts or the default policy); the test
suite regenerates them and fails while the shipped file is stale.
"""

from __future__ import annotations

from brightghz import pade
from brightghz.series_core import _series_pairs
from brightghz.state import CUTOFF_CAP, DEFAULT_POLICY


def _archive() -> bytes:
    """The shipped archive's bytes, as the code computes them now."""
    length = 2 * DEFAULT_POLICY.pade_order + 1
    series = (_series_pairs(k, 3, length) for k in range(CUTOFF_CAP + 1))
    return pade._table_archive(series, DEFAULT_POLICY.bits)


if __name__ == "__main__":
    data = _archive()
    pade._TABLES.write_bytes(data)
    print(f"wrote {len(data)} bytes to {pade._TABLES}")
