"""The CLI goldens: the one list of cases, and the contract each is held to.

Each case is a command line, the exit code it must give, and a golden CSV
in tests/data/cli named after it.  Each covers a row kind: table1 and
pk_curve statistics (one, two and three beams, and three beams at policies
whose continued-fraction tables are computed at run time rather than
shipped, one of them at the 64-bit floor, and three beams at a pinned
cutoff, whose tail lies far below the auto cutoff's target, and one beam at
a pinned cutoff from gain 0, whose zero weights are not flagged diverged),
dense one- and two-beam pk_curve grids whose gains cross those where the
tail target sets the auto cutoff, a Mermin grid that brackets the crossing,
eta rows that are violated, outside the efficiency window and not violated,
one eta row at a gain whose auto cutoff reaches CUTOFF_CAP (the largest
amplitude box), both projected witnesses, the unprojected w2 agreement
column up to a gain at CUTOFF_CAP, a witness grid with one failed point
(exit 2) and a Mermin grid where every point fails (exit 1, the CSV still
written).

table1 and pk_curve must match their golden byte for byte.  The Stokes
commands end in floating-point sums over each state's moment matrix (a
form's weight rows times the moments, summed by NumPy's own reduction),
whose last digits depend on the summation order, so their numeric cells
need only agree to 1e-12 relative (1e-12 absolute below magnitude 1, where
the agreement diagnostics are rounding noise); comments, headers, row
counts and every non-numeric cell must match exactly.  That holds each
threshold comment line ("# threshold gamma = ..." and "# eta threshold at
gamma = ...: ...") byte for byte, so a change that moves a threshold's last
digit regenerates that golden and states the move.  No byte-held line may
depend on the BLAS kernel, which OpenBLAS picks by CPU: CI runs the golden
tests again with OPENBLAS_CORETYPE forced to two kernels.

A Mermin CSV is also held to itself: the gain of its "# threshold gamma =
x" line must lie strictly between the two grid gains where its lhs column
first falls through 2 (above 2, then at or below it), and "none" only where
no such pair exists.  So a threshold outside its own rows' bracket fails
even against a golden regenerated to match it.

stderr is held by the exit code: empty on exit 0; on exit 2 at least one
line, each a "warning: " line saying why (a warning raised on the way, or a
diverged or failed row); on exit 1 at least one line.

tests/test_cli_golden.py holds main(), writing to a file, to these cases.
Run as a script,

    python tests/cli_cases.py

runs every case through the brightghz console script found on PATH,
with the CSV on stdout, and exits non-zero if any exit code, stderr or
output breaks the contract.  It needs the standard library only, so it runs against an
install that has no test extras.
"""

import math
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "cli"

# name, argv, expected exit code
CASES = [
    ("table1", ["--cmd", "table1"], 0),
    ("pk_curve_n1", ["--cmd", "pk_curve", "--n", "1", "--steps", "3"], 0),
    ("pk_curve_n2", ["--cmd", "pk_curve", "--n", "2", "--steps", "3"], 0),
    (
        "pk_curve_n1_dense",
        ["--cmd", "pk_curve", "--n", "1", "--gamma-min", "0.01", "--gamma-max", "0.85",
         "--steps", "29"],
        0,
    ),
    (
        "pk_curve_n2_dense",
        ["--cmd", "pk_curve", "--n", "2", "--gamma-min", "0.01", "--gamma-max", "0.85",
         "--steps", "29"],
        0,
    ),
    ("pk_curve_n3", ["--cmd", "pk_curve", "--n", "3", "--steps", "2"], 0),
    (
        "pk_curve_n3_order60",
        ["--cmd", "pk_curve", "--n", "3", "--steps", "2", "--pade-order", "60", "--bits", "320"],
        0,
    ),
    ("pk_curve_n3_bits64", ["--cmd", "pk_curve", "--n", "3", "--steps", "3", "--bits", "64"], 0),
    # the gamma = 0.85 row is flagged diverged, so the command exits 2
    ("pk_curve_n3_cutoff8", ["--cmd", "pk_curve", "--n", "3", "--steps", "3", "--cutoff", "8"], 2),
    # gain 0 retains zero weights past k = 0, which are no divergence
    (
        "pk_curve_n1_gain0_cutoff4",
        ["--cmd", "pk_curve", "--n", "1", "--gamma-min", "0", "--gamma-max", "0.1",
         "--steps", "2", "--cutoff", "4"],
        0,
    ),
    (
        "mermin_crossing",
        ["--cmd", "mermin", "--gamma-min", "0.7", "--gamma-max", "0.8", "--steps", "3"],
        0,
    ),
    (
        "eta_window",
        ["--cmd", "eta", "--gamma-min", "0.45", "--gamma-max", "0.85", "--steps", "3",
         "--eta-max", "0.9"],
        0,
    ),
    ("eta_cap", ["--cmd", "eta", "--gamma-min", "0.352", "--steps", "1"], 0),
    (
        "w1_projected",
        ["--cmd", "w1", "--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2",
         "--projected"],
        0,
    ),
    (
        "w2_projected",
        ["--cmd", "w2", "--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2",
         "--projected"],
        0,
    ),
    (
        "w2_unprojected",
        ["--cmd", "w2", "--gamma-min", "0.1", "--gamma-max", "0.35", "--steps", "2"],
        0,
    ),
    (
        "w1_failed_point",
        ["--cmd", "w1", "--gamma-min", "0.3", "--gamma-max", "0.59", "--steps", "2",
         "--cutoff", "45"],
        2,
    ),
    (
        "mermin_all_failed",
        ["--cmd", "mermin", "--gamma-min", "0.55", "--gamma-max", "0.59", "--steps", "2",
         "--cutoff", "45"],
        1,
    ),
]

BYTE_EXACT = {"table1", "pk_curve"}


def _number(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return None if math.isnan(value) else value


def _assert_cells_match(got_line, want_line):
    got, want = got_line.split(","), want_line.split(",")
    assert len(got) == len(want), (got_line, want_line)
    for g, w in zip(got, want):
        gv, wv = _number(g), _number(w)
        if gv is None or wv is None:
            assert g == w, (got_line, want_line)
        else:
            assert abs(gv - wv) <= 1e-12 * max(1.0, abs(wv)), (got_line, want_line)


def assert_stokes_csv_matches(got: str, want: str) -> None:
    """The contract for a Stokes command's CSV: the same lines, comments
    byte for byte, numeric cells to the 1e-12 rule above."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), (len(got_lines), len(want_lines))
    for g, w in zip(got_lines, want_lines):
        if w.startswith("#"):
            assert g == w, (g, w)
        else:
            _assert_cells_match(g, w)


def assert_threshold_in_bracket(csv: str) -> None:
    """A Mermin CSV's threshold line against its rows, by the rule above."""
    lines = csv.splitlines()
    if "gamma,lhs,agreement" not in lines:
        return
    rows = [line.split(",") for line in lines if line[:1].isdigit()]
    points = [(float(gamma), float(lhs)) for gamma, lhs, _ in rows]
    brackets = [(a, b) for (a, la), (b, lb) in zip(points, points[1:]) if la > 2.0 >= lb]
    for line in lines:
        if line.startswith("# threshold gamma = "):
            value = line.removeprefix("# threshold gamma = ")
            if value.startswith("none"):
                assert not brackets, f"{line!r}, but the lhs falls through 2 in {brackets[0]}"
            else:
                assert brackets, f"{line!r}, but the lhs never falls through 2"
                a, b = brackets[0]
                assert a < float(value) < b, f"{line!r} lies outside its bracket ({a}, {b})"


def assert_matches_golden(name: str, argv: list[str], got: bytes) -> None:
    """The case's CSV, got, against its golden, by the rule for its command,
    and a Mermin threshold against its own rows."""
    want = (GOLDEN / f"{name}.csv").read_bytes()
    if argv[1] in BYTE_EXACT:
        assert got == want, "not byte for byte its golden"
    else:
        assert_stokes_csv_matches(got.decode(), want.decode())
        assert_threshold_in_bracket(got.decode())


def assert_stderr_fits(code: int, err: str) -> None:
    """stderr against the exit code, by the rule above."""
    lines = err.splitlines()
    if code == 0:
        assert err == "", f"exit 0 with stderr {err!r}"
    elif code == 2:
        assert lines and all(line.startswith("warning: ") for line in lines), (
            f"exit 2 with stderr {err!r}"
        )
    else:
        assert lines, f"exit {code} with nothing on stderr"


def main() -> int:
    """Run every case through the brightghz on PATH; 1 if any fails."""
    if not __debug__:
        sys.exit("the checks are asserts: run tests/cli_cases.py without -O")
    failed = 0
    for name, argv, code in CASES:
        run = subprocess.run(["brightghz", *argv], capture_output=True)
        try:
            assert run.returncode == code, (
                f"exit {run.returncode}, expected {code}: {run.stderr.decode()}"
            )
            assert_stderr_fits(run.returncode, run.stderr.decode())
            assert_matches_golden(name, argv, run.stdout)
        except AssertionError as err:
            failed += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
