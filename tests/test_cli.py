"""End-to-end checks of the CSV command line front end."""

import functools
import itertools
import math
import subprocess
import sys

import pytest

from brightghz import nonclassicality, pade, state
from brightghz.cli import EXIT_HARD, EXIT_OK, EXIT_WARNINGS, main, parse_config
from brightghz.oracles import coherent_pk, squeezed_pk


def read_csv(path):
    comments, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line.split(","))
    return comments, rows[0], rows[1:]


def run(tmp_path, *args):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    comments, header, rows = read_csv(out)
    return code, comments, header, rows


def test_table1_matches_closed_form_columns(tmp_path):
    code, comments, header, rows = run(tmp_path, "--cmd", "table1")
    assert code == EXIT_OK
    assert comments[0].startswith("# policy:")
    assert header == ["k", "p_n1", "p_n2", "p_n3"]
    assert len(rows) == 11
    for row in rows:
        k = int(row[0])
        assert float(row[1]) == pytest.approx(coherent_pk(0.8, k), rel=1e-10)
        assert float(row[2]) == pytest.approx(squeezed_pk(0.8, k), rel=1e-10)


def test_table1_zero_gain_is_pure_vacuum(tmp_path):
    code, _, _, rows = run(tmp_path, "--cmd", "table1", "--gamma-min", "0")
    assert code == EXIT_OK
    assert [float(c) for c in rows[0][1:]] == [1.0, 1.0, 1.0]
    for row in rows[1:]:
        assert all(float(c) == 0.0 for c in row[1:])


def test_output_is_byte_identical_across_runs(tmp_path):
    args = ["--cmd", "w1", "--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main([*args, "--out", str(first)]) == EXIT_OK
    assert main([*args, "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_mermin_sweep_reports_threshold(tmp_path, capsys):
    code, comments, header, rows = run(
        tmp_path,
        "--cmd", "mermin",
        "--gamma-min", "0.7", "--gamma-max", "0.8", "--steps", "3",
    )
    assert code == EXIT_OK
    assert header == ["gamma", "lhs", "agreement"]
    assert len(rows) == 3
    threshold_lines = [c for c in comments if "threshold gamma" in c]
    assert len(threshold_lines) == 1
    value = float(threshold_lines[0].split("=")[1])
    assert value == pytest.approx(0.77, abs=0.02)
    # echoed to the terminal because the CSV went to a file
    assert "threshold gamma" in capsys.readouterr().out


def test_mermin_sweep_without_crossing_says_so(tmp_path):
    code, comments, _, _ = run(
        tmp_path,
        "--cmd", "mermin",
        "--gamma-min", "0.1", "--gamma-max", "0.2", "--steps", "2",
    )
    assert code == EXIT_OK
    assert any("threshold gamma = none" in c for c in comments)


def test_eta_single_point(tmp_path):
    code, _, header, rows = run(
        tmp_path, "--cmd", "eta", "--gamma-min", "0.05", "--steps", "1",
    )
    assert code == EXIT_OK
    assert header == ["gamma", "eta_tr", "violated"]
    assert rows[0][2] == "true"
    assert float(rows[0][1]) == pytest.approx(0.79, abs=0.01)


def test_witness_small_gain_limits(tmp_path):
    code, _, _, rows = run(
        tmp_path,
        "--cmd", "w1", "--gamma-min", "0.02", "--steps", "1", "--projected",
    )
    assert code == EXIT_OK
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=0.005)

    code, comments, _, rows = run(
        tmp_path,
        "--cmd", "w2", "--gamma-min", "0.02", "--steps", "1", "--projected",
    )
    assert code == EXIT_OK
    assert "projected=true" in comments[0]
    assert float(rows[0][1]) == pytest.approx(-3.0, abs=0.01)
    assert float(rows[0][2]) < 1e-8


@pytest.mark.filterwarnings("ignore:gain 0.9")
def test_pk_curve_flags_divergence_with_exit_code(tmp_path):
    # the validity warning is the point here: it must turn into exit code 2
    code, _, header, rows = run(
        tmp_path,
        "--cmd", "pk_curve",
        "--gamma-min", "0.9", "--gamma-max", "0.95", "--steps", "2",
    )
    assert code == EXIT_WARNINGS
    assert header[-1] == "diverged"
    assert rows[-1][-1] == "true"
    # probabilities still come out normalized-ish even past the guard
    assert sum(float(c) for c in rows[0][1:12]) < 1.0 + 1e-9


def test_pk_curve_infinite_tail_exits_with_warning(tmp_path):
    # weights that grow past the cutoff give an infinite tail estimate,
    # printed as inf and flagged diverged, with exit code 2
    code, _, header, rows = run(
        tmp_path,
        "--cmd", "pk_curve",
        "--n", "1", "--cutoff", "1", "--gamma-min", "1.5", "--steps", "1",
    )
    assert code == EXIT_WARNINGS
    assert header[-2:] == ["tail", "diverged"]
    assert rows == [["1.5", *rows[0][1:-2], "inf", "true"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["--cmd", "mermin", "--steps", "0"],
        ["--cmd", "mermin", "--gamma-min", "0.5", "--gamma-max", "0.2"],
        ["--cmd", "w1", "--gamma-min", "-0.1", "--steps", "1"],
        ["--cmd", "eta", "--eta-min", "0.9", "--eta-max", "0.5"],
        ["--cmd", "pk_curve", "--bits", "16", "--steps", "1"],
        ["--cmd", "eta", "--gamma-min", "0.05", "--steps", "1", "--cutoff", "-1"],
        ["--cmd", "table1", "--tol", "0.5"],
        ["--cmd", "table1", "--gamma-min", "nan"],
        ["--cmd", "table1", "--gamma-min", "inf"],
        ["--cmd", "w1", "--gamma-max", "inf"],
    ],
)
def test_invalid_config_exits_hard(argv, capsys):
    assert main(argv) == EXIT_HARD
    assert "error:" in capsys.readouterr().err


def test_failed_bisection_aborts_without_csv(tmp_path, monkeypatch, capsys):
    # the grid brackets the crossing in (0.75, 0.8); every LHS evaluation
    # inside that bracket fails, so no threshold line can be written
    lhs = nonclassicality.mermin_lhs

    def failing_inside(gamma, *args):
        if 0.75 < gamma < 0.8:
            raise state.ResummationError("stub ladder failure", 40)
        return lhs(gamma, *args)

    monkeypatch.setattr(nonclassicality, "mermin_lhs", failing_inside)
    out = tmp_path / "out.csv"
    argv = ["--cmd", "mermin", "--gamma-min", "0.7", "--gamma-max", "0.8", "--steps", "3"]
    assert main([*argv, "--out", str(out)]) == EXIT_HARD
    assert "error: stub ladder failure" in capsys.readouterr().err
    assert not out.exists()


def test_witness_commands_never_bisect(tmp_path, monkeypatch):
    # w1 and w2 print no threshold, so a bracketed crossing stays unbisected
    calls = []
    monkeypatch.setattr(nonclassicality, "find_crossing", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(nonclassicality, "witness_w1", lambda g, projected, policy: g - 0.5)
    code, _, _, rows = run(
        tmp_path, "--cmd", "w1", "--gamma-min", "0.2", "--gamma-max", "0.8", "--steps", "2",
    )
    assert code == EXIT_OK
    assert [float(r[1]) for r in rows] == pytest.approx([-0.3, 0.3])
    assert calls == []


def test_bits_default_ignores_environment(monkeypatch):
    # --bits is the one way to set the precision; the old variable is inert
    monkeypatch.setenv("BRIGHTGHZ_BITS", "320")
    cfg = parse_config(["--cmd", "table1"])
    assert cfg.policy.bits == state.DEFAULT_POLICY.bits == 128
    cfg = parse_config(["--cmd", "table1", "--bits", "256"])
    assert cfg.policy.bits == 256


def test_stdout_is_default_sink(capsys):
    assert main(["--cmd", "w1", "--gamma-min", "0.1", "--steps", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# policy:")
    assert "gamma,w1" in out


def test_grid_endpoints_are_exact():
    # gamma_min + span * (steps - 1) / (steps - 1) missed the last two ends
    # by an ulp
    for cmd, lo, hi, steps in [
        ("w1", "0.1", "0.7", 7),
        ("pk_curve", "0.03", "0.3", 2),
        ("pk_curve", "0", "0.47", 29),
    ]:
        cfg = parse_config(
            ["--cmd", cmd, "--gamma-min", lo, "--gamma-max", hi, "--steps", str(steps)]
        )
        grid = cfg.grid()
        assert len(grid) == steps
        assert grid[0] == float(lo) and grid[-1] == float(hi), grid
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_nan_cells_render_as_nan_token(tmp_path):
    # eta outside the allowed window is reported as not violated, not an error
    code, _, _, rows = run(
        tmp_path,
        "--cmd", "eta",
        "--gamma-min", "0.05", "--steps", "1", "--eta-max", "0.5",
    )
    assert code == EXIT_OK
    assert rows[0][2] == "false"
    assert math.isnan(float(rows[0][1]))


def test_broken_continued_fraction_prints_no_number(tmp_path, monkeypatch):
    # a qd table cut after two orders stops every ladder short of a settled
    # value, and an empty one leaves no order with a value at all; either way
    # each gain becomes an error row and the run fails instead of printing a
    # resummed probability.  The shipped tables are cut the same way.
    qd, stored = pade._qd, pade._stored_table

    def cut(table, keep):
        return None if table is None else itertools.islice(table, keep)

    for keep, extra, count in ((4, [], 17), (0, ["--steps", "2"], 2)):
        monkeypatch.setattr(pade, "_qd", lambda *args: itertools.islice(qd(*args), keep))
        monkeypatch.setattr(pade, "_stored_table", lambda name: cut(stored(name), keep))
        weights = functools.lru_cache(32)(state._retained_weights.__wrapped__)
        monkeypatch.setattr(state, "_retained_weights", weights)
        monkeypatch.setattr(state, "_resummer", functools.cache(state._resummer.__wrapped__))
        code, _, header, rows = run(tmp_path, "--cmd", "pk_curve", *extra)
        assert code == EXIT_HARD
        assert len(rows) == count
        for row in rows:
            assert row[1:] == ["nan"] * (len(header) - 2) + ["error"]


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # main parses with one parser per process; each run in one process,
    # a flag given then left out, a pinned cutoff then the auto one and a
    # bad argv between two good ones, prints what a fresh process prints
    grid = ["--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2"]
    runs = [
        ["--cmd", "w1", *grid, "--projected"],
        ["--cmd", "w1", *grid],
        ["--cmd", "pk_curve", "--steps", "2", "--cutoff", "12"],
        ["--cmd", "pk_curve", "--steps", "2"],
        ["--cmd", "table1", "--gamma-min", "0.4"],
        ["--cmd", "table1", "--steps", "two"],
        ["--cmd", "table1"],
    ]
    codes = []
    for argv in runs:
        try:
            codes.append(main(argv))
        except SystemExit as exit:
            codes.append(exit.code)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "brightghz.cli", *argv], capture_output=True, text=True
        )
        assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes[-3:] == [EXIT_OK, 2, EXIT_OK]
