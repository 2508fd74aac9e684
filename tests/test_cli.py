"""End-to-end checks of the CSV command line front end."""

import dataclasses
import functools
import itertools
import math
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import pytest

from brightghz import cli, nonclassicality, pade, state
from brightghz.cli import EXIT_HARD, EXIT_OK, EXIT_WARNINGS, main, parse_config
from brightghz.oracles import coherent_pk, squeezed_pk
from cli_cases import CASES


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--cmd", "table1", "--steps", "x"], "--steps"),
        (["--cmd", "nope"], "--cmd"),
        (["--steps", "3"], "--cmd"),
        (["--cmd", "table1", "--bogus"], "--bogus"),
    ],
)
def test_a_malformed_command_line_exits_1_naming_the_argument(argv, named, capsys):
    # argparse printed its usage and raised SystemExit(2), the code of a run
    # that only warned, where an invalid configuration exits 1
    assert main(argv) == EXIT_HARD
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["--help"])
    assert exit.value.code == EXIT_OK
    assert "--cmd" in capsys.readouterr().out


def test_a_cutoff_past_the_ceiling_exits_1_at_once(capsys):
    # the policy took it, and the cutoff loop ran toward 10**11 photons
    start = time.perf_counter()
    assert main(["--cmd", "table1", "--cutoff", "100000000000"]) == EXIT_HARD
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("error: cutoff must be <= 200")


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
    # a flag given then left out, a pinned cutoff then the auto one, the
    # same warnings twice and a bad argv between two good ones, prints what
    # a fresh process prints, on stderr too
    grid = ["--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2"]
    high = ["--gamma-min", "0.9", "--gamma-max", "0.92", "--steps", "2"]
    runs = [
        ["--cmd", "w1", *grid, "--projected"],
        ["--cmd", "w1", *grid],
        ["--cmd", "pk_curve", "--steps", "2", "--cutoff", "12"],
        ["--cmd", "pk_curve", "--steps", "2"],
        ["--cmd", "pk_curve", *high],
        ["--cmd", "pk_curve", *high],
        ["--cmd", "w1", *high],
        ["--cmd", "table1", "--gamma-min", "0.4"],
        ["--cmd", "table1", "--steps", "two"],
        ["--cmd", "table1"],
    ]
    codes = []
    for argv in runs:
        codes.append(main(argv))
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "brightghz.cli", *argv], capture_output=True, text=True
        )
        assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes[-3:] == [EXIT_OK, EXIT_HARD, EXIT_OK]


def test_failed_point_says_which_gain_and_why(tmp_path, capsys):
    # the one failed gain of the golden case, with the library's own error
    argv = next(argv for name, argv, _ in CASES if name == "w1_failed_point")
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_WARNINGS
    err = capsys.readouterr().err
    with pytest.raises(state.ResummationError) as raised:
        nonclassicality.witness_w1(0.59, False, state.NumericPolicy(cutoff=45))
    assert err == f"warning: gamma=0.58999999999999997: {raised.value}\n"


# One exit rule for all six commands, with each command's library call
# stubbed: outcome(gamma) returns, warns or raises at each gain, and the stub
# then gives a value that brackets no crossing.
GRID = ["--gamma-min", "0.1", "--gamma-max", "0.2", "--steps", "2"]
ROWS = {0.1: "0.10000000000000001", 0.2: "0.20000000000000001"}
GAIN_ROW_COMMANDS = ["pk_curve", "mermin", "eta", "w1", "w2"]


def _stub_library(monkeypatch, command, outcome):
    def distribution(n, gamma, policy):
        outcome(gamma)
        return state.TripleDistribution(
            n=n, gamma=gamma, probs=(1.0,), tail_bound=0.0, mean=0.0, diverged=False
        )

    stubs = {
        "table1": (cli, "photon_distribution", distribution),
        "pk_curve": (cli, "photon_distribution", distribution),
        "mermin": (
            nonclassicality,
            "evaluate_mermin",
            lambda g, policy: outcome(g) or SimpleNamespace(lhs=2.5, reduced=2.5, agreement=0.0),
        ),
        "eta": (nonclassicality, "eta_threshold", lambda g, policy: outcome(g) or 0.8),
        "w1": (nonclassicality, "witness_w1", lambda g, projected, policy: outcome(g) or -0.5),
        "w2": (
            nonclassicality,
            "evaluate_w2",
            lambda g, projected, policy: outcome(g) or SimpleNamespace(value=-0.5, agreement=0.0),
        ),
    }
    monkeypatch.setattr(*stubs[command])


def _fails_at(*gains):
    def outcome(gamma):
        if gamma in gains:
            raise state.ResummationError("stub failure", 40)

    return outcome


def _run_stubbed(tmp_path, monkeypatch, capsys, command, outcome):
    _stub_library(monkeypatch, command, outcome)
    out = tmp_path / "out.csv"
    code = main(["--cmd", command, *GRID, "--out", str(out)])
    return code, out, capsys.readouterr().err


@pytest.mark.parametrize("command", ["table1", *GAIN_ROW_COMMANDS])
def test_clean_run_exits_0_with_nothing_on_stderr(command, tmp_path, monkeypatch, capsys):
    code, out, err = _run_stubbed(tmp_path, monkeypatch, capsys, command, lambda g: None)
    assert (code, err) == (EXIT_OK, "")
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("command", ["table1", *GAIN_ROW_COMMANDS])
def test_warning_exits_2_and_is_printed_once(command, tmp_path, monkeypatch, capsys):
    # table1 warns three times at its one gain, once per beam count
    def outcome(gamma):
        warnings.warn(f"stub warning at {gamma}", RuntimeWarning)

    code, out, err = _run_stubbed(tmp_path, monkeypatch, capsys, command, outcome)
    gains = [0.1] if command == "table1" else [0.1, 0.2]
    assert code == EXIT_WARNINGS
    assert err == "".join(f"warning: stub warning at {g}\n" for g in gains)
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("command", GAIN_ROW_COMMANDS)
def test_one_failed_row_exits_2_and_says_which(command, tmp_path, monkeypatch, capsys):
    code, out, err = _run_stubbed(tmp_path, monkeypatch, capsys, command, _fails_at(0.2))
    assert code == EXIT_WARNINGS
    assert err == f"warning: gamma={ROWS[0.2]}: stub failure\n"
    _, _, rows = read_csv(out)
    assert [row[0] for row in rows] == list(ROWS.values())
    assert rows[0][1] != "nan" and rows[1][1] == "nan"


@pytest.mark.parametrize("command", GAIN_ROW_COMMANDS)
def test_every_row_failed_exits_1_with_the_csv(command, tmp_path, monkeypatch, capsys):
    code, out, err = _run_stubbed(tmp_path, monkeypatch, capsys, command, _fails_at(0.1, 0.2))
    assert code == EXIT_HARD
    assert err == "".join(f"warning: gamma={cell}: stub failure\n" for cell in ROWS.values())
    comments, _, rows = read_csv(out)
    assert [row[0] for row in rows] == list(ROWS.values())
    assert all(row[1] == "nan" for row in rows)
    assert len(comments) == 1


def test_table1_failure_exits_1_without_csv(tmp_path, monkeypatch, capsys):
    # table1 has no gain rows to mark failed, so the error ends the run
    code, out, err = _run_stubbed(tmp_path, monkeypatch, capsys, "table1", _fails_at(0.1))
    assert (code, err) == (EXIT_HARD, "error: stub failure\n")
    assert not out.exists()


def test_diverged_table1_column_exits_2_and_says_which(tmp_path, monkeypatch, capsys):
    distribution = state.photon_distribution

    def three_beams_diverge(n, gamma, policy):
        got = distribution(n, gamma, policy)
        return dataclasses.replace(got, diverged=True) if n == 3 else got

    monkeypatch.setattr(cli, "photon_distribution", three_beams_diverge)
    code, _, _, _ = run(tmp_path, "--cmd", "table1", "--gamma-min", "0.1")
    assert code == EXIT_WARNINGS
    assert capsys.readouterr().err == (
        "warning: gamma=0.10000000000000001: n=3 photon statistics diverged\n"
    )
