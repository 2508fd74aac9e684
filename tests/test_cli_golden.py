"""Byte contract of the CSV front end against checked-in golden files.

main() writes each case of tests/cli_cases.py, the one list of CLI
goldens, to a file through --out; the file is compared with its golden,
and stderr with the exit code, by the rules there.  CI also runs the same
cases through the installed console script, with the CSV on stdout
(python tests/cli_cases.py).

Regenerate the golden files with the commit the contract pins:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import sys

import pytest

from brightghz.cli import main
from cli_cases import CASES, GOLDEN, assert_matches_golden, assert_stderr_fits


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_golden(name, argv, code, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == code
    assert_stderr_fits(code, capsys.readouterr().err)
    assert_matches_golden(name, argv, out.read_bytes())


def test_every_golden_file_has_a_case_and_every_case_a_file():
    # a golden with no case would go stale unseen
    names = [name for name, _, _ in CASES]
    assert len(set(names)) == len(names)
    assert {path.stem for path in GOLDEN.glob("*.csv")} == set(names)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv, code in CASES:
        got = main([*argv, "--out", str(GOLDEN / f"{name}.csv")])
        if got != code:
            sys.exit(f"{name}: exit {got}, expected {code}")
