"""The package's public surface: production names only, one CSV writer."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brightghz
from brightghz import (
    DiagonalResummer,
    build_bghz,
    c_series,
    evaluate_mermin,
    evaluate_w2,
    tensor_t,
)

LAYERS = ("series_core", "pade", "state", "stokes", "nonclassicality", "cli")
PACKAGE_DIR = Path(brightghz.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _imports_oracles(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.endswith("oracles") or any(a.name == "oracles" for a in node.names)
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "oracles" for a in node.names)
    return False


def _imports_mpmath(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "mpmath"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "mpmath" for a in node.names)
    return False


def _library_block() -> str:
    """The python block of the README's "Library" section."""
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_public_surface():
    # the package exports exactly what the layers declare, and every name resolves
    layers = [importlib.import_module(f"brightghz.{name}") for name in LAYERS]
    declared = set().union(*(getattr(m, "__all__", ()) for m in layers))
    assert sorted(brightghz.__all__) == sorted(declared)
    assert len(set(brightghz.__all__)) == len(brightghz.__all__)
    for module in layers:
        for name in getattr(module, "__all__", ()):
            assert getattr(brightghz, name) is getattr(module, name), name

    # no module of the package imports mpmath or the closed forms in
    # oracles, which only the tests and the benchmark read, and none writes
    # CSV outside the CLI emitter
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not _imports_oracles(node), f"{path.name} imports oracles"
            assert not _imports_mpmath(node), f"{path.name} imports mpmath"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.startswith("dump_"), f"{path.name}: {node.name}"

    # the README's library example imports only public names
    block = _library_block()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "brightghz"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(brightghz.__all__)


def test_readme_library_block_prints_what_its_comments_say(capsys):
    # every print in the block writes one line; a line whose comment starts
    # with a number followed by "..." must print a value starting with it
    block = _library_block()
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    stated = {}
    for call, out in zip(calls, printed):
        comment = re.search(r"\)\s+#\s*(\d+\.\d+)\.\.\.", call)
        if comment:
            expr = call[len("print(") : comment.start()]
            stated[expr] = comment.group(1)
            assert out.startswith(comment.group(1)), (expr, out)
    assert stated == {
        "mermin_lhs(0.5)": "2.3194",
        "gamma_threshold()": "0.77007",
        "eta_threshold(0.05)": "0.7918",
    }


_LADDER = DiagonalResummer(c_series(4, 3, 41).coeffs)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: evaluate_mermin(0.352, state=build_bghz(0.352)), id="mermin"),
        pytest.param(lambda: evaluate_w2(0.075, True, state=build_bghz(0.075)), id="w2"),
        pytest.param(lambda: tensor_t(0.58, state=build_bghz(0.58)), id="tensor"),
        pytest.param(lambda: _LADDER.resum(Fraction(-1, 4), max_order=20), id="walked"),
        pytest.param(lambda: _LADDER.resum(0, max_order=20), id="summed_polynomial"),
    ],
)
def test_records_built_past_init_match_their_dataclass(make):
    # records built without __init__ (series_core._record) hold exactly their
    # fields, a resummation the rounded pair _dyadic in place of value until
    # value is read, and behave as the record __init__ builds from them
    record = make()
    names = [field.name for field in dataclasses.fields(record)]
    held = set(names)
    if "_dyadic" in vars(record):
        held = held - {"value"} | {"_dyadic"}
    assert set(vars(record)) == held
    twin = type(record)(**{name: getattr(record, name) for name in names})
    assert record == twin and repr(record) == repr(twin)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[1], getattr(record, names[1]))
    changed = dataclasses.replace(record, **{names[0]: getattr(record, names[0])})
    assert type(changed) is type(record) and changed == record


# Small grids of the six commands: the statistics, a threshold search, a
# loss scan at the cutoff cap and both projected witnesses.
RUNTIME_COMMANDS = [
    ["--cmd", "table1"],
    ["--cmd", "pk_curve", "--n", "3", "--steps", "2"],
    ["--cmd", "mermin", "--gamma-min", "0.7", "--gamma-max", "0.8", "--steps", "2"],
    ["--cmd", "eta", "--gamma-min", "0.352", "--steps", "1"],
    ["--cmd", "w1", "--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2", "--projected"],
    ["--cmd", "w2", "--gamma-min", "0.1", "--gamma-max", "0.3", "--steps", "2", "--projected"],
]


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports the package under test."""
    path = [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_commands_run_without_mpmath(tmp_path):
    # a fresh interpreter runs every command and never loads mpmath, which
    # only the tests need
    code = (
        "import sys\n"
        "from brightghz.cli import main\n"
        f"for i, argv in enumerate({RUNTIME_COMMANDS!r}):\n"
        "    assert main([*argv, '--out', f'{sys.argv[1]}/{i}.csv']) == 0, argv\n"
        "assert 'mpmath' not in sys.modules, 'a command loaded mpmath'\n"
    )
    run = _fresh_python(code, str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert len(list(tmp_path.glob("*.csv"))) == len(RUNTIME_COMMANDS)


def test_every_module_imports_without_mpmath():
    # a fresh interpreter in which importing mpmath fails imports every
    # module of the package, the table writer and the closed forms included
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import brightghz\n"
        "names = [m.name for m in pkgutil.iter_modules(brightghz.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module(f'brightghz.{name}')\n"
        "print(' '.join(sorted(names)))\n"
    )
    run = _fresh_python(code)
    assert run.returncode == 0, run.stderr
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert run.stdout.split() == sorted(modules)
