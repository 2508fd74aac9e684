"""The package's public surface: production names only, one CSV writer."""

import ast
import importlib
import re
from pathlib import Path

import brightghz

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


def test_public_surface():
    # the package exports exactly what the layers declare, and every name resolves
    layers = [importlib.import_module(f"brightghz.{name}") for name in LAYERS]
    declared = set().union(*(getattr(m, "__all__", ()) for m in layers))
    assert sorted(brightghz.__all__) == sorted(declared)
    assert len(set(brightghz.__all__)) == len(brightghz.__all__)
    for module in layers:
        for name in getattr(module, "__all__", ()):
            assert getattr(brightghz, name) is getattr(module, name), name

    # test references stay in oracles, and no production module writes CSV
    # outside the CLI emitter
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "oracles":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            assert not _imports_oracles(node), f"{path.name} imports oracles"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.startswith("dump_"), f"{path.name}: {node.name}"

    # the README's library example imports only public names
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "brightghz"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(brightghz.__all__)
