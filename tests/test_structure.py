"""Source-level invariants of the library, read with ``ast``: modules share
only public names, import at module level only, and no cache grows without
bound."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert any(p.name == "realizer.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = [
        f"line {node.lineno} in {fn.name}"
        for fn in ast.walk(parse(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found


def is_unbounded_lru_cache(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache":
        return False
    maxsize = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in maxsize)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache(path):
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call) and is_unbounded_lru_cache(node):
            found.append(f"line {node.lineno}: lru_cache(maxsize=None)")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                found.append(f"line {node.lineno}: functools.cache")
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"line {node.lineno}: functools.cache")
    assert not found
