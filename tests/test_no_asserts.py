"""No ``assert`` statement under ``src/voxpick``: ``python -O`` strips them,
and a runtime invariant must hold under it too (``pipeline._invariant``)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voxpick"


def _asserts(tree: ast.Module):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_under_src_has_an_assert():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _asserts(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "\n".join(found)


def test_the_scan_finds_a_nested_assert():
    assert _asserts(ast.parse("def f(x):\n    if x:\n        assert x, 'x'\n")) == [3]
