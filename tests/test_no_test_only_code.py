"""Every module-level function and class in ``src/voxpick`` is used by the
program: its name is referenced somewhere in ``src/voxpick`` outside its
own body (a call, an attribute such as ``grid_planner._hop_bound``, or an
import, which ``test_unused_imports`` requires to be used or exported).
Code that only its own tests call fails here."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "voxpick").glob("*.py"))


def _unreferenced(trees: dict):
    """(module, line, name) of each module-level def or class in ``trees``
    (module name -> ``ast.Module``) whose name no node references outside
    the definition's own body."""
    defined = {}  # name -> [(module, node)]
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append((module, node))
    referenced = set()
    for module, tree in trees.items():
        own = {}  # a node inside a top-level def -> that def's name
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for node in ast.walk(top):
                    own[id(node)] = top.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if own.get(id(node)) != name:
                referenced.add(name)
    return sorted(
        (module, node.lineno, name)
        for name, defs in defined.items() if name not in referenced
        for module, node in defs
    )


def test_every_module_level_def_is_used_by_the_program():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert "grid_planner.py" in trees
    unused = [f"src/voxpick/{module}:{line}: {name}"
              for module, line, name in _unreferenced(trees)]
    assert not unused, "\n".join(unused)


def test_the_scan_finds_a_def_only_its_own_body_references():
    trees = {
        "a.py": ast.parse(
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Alone:\n    def make(self):\n        return Alone()\n"
            "def caller():\n    return used() + b.imported()\n"
            "def dead():\n    pass\n"
        ),
        "b.py": ast.parse("from .a import caller\ndef imported():\n    pass\n"),
    }
    assert _unreferenced(trees) == [("a.py", 3, "recursive"), ("a.py", 5, "Alone"),
                                    ("a.py", 10, "dead")]
