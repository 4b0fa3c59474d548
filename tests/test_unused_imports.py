"""Every module-level import is used: a name that a module imports must be
referenced in it or listed in its ``__all__``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "voxpick").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module):
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    # an attribute chain such as `np.asarray` starts at a Name, so this
    # also counts module aliases
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used | exported]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, "\n".join(unused)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.x\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]
