"""Every top-level import of a package module is read somewhere in it."""

import ast
from pathlib import Path

import heunlab

PACKAGE = Path(heunlab.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == [(2, "math"), (4, "a")]


def test_package_modules_read_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
