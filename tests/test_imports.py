"""Every import in the package is used, and every exported name resolves.

Deleting a function tends to leave its imports and exports behind; this
catches both with the standard library's ``ast``.
"""

import ast
import pathlib

import pytest

import hypersets

PACKAGE = pathlib.Path(hypersets.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else mentions.

    A name counts as used when it is loaded, named in a string annotation,
    or listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        a for node in ast.walk(tree)
        for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if a is not None
    ]
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = 'from typing import Mapping, Optional\nimport os\nx: "Mapping[int, int]"\nos.sep\n'
    assert unused_imports(source) == ["Optional (line 1)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_every_exported_name_resolves():
    missing = [name for name in hypersets.__all__ if not hasattr(hypersets, name)]
    assert missing == []
    assert len(set(hypersets.__all__)) == len(hypersets.__all__)
