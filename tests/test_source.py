"""Hygiene checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dsest"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module, including inside a quoted annotation.  ``from __future__``
    imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:   # a quoted annotation such as "DescriptorSystem"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    # __init__.py is exempt: its imports are the package's re-exports.
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .linalg import kernel, image, Tolerance\n"
              "def f(x) -> 'Tolerance':\n    return np.zeros(1), kernel(x)\n")
    assert unused_imports(source) == ["image (line 4)", "os (line 3)"]
