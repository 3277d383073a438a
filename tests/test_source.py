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
    read = identifiers(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def identifiers(tree: ast.AST) -> set[str]:
    """Every identifier read in ``tree``, including inside quoted annotations."""
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
    return read


def private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level private function or class, each
    private class followed by ``module.Class.method`` for its methods (dunder
    methods exempt: Python calls them by protocol)."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")]
    return found


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Private definitions whose name no module reads, imports or reads as
    an attribute (``module._helper``, ``solver.method``); names are matched
    across modules."""
    referenced = set()
    for source in sources.values():
        tree = ast.parse(source)
        referenced |= identifiers(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [d for d in private_definitions(sources)
            if d.rsplit(".", 1)[1] not in referenced]


def raised_names(sources: dict[str, str]) -> set[str]:
    """Names of what a ``raise`` statement constructs or re-raises:
    ``raise X(...)``, ``raise module.X(...)`` and ``raise X`` give ``X``."""
    names = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def unraised_exceptions(sources: dict[str, str], candidates: list[str]) -> list[str]:
    """Candidate classes that no ``raise`` names, directly or through a
    subclass (a base of a raised class is caught by its handlers, so it
    stays); classes and bases are matched by name across modules."""
    bases = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id if isinstance(b, ast.Name) else b.attr
                                    for b in node.bases
                                    if isinstance(b, (ast.Name, ast.Attribute))}
    live, frontier = set(), raised_names(sources)
    while frontier:
        live |= frontier
        frontier = set().union(*(bases.get(c, set()) for c in frontier)) - live
    return sorted(c for c in candidates if c not in live)


def exception_classes() -> list[str]:
    """The classes of ``exceptions.py``, and ``io.InputFormatError``."""
    tree = ast.parse((SRC / "exceptions.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)] \
        + ["InputFormatError"]


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


def test_no_unreferenced_private_helper():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert private_definitions(sources)
    assert unreferenced_helpers(sources) == []


def test_helper_guard_sees_dead_and_referenced_definitions():
    sources = {
        "a": ("def _called():\n    pass\ndef _dead():\n    pass\n"
              "class _Imported:\n    pass\ndef _read_as_attribute():\n    pass\n"
              "def __getattr__(name):\n    pass\ndef public():\n    return _called()\n"),
        "b": ("from . import a\nfrom .a import _Imported\n"
              "f = a._read_as_attribute\n"),
    }
    assert private_definitions(sources) == [
        "a._called", "a._dead", "a._Imported", "a._read_as_attribute"]
    assert unreferenced_helpers(sources) == ["a._dead"]


def test_helper_guard_sees_dead_methods_of_private_classes():
    sources = {
        "a": ("class _Solver:\n"
              "    def __init__(self):\n        self.n = self.used()\n"
              "    def used(self):\n        return 1\n"
              "    def dead(self):\n        return 2\n"
              "    @property\n    def read(self):\n        return 3\n"
              "    def _called_by_b(self):\n        return 4\n"
              "class Public:\n    def unreferenced(self):\n        return 5\n"),
        "b": ("from .a import _Solver\n"
              "def f():\n    s = _Solver()\n    return s.read, s._called_by_b()\n"),
    }
    assert private_definitions(sources) == [
        "a._Solver", "a._Solver.used", "a._Solver.dead", "a._Solver.read",
        "a._Solver._called_by_b"]
    assert unreferenced_helpers(sources) == ["a._Solver.dead"]


def test_every_exception_is_raised():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert len(exception_classes()) > 1
    assert unraised_exceptions(sources, exception_classes()) == []


def test_exception_guard_sees_dead_and_raised_classes():
    sources = {
        "exceptions": ("class BaseError(Exception):\n    pass\n"
                       "class UsedError(BaseError):\n    pass\n"
                       "class ChildError(UsedError):\n    pass\n"
                       "class ReRaisedError(BaseError):\n    pass\n"
                       "class DeadError(BaseError):\n    pass\n"
                       "class DeadBaseError(BaseError):\n    pass\n"
                       "class DeadLeafError(DeadBaseError):\n    pass\n"),
        "io": ("from . import exceptions\n"
               "class FormatError(exceptions.BaseError):\n    pass\n"
               "def f(x):\n"
               "    if x:\n        raise exceptions.ChildError('x') from None\n"
               "    try:\n        pass\n    except ReRaisedError:\n        raise\n"
               "    raise ReRaisedError\n"
               "def g():\n    return FormatError('built, never raised')\n"
               "# raise DeadError('in a comment')\n"),
    }
    candidates = ["BaseError", "UsedError", "ChildError", "ReRaisedError",
                  "DeadError", "DeadBaseError", "DeadLeafError", "FormatError"]
    assert raised_names(sources) == {"ChildError", "ReRaisedError"}
    assert unraised_exceptions(sources, candidates) == [
        "DeadBaseError", "DeadError", "DeadLeafError", "FormatError"]


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` of every parameter that its function's body
    never reads, nested functions included.  ``self``, ``cls``, names that
    start with ``_``, ``*args``, ``**kwargs`` and lambdas are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 if a.arg not in ("self", "cls") and not a.arg.startswith("_")]
        read = set()
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    read.add(sub.target.id)     # x += 1 reads x
        unread += [f"{node.name}.{name}" for name in names if name not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_parameter_guard_sees_unread_and_read_names():
    source = ("class C:\n"
              "    def m(self, used, unused, *args, _private=0, **kwargs):\n"
              "        return used\n"
              "    @classmethod\n    def c(cls, x, *, key):\n        x += 1\n"
              "        return key\n"
              "def f(a, b, tol=None):\n"
              "    def g():\n        return a\n"
              "    b = 2\n    sort = lambda x, y=None: x\n    return g, sort\n")
    assert sorted(unread_parameters(source)) == ["f.b", "f.tol", "m.unused"]
