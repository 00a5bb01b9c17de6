"""Properties of the package source itself."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import blowup_lab

SRC = Path(blowup_lab.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently vanish; the library raises explicit exceptions instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_all_names_exist():
    # a name left in __all__ after its definition is gone fails only when
    # someone runs "from module import *"
    modules = [blowup_lab] + [
        importlib.import_module(f"blowup_lab.{info.name}")
        for info in pkgutil.iter_modules(blowup_lab.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"names in __all__ that do not exist: {missing}"


# public names whose caller is outside src/ and perfbench/, with the reason
_CALLED_ELSEWHERE = {
    # the closed-form maximum that acceptance criterion 7 checks
    "F_n_critical",
    # the admissibility-cone check that the k-bubble reduced limit is to
    # apply to each scheduled configuration (ROADMAP item 1)
    "is_admissible",
}


def _references(tree):
    """Names and attribute names read in ``tree``, outside their own def.

    A function or class that refers to itself, by recursion or in its own
    body, does not count as a caller of itself.  Strings and docstrings
    are not read.
    """
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller():
    # a public name that only tests call is code kept alive for its tests
    paths = sorted(SRC.rglob("*.py")) + sorted(
        (SRC.parents[1] / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    uncalled = [f"{info.name}.{name}"
                for info in pkgutil.iter_modules(blowup_lab.__path__)
                for name in getattr(importlib.import_module(
                    f"blowup_lab.{info.name}"), "__all__", ())
                if name not in used and name not in _CALLED_ELSEWHERE]
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_imports_only_stdlib_and_numpy():
    # the runtime dependencies in pyproject.toml are numpy alone
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "numpy"]
    assert not found, f"imports outside the standard library and numpy: {found}"
