"""Properties of the package source itself."""

import ast
import importlib
import pkgutil
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
