"""Properties of the package source itself."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import blowup_lab
from blowup_lab import geometry

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


def test_package_root_imports_only_all_names():
    # the root re-exports a module's public names, its __all__, which
    # test_every_public_name_has_a_caller checks; a name outside it would
    # be an export that nothing checks
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    outside = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names
               if alias.name not in importlib.import_module(
                   f"blowup_lab.{node.module}").__all__]
    assert not outside, f"root imports outside __all__: {outside}"


def _reads_outside_geometry(attr):
    """Places in the package, outside geometry.py, that read ``.attr``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr]
    return found


def test_only_geometry_reads_the_model_kind():
    # every model is a product of factors, and geometry.py alone maps a
    # kind to them; elsewhere a kind branch would be a metric path of its
    # own (a config's spec.get("kind") is a dict read, not an attribute)
    found = _reads_outside_geometry("kind")
    assert not found, f"model kind read outside geometry.py: {found}"


def test_only_geometry_reads_rule_weights():
    # QuadratureRule.integrate is the one code path that samples an
    # integrand and takes the weighted sum; a .weights read elsewhere in
    # the package would be a second one
    found = _reads_outside_geometry("weights")
    assert not found, f"rule weights read outside geometry.py: {found}"


def _cli_functions():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_runners_read_only_checked_values():
    # each experiment's table reads and checks its config before the run;
    # a cfg.get in a runner would read a value no table checked
    found = [f"{name}:{node.lineno}"
             for name, func in _cli_functions().items()
             if name.startswith("_exp_")
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "get"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == func.args.args[0].arg]
    assert not found, f"runners reading their config with .get: {found}"


def test_run_lets_program_errors_through():
    # after the tables have checked the config, a TypeError or KeyError is
    # a bug whose traceback must show, not a malformed config (exit 2)
    handled = {node.id for handler in ast.walk(_cli_functions()["run"])
               if isinstance(handler, ast.ExceptHandler) and handler.type
               for node in ast.walk(handler.type)
               if isinstance(node, ast.Name)}
    assert not handled & {"TypeError", "KeyError"}, handled


# public names whose caller is outside src/ and perfbench/, with the reason
_CALLED_ELSEWHERE = {
    # the closed-form maximum that acceptance criterion 7 checks
    "F_n_critical",
    # the admissibility-cone check that the k-bubble reduced limit is to
    # apply to each scheduled configuration (ROADMAP item 1)
    "is_admissible",
    # perfbench/tracing.py's _TARGETS looks these up by name, in strings
    # the check does not read; ROADMAP item 7 deletes them
    "BubbleField.grad", "BubbleField.laplace_beltrami",
    "SumField.grad", "SumField.laplace_beltrami",
    "ManifoldModel.distance_gradient", "ManifoldModel.radial_laplacian_coeff",
    "ManifoldModel.factor_distances", "ManifoldModel.log",
    # the constant that rule tests sum weights to, and the reference of the
    # quadrature self-check of ROADMAP item 5
    "ManifoldModel.volume",
    # acceptance criterion 4 prints it
    "SlopeFit.prefactor",
}


def _references(tree):
    """Names and attribute names read in ``tree``, outside their own def.

    A function or class that refers to itself, by recursion or in its own
    body, does not count as a caller of itself.  An attribute of a name
    that an import from outside the package binds in ``tree`` is not the
    package's, so np.log does not count as a caller of ManifoldModel.log.
    Strings and docstrings are not read.
    """
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside |= {(a.asname or a.name).split(".")[0]
                        for a in node.names
                        if not a.name.startswith("blowup_lab")}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not node.module.startswith("blowup_lab"):
            outside |= {a.asname or a.name for a in node.names}
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in outside) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _public_names():
    """(module, qualified name, name): every name in a module's __all__,
    and the public methods and properties each such class defines."""
    for info in pkgutil.iter_modules(blowup_lab.__path__):
        module = importlib.import_module(f"blowup_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name, name
            obj = getattr(module, name)
            if not isinstance(obj, type):
                continue
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(value) or isinstance(
                            value, (property, classmethod, staticmethod))):
                    yield info.name, f"{name}.{attr}", attr


def test_every_public_name_has_a_caller():
    # a public name that only tests call is code kept alive for its tests.
    # A member is matched by its name alone, so any attribute read of that
    # name, except on a module from outside the package, counts as its
    # caller
    paths = sorted(SRC.rglob("*.py")) + sorted(
        (SRC.parents[1] / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    uncalled = [f"{module}.{qualified}"
                for module, qualified, name in _public_names()
                if name not in used and qualified not in _CALLED_ELSEWHERE]
    assert not uncalled, f"public names with no caller: {uncalled}"


_PROFILE_TABLES = ("_SPHERE_PROFILES", "_PRODUCT_PROFILES")


def test_every_angular_profile_name_has_a_caller():
    # a profile is declared by its name, a string, which the check above
    # does not read.  Each name must appear as a string constant somewhere
    # in src/ or perfbench/ outside the two tables that define the names
    paths = sorted(SRC.rglob("*.py")) + sorted(
        (SRC.parents[1] / "perfbench").glob("*.py"))
    strings = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        tables = {id(node) for stmt in ast.walk(tree)
                  if isinstance(stmt, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id in _PROFILE_TABLES
                          for t in stmt.targets)
                  for node in ast.walk(stmt)}
        strings |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and id(node) not in tables}
    names = [name for table in _PROFILE_TABLES
             for name in getattr(geometry, table)]
    uncalled = [name for name in names if name not in strings]
    assert names and not uncalled, f"profiles no caller names: {uncalled}"


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
