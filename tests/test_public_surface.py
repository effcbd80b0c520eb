"""Every exported name is used by the program or by its benchmark.

A name in a `physec` module's `__all__` must be read somewhere in
`src/physec/` or `bench/` apart from its own definition, its `__all__`
entry and its re-export from the package `__init__`.  So must every public
method and property of an exported class.  An export that only its own
tests use is dead code: delete it, or wire it into the CLI.  Likewise a
parameter default that no call overrides is a knob nobody turns: make it a
constant.
"""

import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "physec"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SOURCES = [PACKAGE / f"{m}.py" for m in MODULES] + sorted((ROOT / "bench").glob("*.py"))


def source_nodes():
    """Every AST node of the package modules (not `__init__`) and of bench/."""
    for path in SOURCES:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def referenced_names() -> set:
    """Names and attributes read by the package modules and by bench/.

    Definitions, `__all__` strings and the package `__init__` are left out,
    as are strings and comments.
    """
    names = set()
    for node in source_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(importlib.import_module(f"physec.{m}"), "__all__")],
)
def test_every_export_is_used_outside_the_tests(module):
    exported = importlib.import_module(f"physec.{module}").__all__
    unused = sorted(set(exported) - referenced_names())
    assert not unused, f"physec.{module} exports names nothing uses: {unused}"


def public_members(cls) -> list:
    """Public methods and properties a class defines itself."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(value)
            or isinstance(value, (property, classmethod, staticmethod))
        )
    ]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(importlib.import_module(f"physec.{m}"), "__all__")],
)
def test_every_exported_class_member_is_used_outside_the_tests(module):
    mod = importlib.import_module(f"physec.{module}")
    used = referenced_names()
    unused = sorted(
        f"{name}.{member}"
        for name in mod.__all__
        if inspect.isclass(getattr(mod, name))
        for member in public_members(getattr(mod, name))
        if member not in used
    )
    assert not unused, f"physec.{module} classes have members nothing uses: {unused}"


def passed_arguments() -> dict:
    """Called name -> (most positional arguments, keyword names) over all calls.

    Calls are matched by the called name alone, so `gmm.fit(...)` and
    `fit(...)` both count for `fit`.  A `*args` counts as every position and
    a `**kwargs` as every keyword (None stands for "all of them").
    """
    passed = {}
    for node in source_nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        positions, keywords = passed.get(name, (0, set()))
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            positions = math.inf
        positions = max(positions, len(node.args))
        if keywords is not None:
            names = [kw.arg for kw in node.keywords]
            keywords = None if None in names else keywords | set(names)
        passed[name] = (positions, keywords)
    return passed


def test_every_defaulted_parameter_is_set_by_a_caller():
    passed = passed_arguments()
    unset = []
    for module in MODULES:
        mod = importlib.import_module(f"physec.{module}")
        for name in getattr(mod, "__all__", ()):
            func = getattr(mod, name)
            if not inspect.isfunction(func):
                continue
            positions, keywords = passed.get(name, (0, set()))
            for index, param in enumerate(inspect.signature(func).parameters.values()):
                if param.default is param.empty:
                    continue
                by_position = param.kind is not param.KEYWORD_ONLY and index < positions
                by_keyword = param.kind is not param.POSITIONAL_ONLY and (
                    keywords is None or param.name in keywords
                )
                if not (by_position or by_keyword):
                    unset.append(f"{module}.{name}({param.name})")
    assert not unset, f"defaults that no call in src/physec or bench/ overrides: {unset}"
