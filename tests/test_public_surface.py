"""Every exported name is used by the program or by its benchmark.

A name in a `physec` module's `__all__` must be read somewhere in
`src/physec/` or `bench/` apart from its own definition, its `__all__`
entry and its re-export from the package `__init__`.  So must every public
method and property of an exported class.  An export that only its own
tests use is dead code: delete it, or wire it into the CLI.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "physec"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def referenced_names() -> set:
    """Names and attributes read by the package modules and by bench/.

    Definitions, `__all__` strings and the package `__init__` are left out,
    as are strings and comments.
    """
    sources = [PACKAGE / f"{m}.py" for m in MODULES] + sorted((ROOT / "bench").glob("*.py"))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
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
