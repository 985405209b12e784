"""The public surface: every name a module exports is part of the package's
API or is used by another part of the package."""

import ast
import importlib
from pathlib import Path

import kbrw

SRC = Path(kbrw.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _references(tree: ast.AST):
    """Names a module reads or imports, and the ``module.name`` attributes it
    reads of a package module; a definition or an ``__all__`` entry is none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_exported_name_is_used():
    # a name that only the tests call belongs in the tests
    used = set()
    for path in SRC.glob("*.py"):
        used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [f"{module}.{name}" for module in MODULES
              for name in getattr(importlib.import_module(f"kbrw.{module}"), "__all__", ())
              if name not in kbrw.__all__ and name not in used]
    assert unused == []
