"""Lazy package exports: PEP 562 hooks built from a package's own imports.

A package (or module) that re-exports names from other modules keeps
its ``from ... import ...`` lines under ``if TYPE_CHECKING:``, beside
its literal ``__all__``, and ends with::

    __getattr__, __dir__ = attach(__name__)

:func:`attach` reads those import lines from the package's source
(through its import loader) and imports each name's submodule on
first access, so importing the package loads none of them (Scientific
Python's SPEC 1, with the ``if TYPE_CHECKING:`` block as the stub).
Ruff, mypy and readers see the same import statements as before, and
each export is still listed exactly twice.  A name imported from the
package itself (``from repro import api``) is its submodule.
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections.abc import Callable
from typing import Any


def stub_imports(package: str) -> dict[str, tuple[str, str]]:
    """``{name: (module, attribute)}`` of ``package``'s ``if TYPE_CHECKING:`` imports."""
    spec = sys.modules[package].__spec__
    path = spec.origin
    tree = ast.parse(spec.loader.get_source(package), path)
    imports: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        if not (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            continue
        for statement in node.body:
            if not isinstance(statement, ast.ImportFrom) or statement.level:
                raise ImportError(
                    f"{path}:{statement.lineno}: an 'if TYPE_CHECKING:' block of "
                    "lazy exports holds only absolute 'from ... import' lines"
                )
            for alias in statement.names:
                imports[alias.asname or alias.name] = (statement.module, alias.name)
    return imports


def attach(package: str) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` that serve ``package``'s stub imports.

    A name is imported on its first lookup and stored in the package
    namespace, so later lookups never reach ``__getattr__``.
    """
    imports = stub_imports(package)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = imports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == package:
            value = importlib.import_module(f"{package}.{attribute}")
        else:
            value = getattr(importlib.import_module(module), attribute)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | imports.keys())

    return __getattr__, __dir__
