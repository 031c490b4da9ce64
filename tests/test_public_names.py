"""The public names: each module's ``__all__`` and the package re-exports
agree.

Every name in a module's ``__all__`` resolves and is re-exported by the
package as the same object, and every name the package imports from a
module is in that module's ``__all__``.  A name deleted from a module
but left in its ``__all__``, or in the package imports, fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import subsetscreen

MODULES = ("core", "experiments", "initializers", "numerics", "simgen")


def _package_imports() -> dict[str, list[str]]:
    """The names ``subsetscreen/__init__.py`` imports, by module."""
    tree = ast.parse(Path(subsetscreen.__file__).read_text())
    imports: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return imports


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves_and_is_re_exported(name):
    module = importlib.import_module(f"subsetscreen.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    not_exported = [
        entry
        for entry in module.__all__
        if getattr(subsetscreen, entry, None) is not getattr(module, entry)
    ]
    assert not_exported == []


def test_every_package_import_is_public():
    imports = _package_imports()
    assert sorted(imports) == sorted(MODULES)
    private = [
        f"{name}.{entry}"
        for name, entries in imports.items()
        for entry in entries
        if entry not in importlib.import_module(f"subsetscreen.{name}").__all__
    ]
    assert private == []
