"""Every public name resolves.

Each module's __all__ lists only names the module defines, and the
package re-exports only names in their module's __all__, so a deletion
cannot leave a stale export behind.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qpcrkin

MODULES = sorted(
    f"qpcrkin.{info.name}"
    for info in pkgutil.iter_modules(qpcrkin.__path__)
    if info.name != "__main__"  # importing it runs the CLI
)


def _reexports():
    """(module, name) for each `from qpcrkin.<module> import name` in the package."""
    tree = ast.parse(inspect.getsource(qpcrkin))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_are_public():
    pairs = _reexports()
    assert pairs  # the package re-exports from its modules
    stale = [
        (module, name)
        for module, name in pairs
        if name not in importlib.import_module(module).__all__
    ]
    assert stale == []
