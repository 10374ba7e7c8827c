"""Every public name resolves.

Each module's __all__ lists only names the module defines, and the
package re-exports only names in their module's __all__, so a deletion
cannot leave a stale export behind.  Every function the benchmark's
tracer wraps (perfbench/layers.py) exists too, and every command line
its workloads build (perfbench/workloads.py) parses, so removing or
renaming one fails here and not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import qpcrkin
from qpcrkin.cli import _parser

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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name, monkeypatch):
    """Import perfbench/<name>.py under its own name, without running it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_exist(monkeypatch):
    _load_perfbench("tracer", monkeypatch)  # layers.py imports it by this name
    layers = _load_perfbench("layers", monkeypatch)
    assert layers.TARGETS
    missing = []
    for target in layers.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):  # "Class.method" included
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(target.name)
    assert missing == []


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # ops 0-11 cover each CLI workload's argv shapes (estimate-scan has
    # period 12); the inert --mle-count, --mle-seed and --ref-count stay
    # until the benchmark stops passing them
    workloads = _load_perfbench("workloads", monkeypatch)
    parsed = 0
    for workload in workloads.WORKLOADS.values():
        for index in range(12):
            op = workload.make_op(1, index, str(tmp_path / "out"))
            if op.argv is not None:
                _parser().parse_args(list(op.argv))  # argparse exits 2 on a refusal
                parsed += 1
    assert parsed == 36  # three CLI workloads
