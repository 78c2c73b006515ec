"""Every package name and keyword the benchmark workloads use still exists.

perfbench/workloads.py drives the package through its public names. The
file is read as source, never imported or run: each attribute chain it
reads from a package import (`pf.Poly3.variable`, `TrigPoly.sine_mode`, ...)
must resolve, and each call of such a name must bind its positional count
and keywords to the callee's signature, so a simplification that drops or renames something the benchmark calls
fails here instead of in a benchmark run.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
EXPECTED = {"pf", "sv", "mm", "en", "tr", "st", "idn", "lf", "cf", "go", "cli", "TrigPoly"}


def _tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _package_names(tree):
    """Local name -> object for every `from couplestress... import ...` in the file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("couplestress"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule is not an attribute of its package until imported
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(module, alias.name)
                names[alias.asname or alias.name] = obj
    return names


def _chain(node):
    """['pf', 'Poly3', 'variable'] for pf.Poly3.variable; None unless names and attributes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _resolve(chain, names):
    obj = names[chain[0]]
    for attr in chain[1:]:
        assert hasattr(obj, attr), f"{'.'.join(chain)}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    return obj


def test_workloads_import_the_package_under_the_expected_names():
    assert EXPECTED <= set(_package_names(_tree()))


def test_every_package_attribute_the_workloads_read_resolves():
    tree = _tree()
    names = _package_names(tree)
    chains = {
        tuple(chain)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
        and (chain := _chain(node)) and chain[0] in names
    }
    assert len(chains) > 40
    for chain in sorted(chains):
        _resolve(chain, names)


def test_every_package_call_binds_to_its_signature():
    tree = _tree()
    names = _package_names(tree)
    checked = 0
    for call in ast.walk(tree):
        chain = _chain(call.func) if isinstance(call, ast.Call) else None
        if not chain or chain[0] not in names:
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        sig = inspect.signature(_resolve(chain, names))
        try:
            sig.bind(*[None] * len(call.args), **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{'.'.join(chain)} (line {call.lineno}): {exc}")
        checked += 1
    assert checked > 40
