"""Print the public API of the package, one line per public name.

Usage (from the root of a checkout):

    python3 tools/public_api.py

Every module under the `src/couplestress` directory beside this script is
imported, and each public name defined at the top level of its source (a
def, a class or an assignment target, also one unpacked from a tuple or a
list, whose name does not start with an underscore) gives one line: its
qualified name, with the signature for a function or a class, `= value`
for an int, float, str or bool, and `: type` for anything else. Each
public method, class method, static method and property written in a
public class's own body gives one more line. Modules, names and members
come in name order, so a name that only moves within its source keeps its
line, and memory addresses are dropped from the default values. Two
checkouts expose the same names and signatures exactly when their outputs
are equal, so a change to the public API shows as one `diff`:

    python3 tools/public_api.py > after.txt    # in the changed checkout
    python3 tools/public_api.py > before.txt   # in a checkout of the parent
    diff before.txt after.txt

Only the stdlib and the package are used.
"""
from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "couplestress"


def _public(name):
    return not name.startswith("_")


def _target_names(target):
    """The Name nodes an assignment target binds, through tuple and list unpacking."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for t in target.elts for n in _target_names(t)]
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _top_level_names(path):
    """Public names bound at the top level of a module's source, in name order."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, ast.Assign):
            found = [n.id for t in node.targets for n in _target_names(t)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found = [node.target.id]
        else:
            found = []
        names += [n for n in found if _public(n)]
    return sorted(set(names))


def _signature(obj):
    try:
        return re.sub(r" at 0x[0-9a-f]+", "", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def _describe(qualname, obj):
    """The line of one public name."""
    if callable(obj):
        return f"{qualname}{_signature(obj)}"
    if isinstance(obj, (bool, int, float, str)):
        return f"{qualname} = {obj!r}"
    return f"{qualname}: {type(obj).__name__}"


def _members(qualname, cls):
    """Lines of the public methods and properties written in the body of cls."""
    lines = []
    for name, raw in sorted(vars(cls).items()):
        if not _public(name):
            continue
        if isinstance(raw, property):
            lines.append(f"{qualname}.{name} [property]")
        elif isinstance(raw, classmethod):
            lines.append(f"{qualname}.{name}{_signature(getattr(cls, name))} [classmethod]")
        elif isinstance(raw, staticmethod):
            lines.append(f"{qualname}.{name}{_signature(raw.__func__)} [staticmethod]")
        elif inspect.isfunction(raw):
            lines.append(f"{qualname}.{name}{_signature(raw)}")
    return lines


def api_lines():
    """Every line of the report, module by module."""
    sys.path.insert(0, str(SRC))
    lines = []
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        modname = PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"
        module = importlib.import_module(modname)
        for name in _top_level_names(path):
            obj = getattr(module, name)
            qualname = f"{modname}.{name}"
            lines.append(_describe(qualname, obj))
            if inspect.isclass(obj):
                lines += _members(qualname, obj)
    return lines


def main():
    for line in api_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
