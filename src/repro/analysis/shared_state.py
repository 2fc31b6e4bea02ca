"""Process-wide mutable state in ``repro.hw``/``repro.core``.

A snapshot restore clones everything reachable from the machine object
graph, but module globals and class attributes live outside it: one
object per process, seen by every machine and every restore.
:func:`shared_state_keys` finds that state from the AST so
:func:`repro.hw.snapshot.check_inventory` can demand an explicit
disposition for each key.

Two kinds of binding count:

* a module-scope name bound to a mutable container (``{}``, ``[]``,
  ``dict(...)``, ``deque(...)``...) or to an instance of a class the
  module itself defines (``_memo = _Memo()``), keyed ``module:name``;
* the same in a top-level class body, keyed ``module:Class.name``.

ALL_CAPS names bound to container *literals* or factories are constants
by convention and skipped; own-class instances are never skipped.
"""

import ast
import re
from pathlib import Path
from typing import Iterable, Set

from repro.analysis.engine import module_name_for
from repro.analysis.rules.base import dotted_name

SCOPE_PREFIXES = ("repro.hw.", "repro.core.")

#: stdlib factories producing mutable containers.
MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
})

_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _is_mutable(value: ast.AST, name: str, own_classes: Set[str]) -> bool:
    if isinstance(value, ast.Call):
        callee = dotted_name(value.func)
        tail = callee.rsplit(".", 1)[-1] if callee else None
        if tail in own_classes:
            return True
        container = tail in MUTABLE_FACTORIES
    else:
        container = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                       ast.DictComp, ast.ListComp,
                                       ast.SetComp))
    return container and not _CONST_NAME_RE.match(name)


def _bindings(body: Iterable[ast.stmt], own_classes: Set[str]):
    """Names in ``body`` bound to mutable values."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_mutable(stmt.value, name, own_classes):
                yield name


def _module_keys(module: str, tree: ast.Module) -> Set[str]:
    """Shared-state keys of one parsed module."""
    classes = [stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
    own_classes = {cls.name for cls in classes}
    keys = {f"{module}:{name}" for name in _bindings(tree.body, own_classes)}
    for cls in classes:
        keys.update(f"{module}:{cls.name}.{name}"
                    for name in _bindings(cls.body, own_classes))
    return keys


def shared_state_keys(root: Path) -> Set[str]:
    """Shared-state keys of every ``repro.hw``/``repro.core`` module
    under ``root`` (a source tree containing a ``repro`` package)."""
    keys: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        module = module_name_for(path)
        if module.startswith(SCOPE_PREFIXES):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            keys |= _module_keys(module, tree)
    return keys
