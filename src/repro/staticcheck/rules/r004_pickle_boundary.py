"""R004 — pickle-boundary safety for mmap-backed buffers.

The trace store hands out ``PackedTrace`` objects whose columns are
``memoryview`` slices of an mmap.  A raw ``memoryview`` cannot pickle, and
an object *holding* one pickles only if it materializes first — which is
exactly what ``PackedTrace.__reduce__`` does.  Shipping an unmaterialized
view into a process pool's ``submit``/``map`` either crashes at the pickle
boundary or, worse with a custom reducer that forgets the buffers, silently
sends a worker an empty trace.

The rule runs a small per-function taint analysis:

* ``memoryview(...)`` is always tainted (no ``__reduce__`` can save it);
* ``X.from_buffers(...)`` is tainted when ``X`` is a class defined in the
  linted package **without** ``__reduce__``/``__reduce_ex__``/
  ``__getstate__`` (``PackedTrace`` defines one, so it passes);
* taint propagates through assignment, tuple/list displays and
  ``.append``/``.extend`` onto local containers;
* any tainted argument reaching an ``executor.submit(...)`` /
  ``executor.map(...)`` call is flagged.

The sanctioned pattern — what :func:`repro.sweep._cell_job` actually does —
is to ship the trace store's *directory* (a plain string) across the
boundary and let the worker reopen, and mmap, each artifact it needs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.staticcheck.astutil import call_name, functions
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    enclosing_symbol,
)

RULE_ID = "R004"

_REDUCERS = frozenset({"__reduce__", "__reduce_ex__", "__getstate__"})
_BOUNDARY_METHODS = frozenset({"submit", "map"})


def _classify_classes(package: PackageGraph) -> Tuple[Set[str], Set[str]]:
    """(safe, unsafe) class names: classes with a materializing reducer
    versus buffer-holding classes (a ``from_buffers`` constructor) without
    one."""
    safe: Set[str] = set()
    unsafe: Set[str] = set()
    for module in package:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)
            }
            if methods & _REDUCERS:
                safe.add(node.name)
            elif "from_buffers" in methods:
                unsafe.add(node.name)
    return safe, unsafe


def _buffer_source(node: ast.AST, safe: Set[str], unsafe: Set[str]) -> bool:
    """Does this expression *create* an unpicklable buffer view?"""
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    if name == "memoryview":
        return True
    if name.endswith(".from_buffers"):
        owner = name.rsplit(".", 2)[-2]
        return owner in unsafe and owner not in safe
    return False


def _expr_tainted(
    node: ast.AST, tainted: Set[str], safe: Set[str], unsafe: Set[str]
) -> bool:
    if _buffer_source(node, safe, unsafe):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_expr_tainted(e, tainted, safe, unsafe) for e in node.elts)
    if isinstance(node, ast.Starred):
        return _expr_tainted(node.value, tainted, safe, unsafe)
    return False


def _taint_names(func: ast.FunctionDef, safe: Set[str], unsafe: Set[str]) -> Set[str]:
    """Fixpoint over the function body: names bound to buffer views,
    directly or through assignment/container propagation."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            targets = ()
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = (node.target,), node.value
            if value is not None and _expr_tainted(value, tainted, safe, unsafe):
                for target in targets:
                    names = [
                        t for t in ast.walk(target) if isinstance(t, ast.Name)
                    ]
                    for name_node in names:
                        if name_node.id not in tainted:
                            tainted.add(name_node.id)
                            changed = True
            # container.append(view) / container.extend([view, ...])
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id not in tainted
                and any(
                    _expr_tainted(arg, tainted, safe, unsafe) for arg in node.args
                )
            ):
                tainted.add(node.func.value.id)
                changed = True
    return tainted


def check_pickle_boundary(package: PackageGraph) -> Iterator[Finding]:
    """mmap-backed buffers must not cross a process-pool pickle boundary."""
    safe, unsafe = _classify_classes(package)
    for module in package:
        for func in functions(module.tree):
            taint_cache: Dict[int, Set[str]] = {}
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BOUNDARY_METHODS
                ):
                    continue
                if id(func) not in taint_cache:
                    taint_cache[id(func)] = _taint_names(func, safe, unsafe)
                tainted = taint_cache[id(func)]
                offending = [
                    arg
                    for arg in (*node.args, *(kw.value for kw in node.keywords))
                    if _expr_tainted(arg, tainted, safe, unsafe)
                ]
                for arg in offending:
                    line = getattr(arg, "lineno", node.lineno)
                    if module.allows(line, RULE_ID):
                        continue
                    yield Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=line,
                        symbol=enclosing_symbol(module, node),
                        message=(
                            "mmap-backed buffer crosses the "
                            f".{node.func.attr}() pickle boundary without a "
                            "materializing __reduce__; ship the artifact "
                            "path (or a materialized trace) instead"
                        ),
                    )
