"""R001 — hot-loop allocation discipline.

Functions marked ``@hot_loop`` (:mod:`repro.staticcheck.markers`) promise
the zero-allocation discipline the packed simulation kernel is built on
(PR 4): the steady state constructs no objects, builds no containers and
defines no closures — scratch objects are hoisted into the prelude and
mutated in place.  The monkeypatch-counting allocation tests proved this at
runtime for the configurations they happened to run; this rule proves it at
analysis time for every code path of every marked function.

Hot region:

* a marked function containing loops is checked inside its loop bodies
  (the prelude may allocate — hoisting is the point of the discipline);
* a marked function without loops is a per-iteration leaf (``lookup_into``,
  ``predict_region_into``) and is checked in full.

Flagged inside the hot region: comprehensions and generator expressions,
``lambda`` and nested ``def`` (closure objects), list/set/dict displays and
non-constant tuple displays, f-strings, calls packing ``*args``/
``**kwargs``, ``setattr`` (dynamic attribute creation), calls to container
constructors (``list``, ``dict``, ``set``, ...) and calls to CamelCase
names (the class-construction heuristic).  Scalar builtins (``int``,
``bool``, ``range``, ``min``...) are free or interned and stay allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.staticcheck.astutil import (
    call_name,
    decorator_names,
    functions,
    is_constant_tuple,
    last_attr,
)
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    ParsedModule,
    enclosing_symbol,
)
from repro.staticcheck.registry import RULE_REGISTRY

RULE_ID = "R001"

#: Builtin constructors that always heap-allocate a fresh container.
_CONTAINER_BUILTINS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "bytearray", "memoryview",
     "object", "deque", "defaultdict", "Counter", "OrderedDict"}
)


def _is_hot_loop_marked(node: ast.FunctionDef) -> bool:
    return any(name == "hot_loop" or name.endswith(".hot_loop")
               for name in decorator_names(node))


def _loops(func: ast.FunctionDef) -> List[ast.AST]:
    return [node for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]


def _camelcase(name: str) -> bool:
    return bool(name) and name[0].isupper() and not name.isupper()


def _check_region(
    module: ParsedModule,
    func: ast.FunctionDef,
    nodes: Iterator[ast.AST],
    symbol: str,
) -> Iterator[Finding]:
    for node in nodes:
        message = None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            message = "comprehension builds a fresh container per iteration"
        elif isinstance(node, ast.GeneratorExp):
            message = "generator expression allocates a generator object"
        elif isinstance(node, ast.Lambda):
            message = "lambda allocates a closure object"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            message = f"nested function {node.name!r} allocates a closure object"
        elif isinstance(node, ast.List):
            message = "list display allocates"
        elif isinstance(node, ast.Set):
            message = "set display allocates"
        elif isinstance(node, ast.Dict):
            message = "dict display allocates"
        elif isinstance(node, ast.Tuple) and not is_constant_tuple(node):
            if isinstance(node.ctx, ast.Load):
                message = "non-constant tuple display allocates"
        elif isinstance(node, ast.JoinedStr):
            message = "f-string builds strings"
        elif isinstance(node, ast.Call):
            name = call_name(node)
            tail = last_attr(name) if name is not None else None
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            ):
                message = "*args/**kwargs call packs a container per call"
            elif tail == "setattr" and name == "setattr":
                message = "setattr creates attributes dynamically"
            elif name in _CONTAINER_BUILTINS:
                message = f"{name}() allocates a container"
            elif tail is not None and _camelcase(tail):
                message = f"call to {name}() constructs an object"
        if message is None:
            continue
        line = getattr(node, "lineno", func.lineno)
        if module.allows(line, RULE_ID):
            continue
        yield Finding(
            rule=RULE_ID,
            path=module.relpath,
            line=line,
            symbol=symbol,
            message=f"allocation in @hot_loop function: {message}",
        )


@RULE_REGISTRY.register(RULE_ID)
def check_hot_loop_allocations(package: PackageGraph) -> Iterator[Finding]:
    """@hot_loop functions must not allocate in their steady state."""
    for module in package:
        for func in functions(module.tree):
            if not _is_hot_loop_marked(func):
                continue
            loops = _loops(func)
            symbol = enclosing_symbol(module, func)
            hot_nodes: List[ast.AST] = []
            seen = set()
            if loops:
                # Nested loops are already covered by walking the outer
                # body; the id-set keeps each node checked exactly once.
                # A loop's else: clause runs once and counts as prelude.
                regions = [stmt for loop in loops for stmt in loop.body]
            else:
                regions = list(func.body)
            for stmt in regions:
                for node in ast.walk(stmt):
                    if id(node) not in seen:
                        seen.add(id(node))
                        hot_nodes.append(node)
            yield from _check_region(module, func, iter(hot_nodes), symbol)
