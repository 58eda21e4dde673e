"""R003 — cache-key closure completeness.

The sweep's result cache is content-addressed: a cell's key must close over
*every* parameter that can change its result.  A dataclass field added to
``DesignSpec`` or ``Scenario`` but left out of the key closure makes two
different experiments collide on one cache entry — the cache silently
serves results for a configuration that was never run.

The rule checks each *tracked* dataclass (``DesignSpec``, ``Scenario``,
``ScenarioEntry``, ``CoreWorkload`` — matched by class name, so fixture
trees defining their own are checked identically):

* a tracked class defining a serialization method (``to_dict`` or ``bind``)
  is held to explicit enumeration: every field name must appear inside that
  method (or a same-module helper it calls by name) as an attribute access,
  keyword argument, string constant or dict key;
* a tracked class without one must be reachable from a ``cell_key``
  closure builder, either by explicit field mentions or through a generic
  flattener that calls ``dataclasses.fields``/``asdict``/``astuple``
  (which covers every field by construction);
* a tracked class with neither surface is flagged outright — nothing keys
  it at all.

``Scenario.description`` is exempt: it is prose about the mix, dealt to no
core and serialized into no trace, so keying on it would only split cache
entries that are bit-identical.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.astutil import call_name, last_attr
from repro.staticcheck.model import Finding, PackageGraph, ParsedModule

RULE_ID = "R003"

#: Dataclass names whose fields must be closed over by cache keys.
TRACKED_DATACLASSES = ("DesignSpec", "Scenario", "ScenarioEntry", "CoreWorkload")

#: Method names that constitute a class's own serialization surface.
_SURFACE_METHODS = frozenset({"to_dict", "bind"})

#: Functions whose presence in the package marks the key-closure builders.
_CLOSURE_BUILDERS = frozenset({"cell_key"})

#: (class, field) pairs exempt from closure coverage, with the reason
#: recorded here rather than in a suppression file: these fields are
#: documentation, not parameters.
EXEMPT_FIELDS = frozenset({("Scenario", "description")})

#: Calls that flatten a dataclass generically — every field is covered.
_GENERIC_FLATTENERS = frozenset({"fields", "asdict", "astuple"})


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def _field_defs(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """(field name, line) for each annotated class-level assignment."""
    out: List[Tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.annotation, ast.Name) and stmt.annotation.id == "ClassVar":
                continue
            if (
                isinstance(stmt.annotation, ast.Subscript)
                and isinstance(stmt.annotation.value, ast.Name)
                and stmt.annotation.value.id == "ClassVar"
            ):
                continue
            out.append((stmt.target.id, stmt.lineno))
    return out


def _module_functions(module: ParsedModule) -> Dict[str, ast.FunctionDef]:
    """Module-level function definitions, by name."""
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _expand_surface(
    module: ParsedModule, roots: List[ast.FunctionDef]
) -> List[ast.FunctionDef]:
    """``roots`` plus same-module helpers they call by bare name,
    transitively (``cell_key`` -> ``_jsonable`` -> ...)."""
    locals_by_name = _module_functions(module)
    surface: List[ast.FunctionDef] = []
    seen: Set[int] = set()
    queue = list(roots)
    while queue:
        func = queue.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        surface.append(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = locals_by_name.get(node.func.id)
                if callee is not None and id(callee) not in seen:
                    queue.append(callee)
    return surface


def _mentions(funcs: List[ast.FunctionDef]) -> Set[str]:
    """Names the surface can close over: attribute accesses, keyword
    arguments, string constants and (string) dict keys."""
    names: Set[str] = set()
    for func in funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        names.add(key.value)
    return names


def _is_generic(funcs: List[ast.FunctionDef]) -> bool:
    for func in funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and last_attr(name) in _GENERIC_FLATTENERS:
                    return True
    return False


def _own_surface(
    module: ParsedModule, cls: ast.ClassDef
) -> Optional[List[ast.FunctionDef]]:
    methods = [
        stmt
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in _SURFACE_METHODS
    ]
    if not methods:
        return None
    return _expand_surface(module, methods)


def check_cache_key_closure(package: PackageGraph) -> Iterator[Finding]:
    """Every tracked dataclass field must reach the cache-key closure."""
    # The package-wide closure builders (``cell_key`` + helpers), pooled.
    builder_surface: List[ast.FunctionDef] = []
    for module in package:
        roots = [
            func
            for func in _module_functions(module).values()
            if func.name in _CLOSURE_BUILDERS
        ]
        if roots:
            builder_surface.extend(_expand_surface(module, roots))
    builder_mentions = _mentions(builder_surface)
    builder_generic = _is_generic(builder_surface)

    for module in package:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in TRACKED_DATACLASSES or not _is_dataclass_def(node):
                continue
            own = _own_surface(module, node)
            if own is not None:
                covered = _mentions(own)
                generic = False
            elif builder_surface:
                covered = builder_mentions
                generic = builder_generic
            else:
                if not module.allows(node.lineno, RULE_ID):
                    yield Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=node.lineno,
                        symbol=node.name,
                        message=(
                            f"tracked dataclass {node.name!r} has no "
                            "to_dict/bind method and no cell_key builder "
                            "reaches it; nothing keys its fields"
                        ),
                    )
                continue
            for field_name, line in _field_defs(node):
                if (node.name, field_name) in EXEMPT_FIELDS:
                    continue
                if generic or field_name in covered:
                    continue
                if module.allows(line, RULE_ID):
                    continue
                where = (
                    f"{node.name}'s own serialization surface "
                    f"({'/'.join(sorted(_SURFACE_METHODS))})"
                    if own is not None
                    else "the cell_key closure"
                )
                yield Finding(
                    rule=RULE_ID,
                    path=module.relpath,
                    line=line,
                    symbol=f"{node.name}.{field_name}",
                    message=(
                        f"dataclass field {field_name!r} never reaches "
                        f"{where}; two specs differing only in it would "
                        "collide on one cache entry"
                    ),
                )
