"""R002 — determinism of trace generation, seed dealing and cache keys.

Confluence replays must be bit-exact: every trace, seed deal and cache key
is a pure function of its declared parameters.  One unseeded RNG, wall
clock read, ``id()`` or set-order iteration in that path silently corrupts
a trajectory — and only shows up thousands of cells later, if ever.

Scope: modules whose dotted name falls under ``*.workloads`` (program
synthesis, trace generation, scenario seed dealing) and modules named
``sweep`` (cache-key construction).  Within scope the rule flags:

* unseeded module-level RNG calls — ``random.random()``, ``random.
  randint`` etc. (``random.Random(seed)`` instances are the sanctioned
  pattern and stay allowed),
* wall-clock and entropy sources: ``time.time``/``time_ns``/``monotonic``/
  ``perf_counter``, ``datetime.now``/``utcnow``/``today``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, ``secrets.*``,
* ``id()`` — CPython addresses differ run to run,
* ``hash()`` — salted per process for str/bytes (PYTHONHASHSEED),
* iteration over a set expression (``for x in {...}`` / ``set(...)`` /
  a set comprehension) — set order is hash-order, i.e. run order,
* unsorted directory listings: ``os.listdir`` / ``Path.iterdir`` /
  ``glob.glob`` results are filesystem-order unless wrapped in
  ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.staticcheck.astutil import call_name
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    ParsedModule,
    enclosing_symbol,
)

RULE_ID = "R002"

#: Dotted-name fragments selecting determinism-critical modules.
_SCOPE_FRAGMENTS = ("workloads", "sweep")

#: Exact dotted callee names that are nondeterministic, with the reason.
_BANNED_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "process-relative clock",
    "time.perf_counter": "process-relative clock",
    "datetime.now": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.utcnow": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "date.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS entropy",
    "id": "CPython object address, differs run to run",
    "hash": "salted per process for str/bytes (PYTHONHASHSEED)",
}

#: ``random.<fn>`` module-level calls share one *unseeded* global RNG.
#: ``random.Random`` (seedable instance) and ``random.seed`` are allowed.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "seed"})

#: Callables returning filesystem-order listings (must be ``sorted(...)``).
_FS_ORDER_CALLS = {
    "os.listdir": "os.listdir",
    "os.scandir": "os.scandir",
    "glob.glob": "glob.glob",
    "glob.iglob": "glob.iglob",
}
_FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})


def in_scope(module: ParsedModule) -> bool:
    parts = module.name.split(".")
    return any(
        fragment in parts or parts[-1] == fragment
        for fragment in _SCOPE_FRAGMENTS
    )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # ``a & b`` etc. over sets; only flag when an operand is visibly a set.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _violation(node: ast.AST, parent_sorted: bool) -> Optional[Tuple[str, ast.AST]]:
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is None:
            return None
        reason = _BANNED_CALLS.get(name)
        if reason is not None:
            return (f"{name}() is nondeterministic ({reason})", node)
        if name.startswith("random.") and name.split(".")[1] not in _RANDOM_ALLOWED:
            return (
                f"{name}() draws from the unseeded global RNG; "
                "use a seeded random.Random instance",
                node,
            )
        if name.startswith("secrets."):
            return (f"{name}() draws OS entropy", node)
        if not parent_sorted:
            fs_name = _FS_ORDER_CALLS.get(name)
            if fs_name is not None:
                return (
                    f"{fs_name}() yields filesystem order; wrap in sorted(...)",
                    node,
                )
            tail = name.rpartition(".")[2]
            if "." in name and tail in _FS_ORDER_METHODS:
                return (
                    f".{tail}() yields filesystem order; wrap in sorted(...)",
                    node,
                )
    return None


def check_determinism(package: PackageGraph) -> Iterator[Finding]:
    """Trace/seed/cache-key code must be a pure function of its inputs."""
    for module in package:
        if not in_scope(module):
            continue
        sorted_wrapped = set()
        for node in ast.walk(module.tree):
            # Record call nodes whose result is immediately ordered.
            if isinstance(node, ast.Call) and call_name(node) in ("sorted", "list"):
                for arg in node.args:
                    if isinstance(arg, ast.Call):
                        sorted_wrapped.add(id(arg))
            # Set-order iteration: for-loops and comprehension generators.
            iter_exprs = []
            if isinstance(node, ast.For):
                iter_exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iter_exprs.extend(gen.iter for gen in node.generators)
            for expr in iter_exprs:
                if _is_set_expression(expr):
                    line = getattr(expr, "lineno", getattr(node, "lineno", 1))
                    if module.allows(line, RULE_ID):
                        continue
                    yield Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=line,
                        symbol=enclosing_symbol(module, node),
                        message=(
                            "iteration over a set is hash-order "
                            "(run-dependent); sort it first"
                        ),
                    )
        for node in ast.walk(module.tree):
            found = _violation(node, parent_sorted=id(node) in sorted_wrapped)
            if found is None:
                continue
            message, site = found
            line = getattr(site, "lineno", 1)
            if module.allows(line, RULE_ID):
                continue
            yield Finding(
                rule=RULE_ID,
                path=module.relpath,
                line=line,
                symbol=enclosing_symbol(module, site),
                message=message,
            )
