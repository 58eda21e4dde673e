"""R006 — retry loops must be bounded, with deterministic backoff.

The resilience layer's contract (``docs/resilience.md``) is that fault
handling never trades determinism for liveness: a retry loop that spins
forever can wedge a sweep exactly like the hung worker it was meant to
survive, and randomized backoff jitter makes two runs of the same plan
take different schedules — breaking the bit-identical-recovery guarantee
the chaos suite pins.  This rule extends R002's determinism contract to
the retry/backoff machinery itself.

Scope: modules whose dotted name falls under ``sweep``, ``resilience``,
``faultinject`` or ``retry``.  Within scope the rule flags:

* a ``while`` loop whose test is a truthy constant (``while True:``)
  containing a ``sleep`` call — the signature of an unbounded
  retry-with-backoff loop.  Bound the attempts instead
  (``for attempt in range(policy.retries + 1)``), as
  :func:`repro.sweep._attempt_cell` does;
* an unseeded ``random.*`` call inside a ``sleep`` argument —
  nondeterministic backoff jitter.  Deterministic backoff is a pure
  function of the attempt number (:meth:`repro.resilience.RetryPolicy.
  delay`); decorrelation is unnecessary here because the
  content-addressed stores make duplicated work harmless.
  (``random.Random(seed)`` instances remain the sanctioned pattern,
  exactly as in R002.)
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.astutil import call_name
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    ParsedModule,
    enclosing_symbol,
)

RULE_ID = "R006"

#: Dotted-name fragments selecting retry/backoff-bearing modules.
_SCOPE_FRAGMENTS = ("sweep", "resilience", "faultinject", "retry")

#: ``random.<fn>`` module-level calls share one *unseeded* global RNG;
#: seedable constructors and re-seeding are allowed (the R002 set).
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "seed"})


def in_scope(module: ParsedModule) -> bool:
    parts = module.name.split(".")
    return any(
        fragment in parts or parts[-1] == fragment
        for fragment in _SCOPE_FRAGMENTS
    )


def _is_sleep_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    return name == "sleep" or name.endswith(".sleep")


def _constant_truthy(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _first_sleep(nodes: Iterator[ast.AST]) -> Optional[ast.Call]:
    for node in nodes:
        if _is_sleep_call(node) and isinstance(node, ast.Call):
            return node
    return None


def _jittered_argument(sleep: ast.Call) -> Optional[str]:
    """The unseeded ``random.*`` callee inside a sleep argument, if any."""
    arguments = list(sleep.args) + [kw.value for kw in sleep.keywords]
    for argument in arguments:
        for node in ast.walk(argument):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if (
                name is not None
                and name.startswith("random.")
                and name.split(".")[1] not in _RANDOM_ALLOWED
            ):
                return name
    return None


def check_retry_loops(package: PackageGraph) -> Iterator[Finding]:
    """Retry loops must be bounded and back off deterministically."""
    for module in package:
        if not in_scope(module):
            continue
        for node in ast.walk(module.tree):
            # (a) while <constant truthy>: ... sleep(...) — unbounded retry.
            if isinstance(node, ast.While) and _constant_truthy(node.test):
                body_nodes = (
                    walked for child in node.body for walked in ast.walk(child)
                )
                sleep = _first_sleep(body_nodes)
                if sleep is not None:
                    line = sleep.lineno
                    if not module.allows(line, RULE_ID):
                        yield Finding(
                            rule=RULE_ID,
                            path=module.relpath,
                            line=line,
                            symbol=enclosing_symbol(module, sleep),
                            message=(
                                "unbounded retry loop (while True with a "
                                "sleep); bound the attempts, e.g. "
                                "for attempt in range(retries + 1)"
                            ),
                        )
            # (b) sleep(... random.x() ...) — nondeterministic jitter.
            if _is_sleep_call(node) and isinstance(node, ast.Call):
                jitter = _jittered_argument(node)
                if jitter is not None:
                    line = node.lineno
                    if module.allows(line, RULE_ID):
                        continue
                    yield Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=line,
                        symbol=enclosing_symbol(module, node),
                        message=(
                            f"backoff jitter via {jitter}() is "
                            "nondeterministic; backoff must be a pure "
                            "function of the attempt number "
                            "(see RetryPolicy.delay)"
                        ),
                    )
