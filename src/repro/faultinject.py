"""Deterministic fault injection for the sweep resilience layer.

Chaos testing a process pool usually means racing real ``kill`` signals
against real work — flaky by construction.  This module replaces that with
**deterministic fault plans** fired at **named injection points**: a
:class:`FaultPlan` is a list of rules ("raise a transient ``OSError`` the
first two times cell X simulates", "kill the worker running cell Y once",
"hang cell Z"), and the production code calls :func:`injection_point` at
three well-known sites.  With no plan active the call is a near-free no-op;
with one active, the same plan fires the same faults in the same places
every run.

Named injection points (see ``docs/resilience.md``):

* ``"cell:simulate"`` — :func:`repro.sweep._simulate_cell_counted`, before a
  grid cell simulates (fires in the parent for serial cells, in the pool
  worker for fanned-out cells).  The label is ``"<workload>/<design>"`` and
  the attempt number is the scheduler's retry counter for that cell.
* ``"cache:get"`` — :meth:`repro.sweep.ResultCache.get`, before an entry is
  read.  The label is the cell key.
* ``"trace:load"`` — :meth:`repro.sweep.TraceStore.load`, before an artifact
  is mapped.  The label is the trace key.

Determinism contract: rules are matched on the *label* and the *attempt
number carried by the work item* — never on per-process hit counters that
would diverge between forked workers — so a "fail twice, then succeed"
rule behaves identically whichever worker draws the cell.  The optional
per-process ``times`` bound exists for parent-side points (``cache:get``,
``trace:load``) where the attempt number is always zero.

The file-corruption helpers (:func:`truncate_file`, :func:`flip_bits`) are
test-side utilities for the artifact-integrity paths: both are
deterministic given their arguments.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "FaultPlan",
    "FaultRule",
    "activate",
    "active",
    "deactivate",
    "flip_bits",
    "injection_point",
    "truncate_file",
]

#: What a ``"raise"`` rule throws: an exception instance (re-instantiated
#: per fire so tracebacks never chain across retries) or a zero-argument
#: factory.
ErrorSpec = Union[BaseException, Callable[[], BaseException], None]


@dataclass
class FaultRule:
    """One fault at one injection point.

    ``action`` is ``"raise"`` (throw ``error``), ``"kill"`` (terminate the
    current process with ``os._exit(exit_code)`` — from a pool worker this
    surfaces as ``BrokenProcessPool`` in the parent) or ``"hang"`` (sleep
    ``hang_seconds``, for exercising the scheduler's cell-timeout watchdog).

    ``match`` is a substring filter on the firing site's label (``None``
    matches every label).  ``attempts`` makes the rule fire only while the
    site's attempt number is below it — the deterministic way to express
    "fail N times, then succeed" across forked workers.  ``times`` bounds
    total fires *in this process* for parent-side points whose attempt
    number is always zero.
    """

    point: str
    action: str = "raise"
    error: ErrorSpec = None
    match: Optional[str] = None
    attempts: int = 1
    times: Optional[int] = None
    hang_seconds: float = 30.0
    exit_code: int = 13
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in ("raise", "kill", "hang"):
            raise ValueError(f"unknown fault action: {self.action!r}")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be at least 1 when given")

    def _materialize_error(self) -> BaseException:
        error = self.error
        if error is None:
            return OSError("injected transient fault")
        if isinstance(error, BaseException):
            # A fresh instance per fire: re-raising one exception object
            # across retries would chain tracebacks between attempts.
            return type(error)(*error.args)
        return error()


class FaultPlan:
    """An ordered schedule of faults.

    Rules fire deterministically on (point, label, attempt); see
    :class:`FaultRule`.
    """

    def __init__(self) -> None:
        self.rules: List[FaultRule] = []
        #: Every (point, label, attempt) that fired a rule, per process —
        #: observability for tests (forked workers accumulate their own).
        self.fired: List[Tuple[str, str, int]] = []

    def add(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def fail(
        self,
        point: str,
        error: ErrorSpec = None,
        match: Optional[str] = None,
        attempts: int = 1,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Raise ``error`` (default: a transient ``OSError``) at ``point``."""
        return self.add(FaultRule(
            point=point, action="raise", error=error, match=match,
            attempts=attempts, times=times,
        ))

    def timeout(
        self,
        point: str,
        match: Optional[str] = None,
        attempts: int = 1,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Raise ``TimeoutError`` at ``point`` (the cheap timeout path)."""
        return self.add(FaultRule(
            point=point, action="raise",
            error=TimeoutError("injected timeout"),
            match=match, attempts=attempts, times=times,
        ))

    def kill_worker(
        self,
        point: str,
        match: Optional[str] = None,
        attempts: int = 1,
        times: Optional[int] = None,
        exit_code: int = 13,
    ) -> FaultRule:
        """Terminate the process reaching ``point`` (``os._exit``)."""
        return self.add(FaultRule(
            point=point, action="kill", match=match, attempts=attempts,
            times=times, exit_code=exit_code,
        ))

    def hang(
        self,
        point: str,
        seconds: float = 30.0,
        match: Optional[str] = None,
        attempts: int = 1,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Sleep ``seconds`` at ``point`` (exercises the timeout watchdog)."""
        return self.add(FaultRule(
            point=point, action="hang", match=match, attempts=attempts,
            times=times, hang_seconds=seconds,
        ))

    def fire(self, point: str, label: str = "", attempt: int = 0) -> None:
        """Fire every matching rule for one arrival at an injection point."""
        for rule in self.rules:
            if rule.point != point:
                continue
            if rule.match is not None and rule.match not in label:
                continue
            if attempt >= rule.attempts:
                continue
            if rule.times is not None and rule.fired >= rule.times:
                continue
            rule.fired += 1
            self.fired.append((point, label, attempt))
            if rule.action == "kill":
                os._exit(rule.exit_code)
            if rule.action == "hang":
                time.sleep(rule.hang_seconds)
                continue
            raise rule._materialize_error()


#: The process-wide active plan.  Fork-context pool workers inherit it (the
#: pool is created after activation), so one plan covers parent and workers.
_ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` as the process-wide active fault plan."""
    global _ACTIVE
    _ACTIVE = plan


def deactivate() -> None:
    """Remove the active fault plan (injection points become no-ops)."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with active(plan): ...`` — activate for the block, then deactivate."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


def injection_point(point: str, label: str = "", attempt: int = 0) -> None:
    """Production-side hook: fire the active plan's rules, if any."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(point, label=label, attempt=attempt)


def truncate_file(path: Union[str, Path], keep_bytes: int) -> int:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (a torn write).

    Returns the number of bytes removed.  ``keep_bytes`` larger than the
    file leaves it untouched.
    """
    if keep_bytes < 0:
        raise ValueError("keep_bytes must be non-negative")
    target = Path(path)
    size = target.stat().st_size
    if size <= keep_bytes:
        return 0
    with open(target, "r+b") as handle:
        handle.truncate(keep_bytes)
    return size - keep_bytes


def flip_bits(path: Union[str, Path], count: int = 1, seed: int = 0) -> List[int]:
    """Flip ``count`` seeded-random bits of ``path`` in place (bit rot).

    Returns the byte offsets touched (deterministic given ``seed`` and the
    file length).  The file must be non-empty.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        raise ValueError(f"cannot flip bits of an empty file: {target}")
    rng = random.Random(seed)
    offsets: List[int] = []
    for _ in range(count):
        offset = rng.randrange(len(data))
        data[offset] ^= 1 << rng.randrange(8)
        offsets.append(offset)
    target.write_bytes(bytes(data))
    return offsets
