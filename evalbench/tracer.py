"""Per-layer tracing for the benchmark's traced pass.

The tracer wraps public methods (at class level) and public functions (at
module level) of the simulator's layers, from the benchmark's own files:
nothing under ``src/`` changes.  Each wrapper keeps a stack of open calls so
it can split a call's wall time into *self* time and time spent in wrapped
callees.  Per label it keeps, in memory:

* ``calls``: completed calls,
* ``inclusive``: wall time of the outermost call of the label (a label
  re-entered from inside itself is counted once),
* ``self``: wall time minus the time of wrapped callees.

Coarse boundaries (workload iteration, grid cell or figure study, design
run) also record *spans* — name, start, end, parent span, run id — which are
written out when the run ends.

Forked pool workers inherit the wrappers.  A worker starts from empty
totals (``os.register_at_fork``) and, after each grid cell it simulates,
writes its cumulative totals to ``exchange_dir``; the parent folds those
files back in with :meth:`Tracer.collect_children`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

clock = time.perf_counter

#: A label, or a function of the wrapped call's (args, kwargs) giving one.
Label = Union[str, Callable[[tuple, dict], str]]

_FORK_HOOKED: List["Tracer"] = []


def _on_fork_in_child() -> None:
    for tracer in _FORK_HOOKED:
        if tracer.installed:
            tracer._reset_for_child()


class Tracer:
    """In-memory call statistics, counters and spans for one process."""

    def __init__(self, exchange_dir: Optional[Path] = None) -> None:
        #: label -> [calls, inclusive seconds, self seconds, open depth]
        self.stats: Dict[str, List[float]] = {}
        #: Free-form counters (FrontendResult counters, simulations, ...).
        self.counts: Dict[str, float] = {}
        #: Distinct-key sets (e.g. traces generated, analysis pairs).
        self.keys: Dict[str, Set[str]] = {}
        self.spans: List[Dict[str, Any]] = []
        self.run_id: Optional[str] = None
        self.exchange_dir = exchange_dir
        self.installed = False
        self.in_child = False
        self._stack: List[List[float]] = []
        self._span_stack: List[str] = []
        self._span_seq = 0
        self._patches: List[Tuple[object, str, object]] = []
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_on_fork_in_child)
        _FORK_HOOKED.append(self)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def timed(self, fn: Callable[..., Any],
              labels: Union[Label, Sequence[str]]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call adds to the statistics of its label(s).

        ``labels`` is one label or a tuple of fixed labels; self time goes
        to the first, calls and inclusive time to each of them.
        """
        stats = self.stats
        stack = self._stack
        if isinstance(labels, (tuple, list)):
            names = tuple(labels)
            label: Label = names[0]
            extra: Tuple[str, ...] = names[1:]
        else:
            label, extra = labels, ()

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = label if isinstance(label, str) else label(args, kwargs)
            record = stats.get(name)
            if record is None:
                record = stats[name] = [0, 0.0, 0.0, 0]
            others = [stats.setdefault(other, [0, 0.0, 0.0, 0]) for other in extra] if extra else ()
            frame = [0.0]
            stack.append(frame)
            record[3] += 1
            for other in others:
                other[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record[0] += 1
                record[2] += elapsed - frame[0]
                record[3] -= 1
                if record[3] == 0:
                    record[1] += elapsed
                for other in others:
                    other[0] += 1
                    other[3] -= 1
                    if other[3] == 0:
                        other[1] += elapsed

        return functools.wraps(fn)(traced)

    def coarse(
        self,
        fn: Callable[..., Any],
        labels: Union[Label, Sequence[str]],
        span: Optional[Callable[[tuple, dict], str]] = None,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """:meth:`timed`, plus a span around each call and an ``after`` hook."""
        timed = self.timed(fn, labels)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(span(args, kwargs)) if span is not None else contextlib.nullcontext():
                result = timed(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def patch_method(self, cls: type, name: str, wrapper: Callable[..., Any]) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) with ``wrapper``."""
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def patch_function(self, module_prefix: str, original: Callable[..., Any],
                       wrapper: Callable[..., Any]) -> None:
        """Point every module-level alias of ``original`` at ``wrapper``.

        Functions imported by name (``from x import f``) live on in each
        importing module, so every loaded module under ``module_prefix``
        holding ``original`` is patched.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(module_prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    # ------------------------------------------------------------------ #
    # Spans and counters
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[str]:
        """Record one coarse span; nested spans name it as their parent."""
        self._span_seq += 1
        span_id = f"{os.getpid()}-{self._span_seq}"
        record = {
            "id": span_id,
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "run": self.run_id,
            "pid": os.getpid(),
        }
        self.spans.append(record)
        self._span_stack.append(span_id)
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            record["end"] = clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_key(self, name: str, key: str) -> None:
        self.keys.setdefault(name, set()).add(key)

    def inclusive(self, label: str) -> float:
        return self.stats.get(label, [0, 0.0, 0.0, 0])[1]

    def self_time(self, label: str) -> float:
        return self.stats.get(label, [0, 0.0, 0.0, 0])[2]

    def calls(self, label: str) -> int:
        return int(self.stats.get(label, [0, 0.0, 0.0, 0])[0])

    def reset(self) -> None:
        """Drop totals, counters, keys and spans (open frames stay valid)."""
        self.stats.clear()
        self.counts.clear()
        self.keys.clear()
        self.spans.clear()

    # ------------------------------------------------------------------ #
    # Forked workers
    # ------------------------------------------------------------------ #

    def _reset_for_child(self) -> None:
        # In-place: the wrappers hold references to these containers.  The
        # parent's open span stack is kept, so worker spans name the span
        # that was open when the pool forked as their parent.
        self.reset()
        del self._stack[:]
        self.in_child = True

    def dump_child(self) -> None:
        """Write this worker's cumulative totals for the parent to collect."""
        if not self.in_child or self.exchange_dir is None:
            return
        payload = {
            "stats": {label: record[:3] for label, record in self.stats.items()},
            "counts": self.counts,
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
            "spans": self.spans,
        }
        self.exchange_dir.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(dir=self.exchange_dir, prefix=".tmp-")
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            json.dump(payload, out)
        os.replace(tmp, self.exchange_dir / f"worker-{os.getpid()}.json")

    def collect_children(self) -> int:
        """Fold every worker's totals into this tracer; returns worker count."""
        if self.exchange_dir is None or not self.exchange_dir.is_dir():
            return 0
        workers = 0
        for path in sorted(self.exchange_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            workers += 1
            for label, (calls, inclusive, self_s) in payload["stats"].items():
                record = self.stats.setdefault(label, [0, 0.0, 0.0, 0])
                record[0] += calls
                record[1] += inclusive
                record[2] += self_s
            for name, amount in payload["counts"].items():
                self.count(name, amount)
            for name, keys in payload["keys"].items():
                self.keys.setdefault(name, set()).update(keys)
            self.spans.extend(payload["spans"])
        return workers


def write_spans(spans: List[Dict[str, Any]], path: Path) -> None:
    """Write spans as JSON lines, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for span in sorted(spans, key=lambda item: item["start"]):
            out.write(json.dumps(span, sort_keys=True) + "\n")
