"""Trace generation: walking the synthetic CFG as a stream of requests.

The walker models a server core perpetually serving requests drawn from a
skewed request-type mix.  A request consists of several *operations* (think:
the statements of a transaction, the handlers of an HTTP request); each
operation enters the software stack at a layer-0 function selected by the
request type and calls down through the layers.

Branch outcomes are resolved so that the trace exhibits the properties the
evaluated frontend mechanisms depend on:

* most conditional branches resolve identically for a given request type
  (request-level recurrence, i.e. long temporal instruction streams),
* a minority are parameter-sensitive (the warehouse / URL / table a request
  touches), widening the dynamic instruction working set across requests, and
* loops and data-dependent branches add bounded per-execution variation.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import BranchKind
from repro.workloads.cfg import BranchBehavior, SyntheticProgram, synthesize_program
from repro.workloads.packed import NO_VALUE, PackedTrace, PackedTraceBuilder, kind_code
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import Trace

#: Safety limit on fetch regions per operation, to bound pathological walks.
_MAX_REGIONS_PER_OPERATION = 3_000

#: Function-invocation budget per operation.  Each operation expands call
#: sites until the budget runs out, which keeps operation sizes in the
#: few-thousand-instruction range typical of one statement of a server
#: request (and prevents the call tree from either dying out immediately or
#: exploding combinatorially).  The budget is a deterministic function of the
#: operation's path key so that every instance of an operation does the same
#: amount of work.
_MIN_INVOCATIONS_PER_OPERATION = 50
_MAX_INVOCATIONS_PER_OPERATION = 100

#: Fraction of deterministic branches whose outcome also depends on the
#: request parameter rather than the request type alone.
_PARAMETER_SENSITIVE_FRACTION = 0.04


def _stable_fraction(branch_pc: int, key: int) -> float:
    """Deterministic pseudo-random value in [0, 1) per (branch, key)."""
    data = f"{branch_pc:x}:{key}".encode()
    return (zlib.crc32(data) & 0xFFFFFFFF) / 2**32


@dataclass
class _Frame:
    """Per-invocation state: return address and loop trip bookkeeping."""

    return_address: Optional[int]
    loop_counts: Dict[int, int]
    loop_limits: Dict[int, int]


class TraceWalker:
    """Walks a :class:`SyntheticProgram`, emitting fetch-region records."""

    def __init__(self, program: SyntheticProgram, seed: int = 1) -> None:
        self.program = program
        self.profile = program.profile
        self._rng = random.Random(seed)
        self._request_weights = self._build_request_weights()
        self._layer0_entries = tuple(
            function.entry for function in program.cfg.functions_in_layer(0)
        )
        self.requests_completed = 0
        self.operations_completed = 0
        self._call_budget = 0

    def _build_request_weights(self) -> List[float]:
        s = self.profile.request_zipf_s
        weights = [1.0 / (rank + 1) ** s for rank in range(self.profile.request_types)]
        total = sum(weights)
        return [weight / total for weight in weights]

    def run(self, max_instructions: int, name: Optional[str] = None) -> Trace:
        """Generate a trace of at least ``max_instructions`` instructions."""
        return Trace.from_packed(self.run_packed(max_instructions, name=name))

    def run_packed(
        self, max_instructions: int, name: Optional[str] = None
    ) -> PackedTrace:
        """Generate the trace directly in columnar form.

        The walker appends scalar columns into a
        :class:`~repro.workloads.packed.PackedTraceBuilder` — no
        ``FetchRecord`` objects exist on this path.
        """
        builder = PackedTraceBuilder(name=name or self.profile.name)
        self._walk_requests(max_instructions, builder)
        return builder.build()

    def _walk_requests(self, max_instructions: int, builder: PackedTraceBuilder) -> None:
        """Serve requests into ``builder`` until ``max_instructions`` ran."""
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        instructions = 0
        while instructions < max_instructions:
            request_type = self._pick_request_type()
            parameter = self._rng.randrange(self.profile.request_parameters)
            instructions += self._run_request(request_type, parameter, builder)
            self.requests_completed += 1

    def _pick_request_type(self) -> int:
        draw = self._rng.random()
        cumulative = 0.0
        for index, weight in enumerate(self._request_weights):
            cumulative += weight
            if draw < cumulative:
                return index
        return len(self._request_weights) - 1

    def _run_request(
        self, request_type: int, parameter: int, builder: PackedTraceBuilder
    ) -> int:
        """Serve one request: the fixed operation sequence of its type.

        Every request of a given type executes the same operations in the
        same order (a transaction's statements, a page's handlers), which is
        what makes server instruction streams recur at the request level.
        Per-request variation comes from the request parameter, which only
        affects the minority of parameter-sensitive branches.
        """
        instructions = 0
        for op_index in range(self.profile.distinct_operations):
            entry = self._operation_entry(request_type, op_index)
            # The path key identifies the (request type, operation) pair; a
            # given pair always follows the same deterministic path, which is
            # the unit of temporal-stream recurrence.
            path_key = (request_type << 8) | op_index
            instructions += self._run_operation(entry, path_key, parameter, builder)
            self.operations_completed += 1
        return instructions

    def _operation_entry(self, request_type: int, op_index: int) -> int:
        """Layer-0 function where operation ``op_index`` of this type starts.

        Different request types map their operations onto (mostly) different
        layer-0 functions, so each type exercises its own slice of the code
        base — the source of the multi-hundred-kilobyte dynamic working set.
        """
        selector = _stable_fraction(request_type * 131 + op_index, 0x5EED)
        index = int(selector * len(self._layer0_entries))
        return self._layer0_entries[min(index, len(self._layer0_entries) - 1)]

    def _run_operation(
        self,
        entry: int,
        path_key: int,
        parameter: int,
        builder: PackedTraceBuilder,
    ) -> int:
        cfg = self.program.cfg
        pc = entry
        stack: List[_Frame] = [_Frame(None, {}, {})]
        instructions = 0
        regions = 0
        budget_span = _MAX_INVOCATIONS_PER_OPERATION - _MIN_INVOCATIONS_PER_OPERATION
        self._call_budget = _MIN_INVOCATIONS_PER_OPERATION + int(
            _stable_fraction(entry, path_key) * (budget_span + 1)
        )

        while regions < _MAX_REGIONS_PER_OPERATION:
            block = cfg.block_starting_at(pc)
            if block is None:
                break
            behavior = cfg.behavior_of(block.terminator_pc)
            taken, next_pc = self._resolve(behavior, path_key, parameter, stack)
            target = behavior.taken_target
            builder.append(
                pc,
                block.length,
                block.terminator_pc,
                kind_code(behavior.kind),
                1 if taken else 0,
                target if target is not None else NO_VALUE,
                next_pc if next_pc is not None else block.end,
            )
            instructions += block.length
            regions += 1
            if next_pc is None:
                break
            pc = next_pc
        return instructions

    def _branch_key(self, behavior: BranchBehavior, path_key: int, parameter: int) -> int:
        """Resolution key: the (type, operation) path, plus the request
        parameter for the minority of parameter-sensitive branches."""
        if _stable_fraction(behavior.pc, 0xA11CE) < _PARAMETER_SENSITIVE_FRACTION:
            return path_key * 8191 + parameter + 1
        return path_key

    def _resolve(
        self,
        behavior: BranchBehavior,
        path_key: int,
        parameter: int,
        stack: List[_Frame],
    ) -> Tuple[bool, Optional[int]]:
        """Resolve one branch: (taken, next_pc); next_pc None ends the operation."""
        kind = behavior.kind

        if kind is BranchKind.RETURN:
            frame = stack.pop()
            if not stack or frame.return_address is None:
                return True, None
            return True, frame.return_address

        if kind is BranchKind.CONDITIONAL:
            taken = self._resolve_conditional(behavior, path_key, parameter, stack[-1])
            return taken, behavior.taken_target if taken else behavior.fallthrough

        if kind is BranchKind.UNCONDITIONAL:
            return True, behavior.taken_target

        if kind is BranchKind.CALL:
            if self._call_budget <= 0:
                # Budget exhausted: the callee's work is elided, modelling a
                # trivially short callee that returns immediately.
                return True, behavior.fallthrough
            self._call_budget -= 1
            stack.append(_Frame(behavior.fallthrough, {}, {}))
            return True, behavior.taken_target

        if kind is BranchKind.INDIRECT_CALL:
            if self._call_budget <= 0:
                return True, behavior.fallthrough
            self._call_budget -= 1
            target = self._resolve_indirect(behavior, path_key, parameter)
            stack.append(_Frame(behavior.fallthrough, {}, {}))
            return True, target

        if kind is BranchKind.INDIRECT:
            return True, self._resolve_indirect(behavior, path_key, parameter)

        raise ValueError(f"unhandled branch kind {kind}")

    def _resolve_conditional(
        self,
        behavior: BranchBehavior,
        path_key: int,
        parameter: int,
        frame: _Frame,
    ) -> bool:
        if behavior.is_loop:
            pc = behavior.pc
            if pc not in frame.loop_limits:
                frame.loop_limits[pc] = self._loop_trip_count(behavior, path_key, parameter)
                frame.loop_counts[pc] = 0
            frame.loop_counts[pc] += 1
            # The limit bounds the *total* times this back edge is taken within
            # one function invocation.  Counters are intentionally never reset
            # on exit: overlapping back edges would otherwise keep re-arming
            # each other and the walk would never make forward progress.
            return frame.loop_counts[pc] < frame.loop_limits[pc]
        if behavior.deterministic:
            key = self._branch_key(behavior, path_key, parameter)
            return _stable_fraction(behavior.pc, key) < behavior.taken_bias
        return self._rng.random() < behavior.taken_bias

    def _loop_trip_count(self, behavior: BranchBehavior, path_key: int, parameter: int) -> int:
        """Trip count of a loop for this (path, parameter).

        Trip counts are data-dependent in real code, but for a given request
        the data is fixed — the same path over the same parameter iterates the
        same number of times.  Keeping trips a pure function of the path key
        preserves the request-level recurrence of the instruction stream that
        server workloads exhibit and stream prefetchers rely on.
        """
        low, high = behavior.trip_range
        key = self._branch_key(behavior, path_key, parameter)
        fraction = _stable_fraction(behavior.pc ^ 0x10F00, key)
        return low + int(fraction * (high - low + 1))

    def _resolve_indirect(
        self, behavior: BranchBehavior, path_key: int, parameter: int
    ) -> int:
        targets = behavior.indirect_targets
        if len(targets) == 1:
            return targets[0]
        # Request-determined dispatch, mirroring virtual-call sites whose
        # receiver is a function of the request being served.
        key = self._branch_key(behavior, path_key, parameter)
        index = int(_stable_fraction(behavior.pc, key) * len(targets))
        return targets[min(index, len(targets) - 1)]


def generate_trace(
    program: SyntheticProgram, instructions: int, seed: int = 1, name: Optional[str] = None
) -> Trace:
    """Convenience wrapper: build a walker and generate ``instructions``."""
    walker = TraceWalker(program, seed=seed)
    return walker.run(instructions, name=name)


def build_workload(
    profile: WorkloadProfile,
    instructions: Optional[int] = None,
    trace_seed: int = 1,
) -> Tuple[SyntheticProgram, Trace]:
    """Synthesize the program for ``profile`` and generate its trace.

    This is the one-call entry point most examples and benchmarks use.
    """
    program = synthesize_program(profile)
    count = instructions or profile.recommended_trace_instructions
    trace = generate_trace(program, count, seed=trace_seed, name=profile.name)
    return program, trace
