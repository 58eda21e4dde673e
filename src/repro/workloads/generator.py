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

Every outcome except a data-dependent branch's is a pure function of
(branch, key) through :func:`_stable_fraction`, and those recur: the same
(request type, operation) path visits the same blocks with the same keys
request after request.  One walk (:meth:`TraceWalker.run_packed`) therefore
keeps two caches that die with it: a row per visited block (its static
region columns, dispatch code, targets and parameter-sensitivity flag) and
a ``(pc, key)`` memo of :func:`_stable_fraction`.  They only save work —
the walker draws from its RNG in the same order, so a trace is the same
with or without them.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import BranchKind
from repro.workloads.cfg import SyntheticProgram, synthesize_program
from repro.workloads.packed import (
    NO_VALUE,
    PackedTrace,
    PackedTraceBuilder,
    RegionRow,
    kind_code,
    region_row,
)
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


# How the walker resolves a block's terminating branch (a block row's
# dispatch code; the emitted ``kinds`` column keeps the branch kind).
_DETERMINISTIC = 0  # conditional, a pure function of (branch, key)
_DATA_DEPENDENT = 1  # conditional, one RNG draw
_LOOP = 2  # conditional back edge with a per-invocation trip count
_JUMP = 3  # unconditional
_CALL = 4
_INDIRECT_CALL = 5
_INDIRECT = 6
_RETURN = 7

#: (``kinds`` column code, dispatch code) per branch kind; a conditional's
#: dispatch code is refined from its block.
_KIND_DISPATCH: Dict[BranchKind, Tuple[int, int]] = {
    kind: (kind_code(kind), code)
    for kind, code in (
        (BranchKind.CONDITIONAL, _DETERMINISTIC),
        (BranchKind.UNCONDITIONAL, _JUMP),
        (BranchKind.CALL, _CALL),
        (BranchKind.INDIRECT_CALL, _INDIRECT_CALL),
        (BranchKind.INDIRECT, _INDIRECT),
        (BranchKind.RETURN, _RETURN),
    )
}

#: A visited block, resolved once per walk: (region row, instruction count,
#: dispatch code, branch pc, static target, end, parameter-sensitive flag,
#: taken bias, loop trip range or indirect targets).
_BlockRow = Tuple[RegionRow, int, int, int, int, int, bool, float, Tuple[int, ...]]


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

        The walker hands each operation's regions to a
        :class:`~repro.workloads.packed.PackedTraceBuilder` in one batch —
        no ``FetchRecord`` objects exist on this path.  The block rows and
        the fraction memo live for this call only.
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        builder = PackedTraceBuilder(name=name or self.profile.name)
        blocks: Dict[int, _BlockRow] = {}
        fractions: Dict[Tuple[int, int], float] = {}
        instructions = 0
        while instructions < max_instructions:
            request_type = self._pick_request_type()
            parameter = self._rng.randrange(self.profile.request_parameters)
            instructions += self._run_request(
                request_type, parameter, builder, blocks, fractions
            )
            self.requests_completed += 1
        return builder.build()

    def _pick_request_type(self) -> int:
        draw = self._rng.random()
        cumulative = 0.0
        for index, weight in enumerate(self._request_weights):
            cumulative += weight
            if draw < cumulative:
                return index
        return len(self._request_weights) - 1

    def _run_request(
        self,
        request_type: int,
        parameter: int,
        builder: PackedTraceBuilder,
        blocks: Dict[int, _BlockRow],
        fractions: Dict[Tuple[int, int], float],
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
            instructions += self._run_operation(
                entry, path_key, parameter, builder, blocks, fractions
            )
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

    def _block_row(self, pc: int) -> Optional[_BlockRow]:
        """The walker's row for the block starting at ``pc`` (None: no block),
        read off the block's record of itself and the branch that ends it."""
        block = self.program.cfg.block_starting_at(pc)
        if block is None:
            return None
        dispatch = _KIND_DISPATCH.get(block.kind)
        if dispatch is None:
            raise ValueError(f"unhandled branch kind {block.kind}")
        kind, code = dispatch
        extra: Tuple[int, ...] = block.indirect_targets
        if code == _DETERMINISTIC:
            if block.is_loop:
                code, extra = _LOOP, block.trip_range
            elif not block.deterministic:
                code = _DATA_DEPENDENT
        branch_pc = block.terminator_pc
        # Resolution key: the (type, operation) path, plus the request
        # parameter for the minority of parameter-sensitive branches.  Only
        # keyed outcomes need the flag.
        keyed = code == _DETERMINISTIC or code == _LOOP or len(extra) > 1
        sensitive = (
            keyed
            and _stable_fraction(branch_pc, 0xA11CE) < _PARAMETER_SENSITIVE_FRACTION
        )
        target = block.taken_target
        static_target = target if target is not None else NO_VALUE
        return (
            region_row(pc, block.length, branch_pc, kind, static_target),
            block.length,
            code,
            branch_pc,
            static_target,
            block.end,
            sensitive,
            block.taken_bias,
            extra,
        )

    def _run_operation(
        self,
        entry: int,
        path_key: int,
        parameter: int,
        builder: PackedTraceBuilder,
        blocks: Dict[int, _BlockRow],
        fractions: Dict[Tuple[int, int], float],
    ) -> int:
        """Walk one operation from ``entry``; returns its instruction count.

        One loop resolves every branch inline: conditionals against their
        bias (loops count trips per function invocation, data-dependent
        branches draw from the RNG), calls within the operation's
        invocation budget, indirect branches by a keyed dispatch.  The
        operation ends when its entry function returns, its walk reaches an
        address with no block, or it hits ``_MAX_REGIONS_PER_OPERATION``;
        its regions then go to ``builder`` in one batch.
        """
        draw = self._rng.random
        sensitive_key = path_key * 8191 + parameter + 1
        budget_span = _MAX_INVOCATIONS_PER_OPERATION - _MIN_INVOCATIONS_PER_OPERATION
        budget = _MIN_INVOCATIONS_PER_OPERATION + int(
            _stable_fraction(entry, path_key) * (budget_span + 1)
        )
        returns: List[int] = []  # return address of each open call
        # Per function invocation: loop branch pc -> back edges left.  The
        # count bounds the *total* times a back edge is taken within one
        # invocation and is never re-armed on loop exit: overlapping back
        # edges would otherwise keep re-arming each other and the walk would
        # never make forward progress.
        loops: List[Dict[int, int]] = [{}]
        rows: List[RegionRow] = []
        takens: List[int] = []
        next_pcs: List[int] = []
        instructions = 0
        regions = 0
        pc = entry
        while regions < _MAX_REGIONS_PER_OPERATION:
            block = blocks.get(pc)
            if block is None:
                block = self._block_row(pc)
                if block is None:
                    break
                blocks[pc] = block
            row, length, code, branch_pc, target, end, sensitive, bias, extra = block
            instructions += length
            regions += 1
            rows.append(row)
            if code <= _LOOP:  # a conditional branch
                if code == _DATA_DEPENDENT:
                    taken = draw() < bias
                else:
                    key = sensitive_key if sensitive else path_key
                    if code == _DETERMINISTIC:
                        memo = (branch_pc, key)
                        fraction = fractions.get(memo)
                        if fraction is None:
                            fraction = fractions[memo] = _stable_fraction(branch_pc, key)
                        taken = fraction < bias
                    else:
                        frame = loops[-1]
                        left = frame.get(branch_pc)
                        if left is None:
                            # Trip counts are data-dependent in real code,
                            # but for a given request the data is fixed: the
                            # same path over the same parameter iterates the
                            # same number of times, which keeps the
                            # request-level recurrence stream prefetchers
                            # rely on.
                            memo = (branch_pc ^ 0x10F00, key)
                            fraction = fractions.get(memo)
                            if fraction is None:
                                fraction = fractions[memo] = _stable_fraction(*memo)
                            low, high = extra
                            left = low + int(fraction * (high - low + 1))
                        left -= 1
                        frame[branch_pc] = left
                        taken = left > 0
                takens.append(taken)
                pc = target if taken else end
                next_pcs.append(pc)
                continue
            takens.append(1)
            if code == _RETURN:
                if not returns:  # the operation's entry function returned
                    next_pcs.append(end)
                    break
                loops.pop()
                pc = returns.pop()
            elif code == _JUMP:
                pc = target
            elif code != _INDIRECT and budget <= 0:
                # A call past the budget: the callee's work is elided,
                # modelling a trivially short callee that returns at once.
                pc = end
            else:
                if code != _INDIRECT:
                    budget -= 1
                    returns.append(end)
                    loops.append({})
                if code != _CALL:
                    # Request-determined dispatch, mirroring virtual-call
                    # sites whose receiver is a function of the request.
                    if len(extra) == 1:
                        pc = extra[0]
                    else:
                        key = sensitive_key if sensitive else path_key
                        memo = (branch_pc, key)
                        fraction = fractions.get(memo)
                        if fraction is None:
                            fraction = fractions[memo] = _stable_fraction(branch_pc, key)
                        index = int(fraction * len(extra))
                        pc = extra[min(index, len(extra) - 1)]
                else:
                    pc = target
            next_pcs.append(pc)
        builder.extend(rows, takens, next_pcs)
        return instructions


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

    The figure benchmarks build their shared evaluation workloads through
    this call (``benchmarks/conftest.py``), as does
    ``examples/btb_design_space.py``.
    """
    program = synthesize_program(profile)
    count = instructions or profile.recommended_trace_instructions
    trace = generate_trace(program, count, seed=trace_seed, name=profile.name)
    return program, trace
