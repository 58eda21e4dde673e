"""Synthetic control-flow-graph construction and program layout.

The generator lays out a layered program: requests enter at layer 0 and call
down through successive layers (modelling the deep software stacks of server
workloads), with each function consisting of a chain of basic blocks whose
terminators are conditional branches, loops, calls, indirect dispatches and
returns.  The layout is deterministic for a given profile and seed.

Forward progress guarantees built into the layout:

* direct/indirect jumps and forward conditional branches only target *later*
  basic blocks of the same function,
* loops are backward conditional branches whose dynamic trip counts are
  bounded by the trace walker,
* calls only target functions in strictly deeper layers, bounding call depth
  by the number of layers, and
* the last basic block of every function is a return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.block import ProgramImage
from repro.isa.instruction import (
    INSTRUCTION_SIZE_BYTES,
    BranchKind,
    Instruction,
)
from repro.workloads.profiles import WorkloadProfile

#: Maximum instructions in a basic block (keeps blocks inside a few cache lines).
_MAX_BLOCK_LENGTH = 12
_MIN_BLOCK_LENGTH = 2


@dataclass(frozen=True)
class BranchBehavior:
    """Dynamic semantics of one branch, used by the trace walker.

    This captures behaviour the static :class:`~repro.isa.Instruction` does
    not encode: taken bias, loop trip counts and indirect target sets.
    """

    pc: int
    kind: BranchKind
    fallthrough: int
    taken_target: Optional[int]
    taken_bias: float = 1.0
    deterministic: bool = True
    is_loop: bool = False
    trip_range: Tuple[int, int] = (1, 1)
    indirect_targets: Tuple[int, ...] = ()


@dataclass
class BasicBlock:
    """A straight-line run of instructions ending in a branch."""

    start: int
    length: int
    terminator_kind: BranchKind
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def terminator_pc(self) -> int:
        return self.start + (self.length - 1) * INSTRUCTION_SIZE_BYTES

    @property
    def end(self) -> int:
        """Address one past the last instruction (start of the next block)."""
        return self.start + self.length * INSTRUCTION_SIZE_BYTES


@dataclass
class Function:
    """A synthetic function: contiguous basic blocks at one stack layer."""

    name: str
    layer: int
    entry: int
    basic_blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(block.length for block in self.basic_blocks) * INSTRUCTION_SIZE_BYTES


class ControlFlowGraph:
    """Static CFG of a synthetic program: functions, blocks and behaviours."""

    def __init__(self) -> None:
        self.functions: List[Function] = []
        self._function_by_entry: Dict[int, Function] = {}
        self._block_by_start: Dict[int, BasicBlock] = {}
        self._behavior_by_pc: Dict[int, BranchBehavior] = {}

    def add_function(self, function: Function) -> None:
        self.functions.append(function)
        self._function_by_entry[function.entry] = function
        for block in function.basic_blocks:
            self._block_by_start[block.start] = block

    def add_behavior(self, behavior: BranchBehavior) -> None:
        self._behavior_by_pc[behavior.pc] = behavior

    def function_at(self, entry: int) -> Optional[Function]:
        return self._function_by_entry.get(entry)

    def block_starting_at(self, address: int) -> Optional[BasicBlock]:
        return self._block_by_start.get(address)

    def behavior_of(self, branch_pc: int) -> BranchBehavior:
        return self._behavior_by_pc[branch_pc]

    def functions_in_layer(self, layer: int) -> List[Function]:
        return [function for function in self.functions if function.layer == layer]

    @property
    def branch_count(self) -> int:
        return len(self._behavior_by_pc)


@dataclass
class SyntheticProgram:
    """A fully laid-out synthetic workload binary."""

    profile: WorkloadProfile
    cfg: ControlFlowGraph
    image: ProgramImage
    entry_points: Tuple[int, ...]

    @property
    def footprint_bytes(self) -> int:
        return self.image.footprint_bytes

    @property
    def static_branch_count(self) -> int:
        return self.image.static_branch_count


class _FunctionPlan:
    """First-pass plan of a function: layer, entry address and block lengths."""

    __slots__ = ("name", "layer", "entry", "block_lengths")

    def __init__(self, name: str, layer: int, entry: int, block_lengths: List[int]) -> None:
        self.name = name
        self.layer = layer
        self.entry = entry
        self.block_lengths = block_lengths


def synthesize_program(profile: WorkloadProfile) -> SyntheticProgram:
    """Lay out a synthetic program for ``profile``.

    The synthesis is a two-pass process: the first pass fixes every function's
    entry address and basic-block sizes so call targets are known; the second
    pass materialises instructions, branch behaviours and the program image.
    """
    rng = random.Random(profile.seed)
    plans = _plan_functions(profile, rng)
    cfg = ControlFlowGraph()
    image = ProgramImage()
    plans_by_layer: Dict[int, List[_FunctionPlan]] = {}
    for plan in plans:
        plans_by_layer.setdefault(plan.layer, []).append(plan)

    for plan in plans:
        function = _materialize_function(plan, plans_by_layer, profile, rng, cfg, image)
        cfg.add_function(function)

    entries = tuple(
        plan.entry for plan in plans_by_layer[0][: profile.request_types]
    )
    return SyntheticProgram(profile=profile, cfg=cfg, image=image, entry_points=entries)


#: Per-process memo of synthesized programs: every consumer of a profile —
#: sweep cells, sessions, heterogeneous CMP cores — reuses one program
#: whether it runs in the parent or shares a worker process.  Programs are
#: comparatively small (their size is bounded by the profile's static
#: layout), so this memo is unbounded.
_PROGRAM_MEMO: Dict[WorkloadProfile, SyntheticProgram] = {}


def workload_program(profile: WorkloadProfile) -> SyntheticProgram:
    """Synthesize (or reuse) the program for ``profile`` in this process."""
    program = _PROGRAM_MEMO.get(profile)
    if program is None:
        program = synthesize_program(profile)
        _PROGRAM_MEMO[profile] = program
    return program


def clear_program_memo() -> None:
    """Drop the per-process program memo (frees its memory)."""
    _PROGRAM_MEMO.clear()


def _plan_functions(profile: WorkloadProfile, rng: random.Random) -> List[_FunctionPlan]:
    plans: List[_FunctionPlan] = []
    address = profile.code_base_address
    for layer in range(profile.layers):
        for index in range(profile.functions_per_layer):
            mean_blocks = profile.mean_basic_blocks
            count = max(2, int(round(rng.gauss(mean_blocks, mean_blocks * 0.35))))
            lengths = [
                _clamp(int(round(rng.gauss(profile.mean_block_length, 1.6))),
                       _MIN_BLOCK_LENGTH, _MAX_BLOCK_LENGTH)
                for _ in range(count)
            ]
            plans.append(_FunctionPlan(f"layer{layer}_fn{index}", layer, address, lengths))
            address += sum(lengths) * INSTRUCTION_SIZE_BYTES
            # Leave an alignment gap between functions, as linkers do.
            address = (address + 63) & ~63
    return plans


def _clamp(value: int, lower: int, upper: int) -> int:
    return max(lower, min(upper, value))


def _materialize_function(
    plan: _FunctionPlan,
    plans_by_layer: Dict[int, List[_FunctionPlan]],
    profile: WorkloadProfile,
    rng: random.Random,
    cfg: ControlFlowGraph,
    image: ProgramImage,
) -> Function:
    block_starts: List[int] = []
    address = plan.entry
    for length in plan.block_lengths:
        block_starts.append(address)
        address += length * INSTRUCTION_SIZE_BYTES

    function = Function(name=plan.name, layer=plan.layer, entry=plan.entry)
    last_index = len(plan.block_lengths) - 1
    callee_layer = plan.layer + 1
    has_deeper_layer = callee_layer in plans_by_layer

    # Functions near the top of the stack are dispatchers: they mostly route
    # requests to lower layers, so their call density is higher.  This keeps
    # the walk from ending before it descends into the service layers.
    call_boost = 1.8 if plan.layer <= 1 else 1.0
    chosen_kinds: List[BranchKind] = []

    for index, length in enumerate(plan.block_lengths):
        start = block_starts[index]
        kind = _choose_terminator(index, last_index, profile, rng, has_deeper_layer, call_boost)
        chosen_kinds.append(kind)
        block = BasicBlock(start=start, length=length, terminator_kind=kind)
        terminator_pc = block.terminator_pc
        fallthrough = block.end

        for slot in range(length - 1):
            instruction = Instruction(address=start + slot * INSTRUCTION_SIZE_BYTES)
            block.instructions.append(instruction)
            image.add_instruction(instruction)

        behavior = _build_terminator(
            kind=kind,
            terminator_pc=terminator_pc,
            fallthrough=fallthrough,
            block_index=index,
            block_starts=block_starts,
            plans_by_layer=plans_by_layer,
            callee_layer=callee_layer,
            profile=profile,
            rng=rng,
            preceding_kinds=chosen_kinds,
        )
        target_for_instruction = behavior.taken_target if behavior.kind.is_direct else None
        terminator = Instruction(
            address=terminator_pc, kind=behavior.kind, target=target_for_instruction
        )
        block.instructions.append(terminator)
        image.add_instruction(terminator)
        cfg.add_behavior(behavior)
        function.basic_blocks.append(block)

    return function


def _choose_terminator(
    index: int,
    last_index: int,
    profile: WorkloadProfile,
    rng: random.Random,
    has_deeper_layer: bool,
    call_boost: float = 1.0,
) -> BranchKind:
    if index == last_index:
        return BranchKind.RETURN
    draw = rng.random()
    threshold = profile.conditional_fraction
    if draw < threshold:
        return BranchKind.CONDITIONAL
    threshold += profile.call_fraction * call_boost
    if draw < threshold:
        return BranchKind.CALL if has_deeper_layer else BranchKind.CONDITIONAL
    threshold += profile.indirect_call_fraction * call_boost
    if draw < threshold:
        return BranchKind.INDIRECT_CALL if has_deeper_layer else BranchKind.CONDITIONAL
    threshold += profile.indirect_jump_fraction
    if draw < threshold:
        return BranchKind.INDIRECT
    threshold += profile.unconditional_fraction
    if draw < threshold:
        return BranchKind.UNCONDITIONAL
    return BranchKind.RETURN


def _build_terminator(
    kind: BranchKind,
    terminator_pc: int,
    fallthrough: int,
    block_index: int,
    block_starts: Sequence[int],
    plans_by_layer: Dict[int, List[_FunctionPlan]],
    callee_layer: int,
    profile: WorkloadProfile,
    rng: random.Random,
    preceding_kinds: Sequence[BranchKind] = (),
) -> BranchBehavior:
    last_index = len(block_starts) - 1

    if kind is BranchKind.RETURN:
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=None,
            taken_bias=1.0,
        )

    if kind is BranchKind.CONDITIONAL:
        make_loop = block_index > 0 and rng.random() < profile.loop_fraction
        if make_loop:
            # Loop bodies are short (at most two preceding blocks) and must
            # not enclose call sites: compute loops (row scans, comparisons)
            # iterate locally, while calls are executed once per path.  This
            # keeps per-request instruction counts bounded and the call tree
            # wide rather than repetitive.
            candidates = [
                j
                for j in range(max(0, block_index - 2), block_index)
                if not preceding_kinds[j].is_call
            ]
            if candidates:
                target_index = rng.choice(candidates)
                trip_low, trip_high = profile.loop_trip_range
                return BranchBehavior(
                    pc=terminator_pc,
                    kind=kind,
                    fallthrough=fallthrough,
                    taken_target=block_starts[target_index],
                    taken_bias=0.9,
                    deterministic=False,
                    is_loop=True,
                    trip_range=(trip_low, trip_high),
                )
        skip = rng.randint(1, min(6, last_index - block_index))
        target_index = min(last_index, block_index + skip)
        taken_bias = rng.choice(profile.taken_bias_choices)
        deterministic = rng.random() < profile.deterministic_fraction
        if not deterministic:
            # Data-dependent branches still behave in a strongly-biased way in
            # server code; an unbiased coin here would destroy the
            # request-level recurrence real workloads exhibit.
            taken_bias = 0.9 if taken_bias >= 0.5 else 0.1
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=block_starts[target_index],
            taken_bias=taken_bias,
            deterministic=deterministic,
        )

    if kind is BranchKind.UNCONDITIONAL:
        skip = rng.randint(1, min(4, last_index - block_index))
        target_index = min(last_index, block_index + skip)
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=block_starts[target_index],
        )

    if kind is BranchKind.INDIRECT:
        candidates = _forward_targets(
            block_starts, block_index, profile.cross_layer_fanout + 1, rng
        )
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=None,
            indirect_targets=candidates,
        )

    callees = plans_by_layer[callee_layer]
    if kind is BranchKind.CALL:
        callee = rng.choice(callees)
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=callee.entry,
        )

    if kind is BranchKind.INDIRECT_CALL:
        fanout = min(profile.cross_layer_fanout, len(callees))
        chosen = rng.sample(callees, fanout)
        return BranchBehavior(
            pc=terminator_pc,
            kind=kind,
            fallthrough=fallthrough,
            taken_target=None,
            indirect_targets=tuple(plan.entry for plan in chosen),
        )

    raise ValueError(f"unhandled terminator kind {kind}")


def _forward_targets(
    block_starts: Sequence[int], block_index: int, fanout: int, rng: random.Random
) -> Tuple[int, ...]:
    forward = list(block_starts[block_index + 1 :])
    if not forward:
        return (block_starts[-1],)
    count = min(fanout, len(forward))
    return tuple(rng.sample(forward, count))
