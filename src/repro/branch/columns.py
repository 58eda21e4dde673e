"""Per-trace branch predictor columns: the design-invariant half of the BPU.

Every design point pairs its own BTB with the same Table 1 direction
predictor, return address stack and indirect target cache, and
:class:`~repro.branch.unit.BranchPredictionUnit` never lets BTB outcomes or
timing reach those three.  What they predict is therefore a pure function of
the trace and of their starting state.  :func:`build_branch_columns` walks a
packed trace once, driving the three components through the calls
``predict_region``/``resolve_region`` make, in the same order, minus the BTB,
and records per region:

* ``predicted_takens`` — the predicted direction (1 taken, 0 not taken; a
  region without a branch predicts 0),
* ``target_hits`` — for a predicted-taken return or indirect branch, whether
  the RAS or indirect-cache target equals the region's ``next_pc`` (1/0);
  :data:`USE_BTB` wherever the BTB supplies the target instead,

plus the trace's direction-misprediction count.  FDP's runahead reads one
more column per fetch-queue depth, built on first request
(:meth:`BranchColumns.runahead_stops`).

:func:`columns_for` keeps warm state exact under one rule.  A plain
``BranchPredictionUnit`` whose predictors are the default classes and
geometry in their freshly constructed state is served the trace's memo
(:func:`trace_columns`), and :meth:`BranchColumns.settle` then copies the
memo's end state into the live components.  Anything else — a reused,
pre-trained or custom predictor — gets the builder run over its live
components, which end exactly where a region-by-region walk leaves them.
"""

from __future__ import annotations

import copy
import functools
from array import array
from typing import Callable, Dict, Optional, Tuple

from repro.branch.direction import (
    DirectionPredictor,
    DirectionState,
    HybridDirectionPredictor,
)
from repro.branch.indirect import IndirectState, IndirectTargetCache
from repro.branch.ras import RASState, ReturnAddressStack
from repro.branch.unit import BranchPredictionUnit
from repro.isa.instruction import INSTRUCTION_SIZE_BYTES, BranchKind
from repro.staticcheck.markers import hot_loop
from repro.workloads.packed import NO_VALUE, PackedTrace, kind_code

__all__ = [
    "USE_BTB",
    "BranchColumns",
    "build_branch_columns",
    "columns_for",
    "trace_columns",
]

#: ``target_hits`` marker: the BTB supplies this region's predicted target.
USE_BTB = -1

_CONDITIONAL = kind_code(BranchKind.CONDITIONAL)
_RETURN = kind_code(BranchKind.RETURN)
_INDIRECT = kind_code(BranchKind.INDIRECT)
_INDIRECT_CALL = kind_code(BranchKind.INDIRECT_CALL)
_CALL = kind_code(BranchKind.CALL)

#: End state of the three components after a walk (their ``state()`` values).
EndState = Tuple[DirectionState, RASState, IndirectState]


#: What freshly constructed default predictors look like (the memo's start).
_FRESH_STATE: EndState = (
    HybridDirectionPredictor().state(),
    ReturnAddressStack().state(),
    IndirectTargetCache().state(),
)


class BranchColumns:
    """The per-region predictor outcomes of one trace (see the module doc).

    ``end_state`` is set on a trace's memo, which was built over private
    components: :meth:`settle` copies it into the live ones after a run.
    Columns built over live components leave it ``None``.  The initial
    direction predictor is kept as a factory so :meth:`runahead_stops` can
    replay it per queue depth.
    """

    __slots__ = (
        "predicted_takens",
        "target_hits",
        "direction_mispredictions",
        "end_state",
        "_initial_direction",
        "_runahead_stops",
    )

    def __init__(
        self,
        predicted_takens: "array[int]",
        target_hits: "array[int]",
        direction_mispredictions: int,
        initial_direction: Callable[[], DirectionPredictor],
    ) -> None:
        self.predicted_takens = predicted_takens
        self.target_hits = target_hits
        self.direction_mispredictions = direction_mispredictions
        self.end_state: Optional[EndState] = None
        self._initial_direction = initial_direction
        self._runahead_stops: Dict[int, "array[int]"] = {}

    def runahead_stops(self, packed: PackedTrace, depth: int) -> "array[int]":
        """FDP's stop column for a fetch queue of ``depth`` basic blocks.

        ``stops[i]`` is the offset ``k < depth`` of the first region among
        ``i .. i+depth-1`` whose conditional branch the direction predictor,
        in its state before resolving region ``i``, mispredicts — where a
        runahead started at region ``i`` leaves the correct path — or
        ``depth`` when there is none.  Built once per depth, over the trace
        these columns were built from.
        """
        stops = self._runahead_stops.get(depth)
        if stops is None:
            stops = _build_runahead_stops(packed, self._initial_direction(), depth)
            self._runahead_stops[depth] = stops
        return stops

    def settle(self, bpu: BranchPredictionUnit) -> None:
        """Leave ``bpu``'s predictors where a region-by-region walk would."""
        if self.end_state is None:
            return  # built over the live components: already there
        direction, ras, indirect = self.end_state
        bpu.direction.load_state(direction)
        bpu.ras.load_state(ras)
        bpu.indirect.load_state(indirect)


@hot_loop
def build_branch_columns(
    packed: PackedTrace,
    direction: DirectionPredictor,
    ras: ReturnAddressStack,
    indirect: IndirectTargetCache,
    initial_direction: Callable[[], DirectionPredictor],
) -> BranchColumns:
    """Walk ``packed`` once through the three predictors (see the module doc).

    The components are advanced in place: afterwards they hold the state a
    region-by-region simulation of the trace leaves them in.
    ``initial_direction`` makes a copy of ``direction`` as it was before
    the walk, for :meth:`BranchColumns.runahead_stops` to replay.
    """
    total = len(packed)
    predicted_takens = array("b", bytes(total))
    target_hits = array("b", [USE_BTB]) * total
    mispredictions = 0
    predict = direction.predict
    update = direction.update
    ras_peek = ras.peek
    ras_push = ras.push
    ras_pop = ras.pop
    indirect_predict = indirect.predict
    indirect_update = indirect.update
    branch_pcs = packed.branch_pcs
    kinds = packed.kinds
    takens = packed.takens
    next_pcs = packed.next_pcs
    instruction_size = INSTRUCTION_SIZE_BYTES
    conditional = _CONDITIONAL
    call = _CALL
    ret = _RETURN
    indirect_jump = _INDIRECT
    indirect_call = _INDIRECT_CALL

    for index in range(total):
        branch_pc = branch_pcs[index]
        if branch_pc == NO_VALUE:
            continue
        code = kinds[index]
        taken = takens[index] != 0

        # --- prediction (predict_region, minus the BTB lookup) -------------
        predicted_taken = predict(branch_pc) if code == conditional else True
        if predicted_taken:
            predicted_takens[index] = 1
            if code == ret:
                target_hits[index] = ras_peek() == next_pcs[index]
            elif code == indirect_jump or code == indirect_call:
                target_hits[index] = indirect_predict(branch_pc) == next_pcs[index]
        if predicted_taken != taken:
            mispredictions += 1

        # --- training (resolve_region, minus the BTB update) ---------------
        if code == conditional:
            update(branch_pc, taken)
        if code == call or code == indirect_call:
            ras_push(branch_pc + instruction_size)
        if code == ret:
            ras_pop()
        if code == indirect_jump or code == indirect_call:
            indirect_update(branch_pc, next_pcs[index])

    return BranchColumns(predicted_takens, target_hits, mispredictions, initial_direction)


@hot_loop
def _build_runahead_stops(
    packed: PackedTrace, direction: DirectionPredictor, depth: int
) -> "array[int]":
    """The :meth:`BranchColumns.runahead_stops` column, replaying ``direction``."""
    total = len(packed)
    stops = array("i", [depth]) * total
    predict = direction.predict
    update = direction.update
    branch_pcs = packed.branch_pcs
    kinds = packed.kinds
    takens = packed.takens
    conditional = _CONDITIONAL

    for index in range(total):
        for position in range(index, min(total, index + depth)):
            branch_pc = branch_pcs[position]
            if branch_pc == NO_VALUE or kinds[position] != conditional:
                continue
            if predict(branch_pc) != (takens[position] != 0):
                stops[index] = position - index
                break
        branch_pc = branch_pcs[index]
        if branch_pc != NO_VALUE and kinds[index] == conditional:
            update(branch_pc, takens[index] != 0)
    return stops


def trace_columns(packed: PackedTrace) -> BranchColumns:
    """The columns of fresh default predictors on ``packed``, memoized on it.

    The memo lives in the trace's ``_branch_columns`` slot: it dies with
    the trace and is never pickled.
    """
    columns = packed._branch_columns
    if columns is None:
        direction = HybridDirectionPredictor()
        ras = ReturnAddressStack()
        indirect = IndirectTargetCache()
        columns = build_branch_columns(
            packed, direction, ras, indirect, HybridDirectionPredictor
        )
        columns.end_state = (direction.state(), ras.state(), indirect.state())
        packed._branch_columns = columns
    return columns


def _fresh_defaults(bpu: BranchPredictionUnit) -> bool:
    """Plain BPU, default predictor classes and geometry, untouched state."""
    direction, ras, indirect = bpu.direction, bpu.ras, bpu.indirect
    return (
        type(bpu) is BranchPredictionUnit
        and type(direction) is HybridDirectionPredictor
        and type(ras) is ReturnAddressStack
        and type(indirect) is IndirectTargetCache
        and (direction.state(), ras.state(), indirect.state()) == _FRESH_STATE
    )


def columns_for(bpu: BranchPredictionUnit, packed: PackedTrace) -> BranchColumns:
    """The columns a run of ``packed`` on ``bpu`` reads (see the module doc).

    Call :meth:`BranchColumns.settle` on the result after the run.
    """
    if _fresh_defaults(bpu):
        return trace_columns(packed)
    initial = functools.partial(copy.deepcopy, copy.deepcopy(bpu.direction))
    return build_branch_columns(packed, bpu.direction, bpu.ras, bpu.indirect, initial)
