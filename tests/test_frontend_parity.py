"""The acceptance pin: the ``scalar`` loop == the ``reference`` oracle.

``FrontendSimulator.run`` always runs the zero-allocation columnar
``scalar`` loop; the record-at-a-time ``reference`` loop
(:class:`~repro.backends.reference.ReferenceBackend`) is the oracle, called
directly here on a twin simulator.  The two must produce a bit-identical
:class:`FrontendResult` on multiple profiles x multiple design points
(covering the SHIFT/Confluence prefetch machinery, FDP's columnar runahead
and the bare baseline).  The fast loop is an optimization, never a model
change.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends.reference import ReferenceBackend
from repro.core.designs import design_from_spec, resolve_design
from repro.core.frontend import FrontendSimulator
from repro.sweep import TraceStore

#: Designs chosen to exercise disjoint machinery: baseline (BTB+L1-I only),
#: confluence (AirBTB + SHIFT-fed stream engine + predecode penalty), fdp
#: (record/columnar runahead), 2level_shift (BTB bubbles + shared history).
PARITY_DESIGNS = ("baseline", "confluence", "fdp", "2level_shift")


def scalar_legs(*designs):
    """Parametrize ``design``; each id names the loop checked and the design."""
    return pytest.mark.parametrize(
        "design", designs, ids=[f"scalar-{design}" for design in designs]
    )


def _simulator(program, design):
    simulator, _ = design_from_spec(resolve_design(design), program)
    return simulator


def _oracle_run(simulator, trace, warmup_fraction=None):
    """``simulator.run`` on the ``reference`` oracle loop instead of ``scalar``."""
    if warmup_fraction is None:
        warmup_fraction = simulator.config.warmup_fraction
    return ReferenceBackend().run(simulator, trace, warmup_fraction)


def _run_vs_reference(program, trace, design):
    return (
        _simulator(program, design).run(trace),
        _oracle_run(_simulator(program, design), trace),
    )


def _run_sequence(program, traces, design, run):
    """One simulator runs ``traces`` in order; its predictors stay warm."""
    simulator = _simulator(program, design)
    return [dataclasses.asdict(run(simulator, trace)) for trace in traces]


def _hand_built_fdp():
    """An FDP core whose direction predictor is not the default geometry."""
    from repro.branch.btb_conventional import ConventionalBTB
    from repro.branch.direction import HybridDirectionPredictor
    from repro.branch.unit import BranchPredictionUnit
    from repro.prefetch.fdp import FetchDirectedPrefetcher

    bpu = BranchPredictionUnit(
        ConventionalBTB(),
        direction=HybridDirectionPredictor(entries=4096, history_bits=8),
    )
    return FrontendSimulator(
        bpu=bpu, prefetcher=FetchDirectedPrefetcher(), design_name="hand_fdp"
    )


@pytest.fixture(scope="module")
def second_tiny_trace(tiny_program):
    """The tiny profile under another seed (a core's next trace)."""
    from repro.workloads import generate_trace

    return generate_trace(tiny_program, 30_000, seed=4)


class TestBackendReferenceParity:
    """Two profiles x the design set: identical results field for field."""

    @scalar_legs(*PARITY_DESIGNS)
    def test_oltp_parity(self, tiny_program, tiny_trace, design):
        fast, oracle = _run_vs_reference(tiny_program, tiny_trace, design)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    @scalar_legs("baseline", "confluence")
    def test_web_parity(self, small_program, small_trace, design):
        fast, oracle = _run_vs_reference(small_program, small_trace, design)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    @scalar_legs("baseline", "fdp", "confluence")
    def test_warm_reuse_parity(
        self, tiny_program, tiny_trace, second_tiny_trace, design
    ):
        # Predictors and caches stay warm across run() calls: the second and
        # third runs must start where the oracle's do, so a loop that served
        # per-trace predictions without leaving the live predictors at their
        # end state diverges here.
        traces = (tiny_trace, second_tiny_trace, tiny_trace)
        assert _run_sequence(tiny_program, traces, design, FrontendSimulator.run) == (
            _run_sequence(tiny_program, traces, design, _oracle_run)
        )

    def test_each_fdp_queue_depth_gets_its_own_stop_column(
        self, tiny_program, tiny_trace
    ):
        # The stop column is per queue depth: after the default fdp, a
        # shallower and then a deeper queue on the same trace (a copy whose
        # memo starts empty) must each match the oracle.  The tiny trace
        # barely misses in the L1-I, so the runahead's own stop counters are
        # what would show a wrong column.
        from repro.workloads.trace import Trace

        trace = Trace.from_packed(tiny_trace.packed.slice(0))

        def runahead(design, run):
            simulator, _ = design_from_spec(design, tiny_program)
            result = run(simulator, trace)
            fdp = simulator.prefetcher
            return dataclasses.asdict(result), (
                fdp.runahead_stops_on_misprediction,
                fdp.runahead_stops_on_btb_miss,
                fdp.issued_prefetches,
            )

        fdp = resolve_design("fdp")
        for design in (
            fdp,
            fdp.derive("fdp_q3", prefetcher_params={"queue_depth_basic_blocks": 3}),
            fdp.derive("fdp_q12", prefetcher_params={"queue_depth_basic_blocks": 12}),
        ):
            assert runahead(design, FrontendSimulator.run) == runahead(
                design, _oracle_run
            ), design.name

    def test_non_default_predictor_parity(self, tiny_trace):
        # A non-default predictor geometry cannot use the trace's memo: its
        # columns (FDP stop column included) are built over the live
        # components.
        fast = _hand_built_fdp().run(tiny_trace)
        oracle = _oracle_run(_hand_built_fdp(), tiny_trace)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    # One design per BTB family: conventional, two-level, PhantomBTB, AirBTB.
    @scalar_legs("baseline", "2level_shift", "phantom_shift", "confluence")
    def test_parity_with_kindless_branch_records(self, tiny_program, design):
        # A record may carry a branch_pc but no kind (the FetchRecord
        # contract allows it); the packed path must decode the -1 kind
        # sentinel to None, not wrap it around the kind table into RETURN,
        # and a not-taken kindless branch trains every BTB like a
        # conditional one (no entry) instead of crashing it.
        from repro.workloads.trace import FetchRecord, Trace

        base = 0x4000_0000
        records = []
        for _repeat in range(40):
            records.append(FetchRecord(
                start=base, instruction_count=4, branch_pc=base + 12,
                kind=None, taken=True, target=base + 0x400, next_pc=base + 0x400,
            ))
            records.append(FetchRecord(
                start=base + 0x400, instruction_count=4, branch_pc=base + 0x40C,
                kind=None, taken=False, target=base + 0x800, next_pc=base + 0x410,
            ))
            records.append(FetchRecord(
                start=base + 0x410, instruction_count=4, branch_pc=None,
                kind=None, taken=False, target=None, next_pc=base,
            ))
        trace = Trace(records, name="kindless")
        fast, oracle = _run_vs_reference(tiny_program, trace, design)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    @scalar_legs("confluence")
    def test_parity_survives_the_trace_store_round_trip(
        self, tiny_program, tiny_trace, tmp_path, design
    ):
        # A store-loaded trace must drive the simulator to the exact result
        # the generated trace does (the store is a cache, not a model knob).
        store = TraceStore(tmp_path)
        profile = tiny_program.profile
        store.put(profile, 30_000, 3, tiny_trace)
        loaded = store.load(profile, 30_000, 3, name=tiny_trace.name)
        assert loaded is not None
        direct = _simulator(tiny_program, design).run(tiny_trace)
        via_store = _simulator(tiny_program, design).run(loaded)
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_store)


class TestMmapHeapParity:
    """Zero-copy acceptance pin: mmap-backed columns are not a model knob.

    A warm :class:`TraceStore` serves memoryviews over an mmap of the
    artifact by default; every registered design point must produce the
    bit-identical :class:`FrontendResult` it produces on the generated heap
    trace — including artifacts written by the chunked streaming path,
    which the mapper cannot serve zero-copy and must fall back to heap for.
    """

    def _warm_store(self, tiny_program, tiny_trace, tmp_path, mmap=True):
        store = TraceStore(tmp_path, mmap=mmap)
        store.put(tiny_program.profile, 30_000, 3, tiny_trace)
        return store

    def test_store_serves_mmap_backed_columns(
        self, tiny_program, tiny_trace, tmp_path
    ):
        store = self._warm_store(tiny_program, tiny_trace, tmp_path)
        loaded = store.load(tiny_program.profile, 30_000, 3)
        assert loaded is not None and loaded.packed.mapped
        assert store.mapped == 1
        heap_store = TraceStore(tmp_path, mmap=False)
        heap = heap_store.load(tiny_program.profile, 30_000, 3)
        assert heap is not None and not heap.packed.mapped
        assert heap_store.mapped == 0

    def test_mmap_parity_across_the_whole_catalog(
        self, tiny_program, tiny_trace, tmp_path
    ):
        from repro.core.designs import DESIGN_POINTS

        store = self._warm_store(tiny_program, tiny_trace, tmp_path)
        mapped = store.load(tiny_program.profile, 30_000, 3, name=tiny_trace.name)
        assert mapped is not None and mapped.packed.mapped
        for design in DESIGN_POINTS:
            spec = resolve_design(design)
            heap_sim, _ = design_from_spec(spec, tiny_program)
            mapped_sim, _ = design_from_spec(spec, tiny_program)
            heap_result = heap_sim.run(tiny_trace)
            mapped_result = mapped_sim.run(mapped)
            assert dataclasses.asdict(heap_result) == dataclasses.asdict(
                mapped_result
            ), design

    @scalar_legs("confluence")
    def test_mmap_parity_after_chunked_streaming_round_trip(
        self, tiny_program, tiny_trace, tmp_path, design
    ):
        # save_chunks with a small chunk size writes a multi-chunk artifact;
        # the mapper cannot serve it zero-copy and must fall back to the
        # copying reader — with, again, bit-identical results.
        from repro.workloads.packed import load_packed, save_chunks
        from repro.workloads.trace import Trace

        path = tmp_path / "streamed.trace"
        save_chunks(
            path, tiny_trace.name, tiny_trace.packed._chunks(chunk_regions=512)
        )
        reloaded = load_packed(path, mmap=True)
        assert not reloaded.mapped  # multi-chunk: heap fallback
        direct = _simulator(tiny_program, design).run(tiny_trace)
        via_stream = _simulator(tiny_program, design).run(Trace.from_packed(reloaded))
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_stream)


class TestAllocationFreeKernel:
    """The scalar loop must not construct per-region Python objects.

    The scratch-slot API (``lookup_into``), the per-trace branch columns and
    the hoisted ``PrefetchContext`` are regression-pinned by counting
    constructor/entry-point calls: a design on the hot path must complete a
    whole run with zero ``predict_region`` calls (columns used instead),
    zero ``lookup`` calls on slot-capable BTBs, and at most one
    ``PrefetchContext`` ever built (zero when the design has no prefetcher).
    The ``reference`` oracle allocates freely on purpose.
    """

    @staticmethod
    def _count_calls(monkeypatch, cls, method):
        calls = {"count": 0}
        original = getattr(cls, method)

        def wrapper(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)
        return calls

    def test_baseline_allocates_no_prediction_objects(
        self, tiny_program, tiny_trace, monkeypatch
    ):
        from repro.branch.btb_conventional import ConventionalBTB
        from repro.branch.unit import BranchPredictionUnit, PredictionSlot
        from repro.prefetch.base import PrefetchContext

        predictions = self._count_calls(
            monkeypatch, BranchPredictionUnit, "predict_region"
        )
        lookups = self._count_calls(monkeypatch, ConventionalBTB, "lookup")
        contexts = self._count_calls(monkeypatch, PrefetchContext, "__init__")
        slots = self._count_calls(monkeypatch, PredictionSlot, "__init__")

        simulator, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        result = simulator.run(tiny_trace)
        assert result.fetch_regions > 0
        assert predictions["count"] == 0  # branch columns replaced it
        assert lookups["count"] == 0  # lookup_into replaced lookup
        assert contexts["count"] == 0  # no prefetcher: no context at all
        assert slots["count"] == 1  # one reusable scratch for the whole run

    def test_two_level_btb_uses_the_slot_lookup(
        self, tiny_program, tiny_trace, monkeypatch
    ):
        from repro.branch.btb_two_level import TwoLevelBTB

        lookups = self._count_calls(monkeypatch, TwoLevelBTB, "lookup")
        simulator, _ = design_from_spec(
            resolve_design("2level_shift"), tiny_program
        )
        result = simulator.run(tiny_trace)
        assert result.fetch_regions > 0
        assert lookups["count"] == 0

    def test_prefetching_design_reuses_one_context(
        self, tiny_program, tiny_trace, monkeypatch
    ):
        from repro.prefetch.base import PrefetchContext

        contexts = self._count_calls(monkeypatch, PrefetchContext, "__init__")
        simulator, _ = design_from_spec(resolve_design("confluence"), tiny_program)
        result = simulator.run(tiny_trace)
        assert result.fetch_regions > 0
        assert contexts["count"] == 1  # hoisted out of the region loop

    def test_slot_fallback_btb_still_bit_identical(self, tiny_program, tiny_trace):
        # PhantomBTB/AirBTB keep the generic lookup_into (which delegates to
        # lookup); the slot plumbing must not change their results either.
        for design in ("phantom_shift", "confluence"):
            fast, oracle = _run_vs_reference(tiny_program, tiny_trace, design)
            assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)


class TestBranchColumnMemo:
    """Fresh default predictors share one per-trace column build."""

    def test_two_designs_build_the_columns_once(
        self, tiny_program, tiny_trace, monkeypatch
    ):
        from repro.branch import columns
        from repro.workloads.trace import Trace

        builds = TestAllocationFreeKernel._count_calls(
            monkeypatch, columns, "build_branch_columns"
        )
        trace = Trace.from_packed(tiny_trace.packed.slice(0))  # no memo yet
        for design in ("baseline", "confluence"):
            simulator, _ = design_from_spec(resolve_design(design), tiny_program)
            simulator.run(trace)
        assert builds["count"] == 1
        assert trace.packed._branch_columns is not None

    def test_pickled_trace_carries_no_memo(self, tiny_program, tiny_trace):
        import pickle

        simulator, _ = design_from_spec(resolve_design("baseline"), tiny_program)
        simulator.run(tiny_trace)
        assert tiny_trace.packed._branch_columns is not None
        restored = pickle.loads(pickle.dumps(tiny_trace.packed))
        assert restored._branch_columns is None


class TestDirectionMispredictionPredicate:
    """Counter and stall charge share one predicate (the satellite bugfix).

    A region without a terminating branch can never report a direction
    misprediction — whatever its ``taken`` column says — because there is
    no branch to mispredict; both loops must agree, counter and cycle
    charge alike.
    """

    def _branchless_taken_trace(self):
        from repro.workloads.trace import FetchRecord, Trace

        base = 0x4000_0000
        records = []
        for _ in range(50):
            # A branchless region whose raw taken flag is set (permitted by
            # the FetchRecord contract, e.g. a trace cut mid-branch).
            records.append(FetchRecord(
                start=base, instruction_count=4, branch_pc=None,
                kind=None, taken=True, target=None, next_pc=base + 0x400,
            ))
            records.append(FetchRecord(
                start=base + 0x400, instruction_count=4, branch_pc=base + 0x40C,
                kind=None, taken=True, target=base, next_pc=base,
            ))
        return Trace(records, name="branchless_taken")

    def test_branchless_region_reports_no_direction_misprediction(self, tiny_program):
        trace = self._branchless_taken_trace()
        for run in (FrontendSimulator.run, _oracle_run):
            result = run(_simulator(tiny_program, "baseline"), trace, 0.0)
            # Half the regions are branchless-with-taken; none may be counted.
            assert result.fetch_regions == 100
            assert result.direction_mispredictions == 0
            assert result.direction_stall_cycles == 0

    def test_counter_equals_charge_on_generated_traces(
        self, tiny_program, tiny_trace
    ):
        config_penalty = 12  # FrontendConfig default
        for design in PARITY_DESIGNS:
            simulator, _ = design_from_spec(resolve_design(design), tiny_program)
            result = simulator.run(tiny_trace)
            assert result.direction_stall_cycles == (
                result.direction_mispredictions * config_penalty
            ), design


class TestSpeedupOverPolicy:
    """Zero-IPC operands fail loudly instead of reading as 0x."""

    def test_frontend_zero_ipc_raises(self, tiny_program, tiny_trace):
        from repro.core.frontend import FrontendResult

        spec = resolve_design("baseline")
        simulator, _ = design_from_spec(spec, tiny_program)
        result = simulator.run(tiny_trace)
        empty = FrontendResult(design="empty", workload="none")
        with pytest.raises(ValueError, match="zero IPC"):
            result.speedup_over(empty)
        with pytest.raises(ValueError, match="zero IPC"):
            empty.speedup_over(result)
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_cmp_zero_ipc_raises(self):
        from repro.core.cmp import CMPResult

        empty = CMPResult(design="empty", workload="none")
        with pytest.raises(ValueError, match="zero IPC"):
            empty.speedup_over(empty)


def test_stack_has_no_backend_knob(tiny_program, tiny_trace):
    # One loop: no layer takes a loop selector.  run_sweep gets cores=0 too,
    # so a layer that still accepted the knob fails fast instead of running.
    from repro.api import Session
    from repro.core.cmp import ChipMultiprocessor
    from repro.sweep import run_sweep

    simulator = _simulator(tiny_program, "baseline")
    chip = ChipMultiprocessor(tiny_program, cores=1, instructions_per_core=1_000)
    calls = {
        "FrontendSimulator": lambda: FrontendSimulator(simulator.bpu, backend="scalar"),
        "FrontendSimulator.run": lambda: simulator.run(tiny_trace, backend="scalar"),
        "ChipMultiprocessor": lambda: ChipMultiprocessor(
            tiny_program, cores=1, backend="scalar"
        ),
        "run_design": lambda: chip.run_design("baseline", backend="scalar"),
        "run_sweep": lambda: run_sweep(
            ["oltp_db2"], ["baseline"], cores=0, backend="scalar"
        ),
        "Session": lambda: Session(profile="oltp_db2", backend="scalar"),
    }
    for layer, call in calls.items():
        with pytest.raises(TypeError, match="backend"):
            call()
            pytest.fail(f"{layer} accepted backend=")
