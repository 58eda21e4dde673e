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

#: Confluence variants that reach every AirBTB lookup branch: one-entry
#: bundles in a 16-bundle array (overflow hits; bundles are evicted while
#: the 32-entry overflow buffer still holds their spilled entries, so the
#: spilled-entry drop removes some: 157 on the tiny trace, 1,567 on the web
#: trace), no overflow buffer, and bundles left unsynchronized with the
#: L1-I (Figure 8's step before synchronization).
AIRBTB_VARIANTS = {
    "confluence_b1_bun16": {"branch_entries_per_bundle": 1, "bundles": 16},
    "confluence_ob0": {"overflow_entries": 0},
    "confluence_unsynced": {"synchronized": False},
}


def scalar_legs(*designs):
    """Parametrize ``design``; each id names the loop checked and the design."""
    return pytest.mark.parametrize(
        "design", designs, ids=[f"scalar-{design}" for design in designs]
    )


def _spec(design):
    if design in AIRBTB_VARIANTS:
        return resolve_design("confluence").derive(
            design, btb_params=AIRBTB_VARIANTS[design]
        )
    return resolve_design(design)


def _simulator(program, design):
    simulator, _ = design_from_spec(_spec(design), program)
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


def _two_bank_btb():
    """A conventional BTB with a second bank for odd 4 KB pages, written the
    way a user would: it overrides ``lookup``/``update`` only, so its
    ``lookup_into`` must follow its ``lookup``, not the parent's."""
    from repro.branch.btb_conventional import ConventionalBTB

    class TwoBankBTB(ConventionalBTB):
        def __init__(self):
            super().__init__(entries=512, ways=4, name="two_bank")
            self.odd_bank = ConventionalBTB(entries=512, ways=4, name="two_bank_odd")

        def lookup(self, branch_pc, taken=True):
            if (branch_pc >> 12) & 1:
                return self.odd_bank.lookup(branch_pc, taken)
            return super().lookup(branch_pc, taken)

        def update(self, branch_pc, kind, target, taken):
            if (branch_pc >> 12) & 1:
                self.odd_bank.update(branch_pc, kind, target, taken)
            else:
                super().update(branch_pc, kind, target, taken)

    return TwoBankBTB()


def _lookup_coverage(btb, trace, warmup_fraction):
    """``run_btb_coverage`` written record by record through ``lookup``."""
    boundary = int(len(trace) * warmup_fraction)
    taken_misses = instructions = 0
    for index, record in enumerate(trace.records):
        measured = index >= boundary
        if measured:
            instructions += record.instruction_count
        if record.branch_pc is None:
            continue
        result = btb.lookup(record.branch_pc, taken=record.taken)
        if measured and record.taken and not result.hit:
            taken_misses += 1
        btb.update(record.branch_pc, record.kind, record.target, record.taken)
    return taken_misses, instructions


@pytest.fixture(scope="module")
def second_tiny_trace(tiny_program):
    """The tiny profile under another seed (a core's next trace)."""
    from repro.workloads import generate_trace

    return generate_trace(tiny_program, 30_000, seed=4)


class TestBackendReferenceParity:
    """Two profiles x the design set: identical results field for field."""

    @scalar_legs(*PARITY_DESIGNS, *AIRBTB_VARIANTS)
    def test_oltp_parity(self, tiny_program, tiny_trace, design):
        fast, oracle = _run_vs_reference(tiny_program, tiny_trace, design)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    @scalar_legs("baseline", "confluence", *AIRBTB_VARIANTS)
    def test_web_parity(self, small_program, small_trace, design):
        fast, oracle = _run_vs_reference(small_program, small_trace, design)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    @scalar_legs("baseline", "fdp", "confluence", *AIRBTB_VARIANTS)
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
        self, tiny_program, tiny_trace, second_tiny_trace
    ):
        # FDP under L1-I pressure: a 2 KB, 2-way L1-I keeps evicting blocks
        # of FDP's window, so the runahead walks and prefetches thousands of
        # times.  Depths 6, 3 and 12 run in that order on copies of the
        # traces' first 6,000 regions, whose memos start empty (a stop
        # column reused across depths diverges), and each simulator runs
        # t1, t2, t1 against an oracle twin (a window kept across runs, or
        # one that misses an eviction, diverges), on three BTB families.
        from repro.branch.unit import BranchPredictionUnit
        from repro.caches.l1i import InstructionCache, L1IConfig
        from repro.caches.llc import SharedLLC
        from repro.prefetch.fdp import FetchDirectedPrefetcher
        from repro.registry import build_btb
        from repro.workloads.trace import Trace

        t1 = Trace.from_packed(tiny_trace.packed.slice(0, 6000))
        t2 = Trace.from_packed(second_tiny_trace.packed.slice(0, 6000))

        def runs(btb, depth, run):
            llc = SharedLLC()
            simulator = FrontendSimulator(
                bpu=BranchPredictionUnit(build_btb(btb, tiny_program, llc=llc)),
                l1i=InstructionCache(L1IConfig(size_bytes=2048, associativity=2)),
                llc=llc,
                prefetcher=FetchDirectedPrefetcher(depth),
                design_name=f"{btb}_fdp{depth}",
            )
            return [
                (
                    dataclasses.asdict(run(simulator, trace)),
                    simulator.prefetcher.issued_prefetches,
                )
                for trace in (t1, t2, t1)
            ]

        for depth in (6, 3, 12):
            for btb in ("conventional_1k", "two_level", "phantom"):
                fast = runs(btb, depth, FrontendSimulator.run)
                assert fast == runs(btb, depth, _oracle_run), (btb, depth)
                assert fast[0][1] > 1000, (btb, depth)

    def test_non_default_predictor_parity(self, tiny_trace):
        # A non-default predictor geometry cannot use the trace's memo: its
        # columns (FDP stop column included) are built over the live
        # components.
        fast = _hand_built_fdp().run(tiny_trace)
        oracle = _oracle_run(_hand_built_fdp(), tiny_trace)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    def test_btb_subclass_overriding_only_lookup_keeps_parity(self, tiny_program):
        from repro.branch.unit import BranchPredictionUnit
        from repro.workloads import generate_trace

        trace = generate_trace(tiny_program, 20_000, seed=3)

        def simulator():
            return FrontendSimulator(
                bpu=BranchPredictionUnit(_two_bank_btb()), design_name="two_bank"
            )

        fast = simulator().run(trace)
        oracle = _oracle_run(simulator(), trace)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    def test_lookup_only_btb_coverage_matches_a_lookup_loop(self, tiny_trace):
        # run_btb_coverage reads through lookup_into; a BTB that overrides
        # only lookup must still be walked through its own lookup.
        from repro.analysis.experiments import run_btb_coverage

        walked = _two_bank_btb()
        looped = _two_bank_btb()
        assert run_btb_coverage(walked, tiny_trace, 0.2) == _lookup_coverage(
            looped, tiny_trace, 0.2
        )
        for btb in (walked, looped):
            assert btb.stats.taken_misses > 0 and btb.odd_bank.stats.lookups > 0
        assert dataclasses.asdict(walked.stats) == dataclasses.asdict(looped.stats)
        assert dataclasses.asdict(walked.odd_bank.stats) == dataclasses.asdict(
            looped.odd_bank.stats
        )

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
    artifact; every registered design point must produce the bit-identical
    :class:`FrontendResult` it produces on the generated heap trace.
    """

    def _warm_store(self, tiny_program, tiny_trace, tmp_path):
        store = TraceStore(tmp_path)
        store.put(tiny_program.profile, 30_000, 3, tiny_trace)
        return store

    def test_store_serves_mmap_backed_columns(
        self, tiny_program, tiny_trace, tmp_path
    ):
        store = self._warm_store(tiny_program, tiny_trace, tmp_path)
        loaded = store.load(tiny_program.profile, 30_000, 3)
        assert loaded is not None and loaded.packed.mapped
        assert (store.hits, store.misses) == (1, 0)

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


class TestAllocationFreeKernel:
    """The scalar loop must not construct per-region Python objects.

    The scratch-slot API (``lookup_into``), the per-trace branch columns and
    the hoisted ``PrefetchContext`` are regression-pinned by counting
    constructor/entry-point calls: a design on the hot path must complete a
    whole run with zero ``predict`` calls (columns used instead),
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

        predictions = self._count_calls(monkeypatch, BranchPredictionUnit, "predict")
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

    def test_btb_coverage_uses_the_slot_lookup(self, tiny_trace, monkeypatch):
        from repro.analysis.experiments import run_btb_coverage
        from repro.branch.btb_conventional import ConventionalBTB

        lookups = self._count_calls(monkeypatch, ConventionalBTB, "lookup")
        btb = ConventionalBTB(entries=256, victim_entries=16)
        # Recorded before the walk read through lookup_into.
        assert run_btb_coverage(btb, tiny_trace) == (675, 44491)
        assert lookups["count"] == 0

    def test_slot_fallback_btb_still_bit_identical(self, tiny_program, tiny_trace):
        # Only PhantomBTB still keeps the generic lookup_into (which
        # delegates to lookup); the slot plumbing must not change its
        # results either.
        fast, oracle = _run_vs_reference(tiny_program, tiny_trace, "phantom_shift")
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle)

    def test_confluence_uses_the_slot_lookup(
        self, tiny_program, tiny_trace, monkeypatch
    ):
        from repro.core.airbtb import AirBTB

        lookups = self._count_calls(monkeypatch, AirBTB, "lookup")
        simulator = _simulator(tiny_program, "confluence")
        result = simulator.run(tiny_trace)
        assert result.fetch_regions > 0
        assert lookups["count"] == 0


@scalar_legs("confluence", "2level_shift")
def test_component_counters_match_the_oracle(tiny_program, tiny_trace, design):
    """Counters no result carries: predecoder, Confluence, AirBTB, SHIFT, LLC."""

    def counters(simulator):
        prefetcher = simulator.prefetcher
        history = prefetcher.history
        llc = simulator.llc
        values = {
            "history": (history.records, history.index_lookups, history.index_hits),
            "stream": (prefetcher.streams_started, prefetcher.stream_confirmations),
            "llc": (llc.metadata_reads, llc.metadata_writes),
        }
        confluence = simulator.confluence
        if confluence is not None:
            airbtb = confluence.airbtb
            predecoder = confluence.predecoder
            values["predecoder"] = (
                predecoder.blocks_scanned, predecoder.branches_extracted
            )
            values["fills"] = (
                confluence.demand_predecodes, confluence.prefetch_predecodes
            )
            values["airbtb"] = (
                airbtb.bundle_insertions,
                airbtb.bundle_evictions,
                airbtb.overflow_insertions,
                dataclasses.asdict(airbtb.stats),
            )
        return values

    fast = _simulator(tiny_program, design)
    fast.run(tiny_trace)
    oracle = _simulator(tiny_program, design)
    _oracle_run(oracle, tiny_trace)
    assert counters(fast) == counters(oracle)
    assert counters(fast)["history"][0] > 0
    if design == "confluence":
        assert counters(fast)["predecoder"][0] > 0


#: BTB counters after one run of each design on the tiny trace, recorded
#: before BTB updates reused resident entries.  The scalar loop and the
#: oracle share ``update``, so parity cannot see a counter it skips; these
#: pins can.  Each internal cache reads ``(CacheStats, occupancy)``.
def _btb_stats(taken_misses, not_taken_misses, insertions, second_level):
    """The tiny trace looks up 13,016 branches, 8,609 of them taken."""
    return dict(
        lookups=13016, taken_lookups=8609, taken_misses=taken_misses,
        not_taken_lookups=4407, not_taken_misses=not_taken_misses,
        insertions=insertions, second_level_accesses=second_level,
    )


def _cache(lookups, hits, misses, insertions, evictions, occupancy):
    return (
        dict(lookups=lookups, hits=hits, misses=misses, insertions=insertions,
             evictions=evictions),
        occupancy,
    )


RECORDED_BTB_COUNTERS = {
    "baseline": {
        "stats": _btb_stats(389, 1669, 8609, 0),
        "_main": _cache(13016, 10934, 2082, 413, 29, 384),
        "_victim": _cache(2082, 24, 2058, 29, 0, 5),
    },
    "2level_shift": {
        "stats": _btb_stats(389, 1669, 8609, 24),
        "_l1": _cache(13016, 10934, 2082, 413, 29, 384),
        "_l2": _cache(2082, 24, 2058, 389, 0, 389),
        "l1_misses_served_by_l2": 24,
    },
    "ideal": {
        "stats": _btb_stats(330, 134, 13016, 0),
    },
    "phantom_shift": {
        "stats": _btb_stats(406, 1684, 8609, 2090),
        "_l1": _cache(13016, 10921, 2095, 411, 27, 384),
        "_prefetch_buffer": _cache(2095, 5, 2090, 9, 0, 4),
        "group_fetches": 1023,
        "group_writes": 67,
        "prefetch_buffer_hits": 5,
    },
}


@scalar_legs(*RECORDED_BTB_COUNTERS)
def test_btb_counters_hold_their_recorded_values(tiny_program, tiny_trace, design):
    """BTB statistics, internal caches and level counters no result carries."""
    from repro.caches.sram import SetAssociativeCache

    simulator = _simulator(tiny_program, design)
    simulator.run(tiny_trace)
    btb = simulator.bpu.btb
    counters = {"stats": dataclasses.asdict(btb.stats)}
    for name, value in vars(btb).items():
        if isinstance(value, SetAssociativeCache):
            counters[name] = (dataclasses.asdict(value.stats), value.occupancy())
    for name in (
        "l1_misses_served_by_l2", "group_fetches", "group_writes", "prefetch_buffer_hits"
    ):
        if hasattr(btb, name):
            counters[name] = getattr(btb, name)
    assert counters == RECORDED_BTB_COUNTERS[design]


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


def test_stack_has_no_frontend_config_knob(tiny_program, tiny_trace):
    # One modelled core: only FrontendSimulator(config=) sets the timing, so
    # no layer above it takes a config.  run_sweep gets cores=0 too, so a
    # layer that still accepted the knob fails fast instead of running.
    from repro.analysis import frontend_comparison
    from repro.api import Session
    from repro.core.cmp import ChipMultiprocessor
    from repro.core.frontend import FrontendConfig
    from repro.sweep import cmp_driver, run_sweep

    config = FrontendConfig()
    calls = {
        "Session": lambda: Session(profile="oltp_db2", frontend_config=config),
        "run_sweep": lambda: run_sweep(
            ["oltp_db2"], ["baseline"], cores=0, frontend_config=config
        ),
        "ChipMultiprocessor": lambda: ChipMultiprocessor(
            tiny_program, cores=1, frontend_config=config
        ),
        "cmp_driver": lambda: cmp_driver(
            tiny_program.profile, 1, 1_000, frontend_config=config
        ),
        "design_from_spec": lambda: design_from_spec(
            "baseline", tiny_program, frontend_config=config
        ),
        "frontend_comparison": lambda: frontend_comparison(
            tiny_program, tiny_trace, ["baseline"], frontend_config=config
        ),
    }
    for layer, call in calls.items():
        with pytest.raises(TypeError, match="frontend_config"):
            call()
            pytest.fail(f"{layer} accepted frontend_config=")
