"""Confluence: unified instruction supply (Section 3).

Confluence ties three pieces together:

1. the SHIFT stream prefetcher, which runs ahead of the core's fetch stream
   and decides which instruction blocks to bring into the L1-I,
2. a hardware predecoder, which scans each arriving block for branches, and
3. AirBTB, which receives the predecoded branch entries of every block the
   L1-I receives and drops them when the block is evicted.

The result is a single set of control-flow metadata — SHIFT's block-grain
history, shared by all cores and virtualized in the LLC — that fills both the
L1-I and the BTB ahead of the fetch stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.caches.l1i import InstructionCache
from repro.caches.llc import SharedLLC
from repro.core.airbtb import AirBTB, AirBTBConfig
from repro.isa.predecode import PredecodedBlock, Predecoder
from repro.prefetch.shift import ShiftConfig, ShiftHistory, ShiftPrefetcher
from repro.registry import BTB_REGISTRY, BuildContext, check_count


@dataclass(frozen=True)
class ConfluenceConfig:
    """Configuration of a Confluence frontend instance.

    ``predecode_latency_cycles`` is the few cycles the predecoder's branch
    scan takes before a block enters the L1-I and AirBTB (Section 3.2; the
    paper cites existing predecoding hardware in Bulldozer and SPARC T4).
    Only a demand miss pays it: a block that arrives ahead of demand absorbs
    the scan off the critical path.
    """

    airbtb: AirBTBConfig = AirBTBConfig()
    shift: ShiftConfig = ShiftConfig()
    predecode_latency_cycles: int = 2

    def __post_init__(self) -> None:
        check_count("predecode_latency_cycles", self.predecode_latency_cycles, 0)


class Confluence:
    """Wires the L1-I, AirBTB, predecoder and SHIFT into one frontend.

    The instance registers itself as a fill listener on the L1-I: every block
    installed there (by SHIFT or on demand) is predecoded and mirrored into
    AirBTB; every eviction removes the corresponding bundle.  It keeps no
    reference to the L1-I, which calls it, so the two form no cycle.
    ``image`` is the program image the predecoder reads
    (:attr:`~repro.workloads.cfg.SyntheticProgram.image`).
    """

    def __init__(
        self,
        image: Dict[int, PredecodedBlock],
        l1i: InstructionCache,
        shared_history: Optional[ShiftHistory] = None,
        llc: Optional[SharedLLC] = None,
        config: Optional[ConfluenceConfig] = None,
        record_history: bool = True,
    ) -> None:
        self.config = config or ConfluenceConfig()
        self.predecoder = Predecoder(image)
        self.airbtb = AirBTB(config=self.config.airbtb, predecoder=self.predecoder)
        self.airbtb.synchronized = True
        self.history = shared_history or ShiftHistory(self.config.shift, llc=llc)
        self.prefetcher = ShiftPrefetcher(
            self.history, record_history=record_history, config=self.config.shift
        )
        self.demand_predecodes = 0
        self.prefetch_predecodes = 0
        l1i.add_listener(self)

    # ------------------------------------------------------------------ #
    # L1-I fill listener interface
    # ------------------------------------------------------------------ #

    def on_block_fill(self, block_addr: int, demand: bool) -> None:
        """Predecode an arriving block and insert its branches into AirBTB."""
        predecoded = self.predecoder.predecode(block_addr)
        if predecoded is None:
            return
        if demand:
            self.demand_predecodes += 1
        else:
            self.prefetch_predecodes += 1
        self.airbtb.on_block_fill(predecoded, demand=demand)

    def on_block_evict(self, block_addr: int) -> None:
        """Keep AirBTB's content identical to the L1-I's."""
        self.airbtb.on_block_evict(block_addr)

    # ------------------------------------------------------------------ #
    # Read by the frontend simulator's stall model
    # ------------------------------------------------------------------ #

    @property
    def demand_fill_penalty_cycles(self) -> int:
        """Extra cycles a demand miss pays for predecoding before insertion."""
        return self.config.predecode_latency_cycles


@BTB_REGISTRY.register("airbtb")
def _build_airbtb(ctx: BuildContext, **params: Any) -> AirBTB:
    """AirBTB comes wrapped in a full Confluence instance.

    ``params`` map onto :class:`~repro.core.airbtb.AirBTBConfig` fields, plus
    ``synchronized`` (content synchronization with the L1-I, default True —
    the Figure 8 ablation turns it off) and ``shift`` (a
    :class:`~repro.prefetch.shift.ShiftConfig` override).  The assembled
    :class:`Confluence` is deposited on ``ctx.confluence`` so the prefetcher
    factory and the simulator wiring can reuse it.
    """
    if ctx.program is None:
        raise ValueError("the 'airbtb' BTB needs a program image in the build context")
    synchronized = params.pop("synchronized", True)
    shift_config = params.pop("shift", None)
    config = ConfluenceConfig(
        airbtb=AirBTBConfig(**params),
        shift=shift_config if shift_config is not None else ShiftConfig(),
    )
    confluence = Confluence(
        image=ctx.program.image,
        l1i=ctx.l1i,
        shared_history=ctx.shared_history,
        llc=ctx.llc,
        config=config,
        record_history=ctx.record_history,
    )
    confluence.airbtb.synchronized = synchronized
    ctx.confluence = confluence
    return confluence.airbtb
