"""Declarative design specs and the named design-point catalog.

A :class:`DesignSpec` names the BTB and prefetcher components of a frontend
(by their registry names) and carries parameter overrides for each, so a
design point is pure data: sweeps over BTB entries, bundle sizes or cache
geometry are lists of specs, not bespoke factory code.  Construction resolves
through :data:`repro.registry.BTB_REGISTRY` and
:data:`repro.registry.PREFETCHER_REGISTRY`, so user code can register custom
components and design points without touching this module.

The catalog ships the paper's evaluated design points
(Sections 2.3, 4.2 and 5):

==================  =====================================  ==================
name                BTB                                    instruction supply
==================  =====================================  ==================
``baseline``        1K-entry conventional + victim buffer  none
``fdp``             1K-entry conventional + victim buffer  FDP
``phantom_fdp``     PhantomBTB                             FDP
``2level_fdp``      two-level (1K + 16K)                   FDP
``phantom_shift``   PhantomBTB                             SHIFT
``2level_shift``    two-level (1K + 16K)                   SHIFT
``idealbtb_shift``  16K-entry, single cycle                SHIFT
``confluence``      AirBTB, synchronized with the L1-I     SHIFT (Confluence)
``ideal``           perfect BTB                            perfect L1-I
==================  =====================================  ==================

Extending the catalog takes one call::

    from repro import DesignSpec, register_design_point

    register_design_point(DesignSpec(
        name="fat_baseline", label="4K BTB", btb="conventional",
        prefetcher="none", btb_params={"entries": 4096, "victim_entries": 64},
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.branch.btb_conventional import conventional_storage_kb
from repro.branch.unit import BranchPredictionUnit
from repro.caches.l1i import InstructionCache
from repro.caches.llc import SharedLLC
from repro.core.area import FrontendAreaReport, area_report
from repro.core.frontend import FrontendSimulator
from repro.prefetch.shift import ShiftHistory
from repro.registry import (
    BTB_REGISTRY,
    PREFETCHER_REGISTRY,
    BuildContext,
    load_builtin_components,
    unknown_name_error,
)
from repro.workloads.cfg import SyntheticProgram

# Importing the built-in component modules populates the registries before
# the catalog below names them.
load_builtin_components()


@dataclass(frozen=True)
class DesignSpec:
    """Declarative description of one frontend design point.

    Attributes:
        name: catalog key and the ``design_name`` reported by simulators.
        label: human-readable label used in tables and figures.
        btb: BTB component name in :data:`~repro.registry.BTB_REGISTRY`.
        prefetcher: prefetcher component name in
            :data:`~repro.registry.PREFETCHER_REGISTRY`.
        btb_params: parameter overrides passed to the BTB factory.
        prefetcher_params: parameter overrides for the prefetcher factory.
        uses_shift: whether the design pays SHIFT's per-core area share.
        perfect_l1i: model a perfect instruction cache.
        btb_storage_kb: explicit storage for area accounting.  ``None`` means
            "ask the built BTB"; idealised designs (infinite storage) set it
            to the storage they should be *priced* at — e.g. ``ideal`` carries
            the baseline BTB's storage so relative-area plots stay anchored.
    """

    name: str
    label: str
    btb: str
    prefetcher: str
    uses_shift: bool = False
    perfect_l1i: bool = False
    btb_params: Mapping[str, object] = field(default_factory=dict)
    prefetcher_params: Mapping[str, object] = field(default_factory=dict)
    btb_storage_kb: Optional[float] = None

    def derive(
        self, name: str, label: Optional[str] = None, **overrides: Any
    ) -> "DesignSpec":
        """A renamed copy with parameter overrides merged in.

        ``btb_params``/``prefetcher_params`` given here are merged over the
        existing mappings; other keyword arguments replace spec fields.
        """
        merged = dict(overrides)
        if "btb_params" in merged:
            merged["btb_params"] = {**self.btb_params, **merged["btb_params"]}
        if "prefetcher_params" in merged:
            merged["prefetcher_params"] = {
                **self.prefetcher_params,
                **merged["prefetcher_params"],
            }
        return replace(self, name=name, label=label if label is not None else name, **merged)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-serializable for reports and configs)."""
        return {
            "name": self.name,
            "label": self.label,
            "btb": self.btb,
            "prefetcher": self.prefetcher,
            "btb_params": dict(self.btb_params),
            "prefetcher_params": dict(self.prefetcher_params),
            "uses_shift": self.uses_shift,
            "perfect_l1i": self.perfect_l1i,
            "btb_storage_kb": self.btb_storage_kb,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DesignSpec":
        return cls(**data)


def _paper_design_points() -> Tuple[DesignSpec, ...]:
    baseline_params: Dict[str, object] = {"entries": 1024, "victim_entries": 64}
    return (
        DesignSpec(
            "baseline", "1K BTB (baseline)", "conventional", "none",
            btb_params=baseline_params,
        ),
        DesignSpec(
            "fdp", "FDP", "conventional", "fdp", btb_params=baseline_params
        ),
        DesignSpec("phantom_fdp", "PhantomBTB+FDP", "phantom", "fdp"),
        DesignSpec("2level_fdp", "2LevelBTB+FDP", "two_level", "fdp"),
        DesignSpec(
            "phantom_shift", "PhantomBTB+SHIFT", "phantom", "shift", uses_shift=True
        ),
        DesignSpec(
            "2level_shift", "2LevelBTB+SHIFT", "two_level", "shift", uses_shift=True
        ),
        DesignSpec(
            "idealbtb_shift", "IdealBTB+SHIFT", "ideal_16k", "shift", uses_shift=True
        ),
        DesignSpec("confluence", "Confluence", "airbtb", "shift", uses_shift=True),
        DesignSpec(
            "ideal", "Ideal", "perfect", "perfect", perfect_l1i=True,
            # Priced at the baseline BTB's storage (the paper's convention for
            # the ideal core) straight from the area model — no shadow BTB.
            btb_storage_kb=conventional_storage_kb(1024, ways=4, victim_entries=64),
        ),
    )


#: Mutable catalog of named design points.  Extend via
#: :func:`register_design_point` rather than writing to it directly.
DESIGN_POINTS: Dict[str, DesignSpec] = {
    spec.name: spec for spec in _paper_design_points()
}


def register_design_point(spec: DesignSpec, overwrite: bool = False) -> DesignSpec:
    """Add ``spec`` to the catalog under ``spec.name``."""
    if not overwrite and spec.name in DESIGN_POINTS:
        raise ValueError(
            f"design point {spec.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    DESIGN_POINTS[spec.name] = spec
    return spec


def resolve_design(design: Union[str, DesignSpec]) -> DesignSpec:
    """The single catalog lookup (shared by the CMP driver and Session)."""
    if isinstance(design, DesignSpec):
        return design
    try:
        return DESIGN_POINTS[design]
    except KeyError:
        raise unknown_name_error("design point", design, DESIGN_POINTS) from None


def design_from_spec(
    design: Union[str, DesignSpec],
    program: SyntheticProgram,
    llc: Optional[SharedLLC] = None,
    shared_history: Optional[ShiftHistory] = None,
    record_history: bool = True,
) -> Tuple[FrontendSimulator, FrontendAreaReport]:
    """Instantiate a catalog name or an ad-hoc spec for one core.

    The one construction path: the CMP driver, the sweep and the figure
    harnesses all build through the component registries here.  ``llc``
    and ``shared_history`` may be shared across cores (the CMP driver does
    this); when omitted, private instances are created, which models a
    single core of the CMP with its share of the LLC.
    """
    spec = resolve_design(design)
    context = BuildContext(
        program=program,
        llc=llc if llc is not None else SharedLLC(),
        l1i=InstructionCache(),
        shared_history=shared_history,
        record_history=record_history,
    )
    btb = BTB_REGISTRY.get(spec.btb)(context, **dict(spec.btb_params))
    prefetcher = PREFETCHER_REGISTRY.get(spec.prefetcher)(
        context, **dict(spec.prefetcher_params)
    )

    simulator = FrontendSimulator(
        bpu=BranchPredictionUnit(btb=btb),
        l1i=context.l1i,
        llc=context.llc,
        prefetcher=prefetcher,
        confluence=context.confluence,
        perfect_l1i=spec.perfect_l1i,
        design_name=spec.name,
    )

    btb_kb = spec.btb_storage_kb
    if btb_kb is None:
        btb_kb = getattr(btb, "storage_kb", 0.0)
    if btb_kb == float("inf"):
        btb_kb = 0.0
    area = area_report(
        design=spec.name,
        btb_storage_kb=btb_kb,
        shift_shared=spec.uses_shift,
    )
    return simulator, area
