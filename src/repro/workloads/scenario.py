"""Consolidation scenarios: heterogeneous multi-program workload mixes.

The paper's deployment model is a *consolidated* scale-out server: many
co-located server workloads sharing one chip — OLTP next to decision
support next to media streaming — yet a homogeneous CMP run replays one
profile on every core.  A :class:`Scenario` closes that gap: it names a
per-core workload assignment as pure data (a profile mix with relative
weights, optional per-entry instruction budgets), and binding it to a core
count deals the cores out deterministically.

Two layers, mirroring ``DesignSpec`` / design instantiation:

* :class:`Scenario` is the declarative spec — profile *names* plus weights,
  reusable at any core count or scale.  The :data:`SCENARIOS` catalog and
  :func:`register_scenario` mirror ``DESIGN_POINTS`` /
  ``register_design_point``.
* :class:`BoundScenario` is the resolved form — one :class:`CoreWorkload`
  (profile, trace seed, instruction budget) per core — produced by
  :meth:`Scenario.bind`.  It is frozen, hashable and JSON-flattenable, so it
  can key sweep-cell caches and CMP-driver memos directly: the bound
  assignment *is* the scenario's full parameter closure.

Trace seeds are **per-profile**, not per-core: the k-th core running a
profile gets seed ``trace_seed_base + k`` regardless of which slot the mix
dealt it.  Two consequences fall out:

* a single-entry scenario assigns exactly the seeds the homogeneous
  ``ChipMultiprocessor`` uses, so the degenerate case reproduces a
  homogeneous run bit for bit, and
* scenarios that share a (profile, seed, length) — with each other, or with
  plain homogeneous sweeps — share the same trace-store artifacts, so a
  mixed sweep over a warm store performs zero trace generations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.registry import unknown_name_error
from repro.workloads.profiles import WorkloadProfile, get_profile

__all__ = [
    "SCENARIOS",
    "BoundScenario",
    "CoreWorkload",
    "Scenario",
    "ScenarioEntry",
    "get_scenario",
    "register_scenario",
    "resolve_scenario",
    "scenario_from_profile",
]


@dataclass(frozen=True)
class ScenarioEntry:
    """One workload of a mix: a profile plus its share of the chip.

    Attributes:
        profile: profile name (``"oltp_db2"``) or an ad-hoc
            :class:`~repro.workloads.profiles.WorkloadProfile` instance.
        weight: relative share of the cores (dealt by largest remainder).
        instructions: per-core trace length for this entry's cores; ``None``
            defers to the bind-time default, then to the (scaled) profile's
            own recommendation.
    """

    profile: Union[str, WorkloadProfile]
    weight: int = 1
    instructions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("scenario entry weights must be positive")
        if self.instructions is not None and self.instructions <= 0:
            raise ValueError("scenario entry instruction budgets must be positive")

    @property
    def profile_name(self) -> str:
        if isinstance(self.profile, WorkloadProfile):
            return self.profile.name
        return self.profile


@dataclass(frozen=True)
class CoreWorkload:
    """The fully resolved workload of one core: the trace's closure."""

    profile: WorkloadProfile
    seed: int
    instructions: int


@dataclass(frozen=True)
class BoundScenario:
    """A scenario resolved against a core count: one workload per core.

    The assignment tuple is the scenario's full parameter closure — every
    per-core trace is a pure function of its :class:`CoreWorkload` — which is
    what lets sweep cells key their result cache on it directly.
    """

    name: str
    assignments: Tuple[CoreWorkload, ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a bound scenario needs at least one core")

    def __len__(self) -> int:
        return len(self.assignments)

    def __iter__(self) -> Iterator[CoreWorkload]:
        return iter(self.assignments)

    @property
    def cores(self) -> int:
        return len(self.assignments)

    @property
    def instructions_per_core(self) -> int:
        """The widest core's budget (reporting aid; budgets may differ)."""
        return max(workload.instructions for workload in self.assignments)

    @property
    def profiles(self) -> Tuple[WorkloadProfile, ...]:
        """Distinct per-core profiles, in first-appearance order."""
        seen: Dict[WorkloadProfile, None] = {}
        for workload in self.assignments:
            seen.setdefault(workload.profile)
        return tuple(seen)

    def core_counts(self) -> Dict[str, int]:
        """``{profile name: cores assigned}`` (presentation helper)."""
        counts: Dict[str, int] = {}
        for workload in self.assignments:
            counts[workload.profile.name] = counts.get(workload.profile.name, 0) + 1
        return counts


def _deal_cores(weights: Sequence[int], cores: int) -> List[int]:
    """Largest-remainder apportionment of ``cores`` over ``weights``.

    Integer arithmetic throughout, ties broken by entry order, so the deal
    is deterministic on every platform.
    """
    total = sum(weights)
    counts = [weight * cores // total for weight in weights]
    remainders = [weight * cores % total for weight in weights]
    leftover = cores - sum(counts)
    for index in sorted(range(len(weights)), key=lambda i: (-remainders[i], i))[:leftover]:
        counts[index] += 1
    return counts


@dataclass(frozen=True)
class Scenario:
    """Named heterogeneous workload mix for a consolidated CMP.

    Attributes:
        name: catalog key and the workload name CMP results report.
        description: what the consolidation models.
        entries: the profile mix; cores are dealt to entries in order,
            proportionally to their weights (largest remainder).
    """

    name: str
    description: str
    entries: Tuple[ScenarioEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a scenario needs at least one entry")

    @property
    def profile_names(self) -> Tuple[str, ...]:
        return tuple(entry.profile_name for entry in self.entries)

    def bind(
        self,
        cores: int = 16,
        scale: float = 1.0,
        instructions_per_core: Optional[int] = None,
        trace_seed_base: int = 100,
    ) -> BoundScenario:
        """Resolve the mix against a chip: one :class:`CoreWorkload` per core.

        ``scale`` shrinks every profile (exactly as homogeneous sweeps do);
        ``instructions_per_core`` is the budget for entries that do not carry
        their own, falling back to each scaled profile's recommendation.
        Entries get contiguous core ranges in declaration order; the k-th
        core of a *profile* gets seed ``trace_seed_base + k``, so the
        degenerate single-profile scenario reproduces the homogeneous seed
        assignment and overlapping mixes share trace-store artifacts.

        Every entry must receive at least one core: a "consolidation" that
        silently dropped a workload would run (and cache, and report) under
        a name promising a mix it does not contain, so too few cores raise.
        """
        if cores <= 0:
            raise ValueError("a scenario binds to at least one core")
        if instructions_per_core is not None and instructions_per_core <= 0:
            raise ValueError("a scenario's instruction budget must be positive when given")
        resolved: List[Tuple[WorkloadProfile, ScenarioEntry]] = []
        for entry in self.entries:
            profile = entry.profile
            if isinstance(profile, str):
                profile = get_profile(profile)
            if scale != 1.0:
                profile = profile.scaled(scale)
            resolved.append((profile, entry))
        counts = _deal_cores([entry.weight for entry in self.entries], cores)
        starved = [
            entry.profile_name
            for entry, count in zip(self.entries, counts, strict=True) if count == 0
        ]
        if starved:
            raise ValueError(
                f"scenario {self.name!r} needs at least {len(self.entries)} "
                f"cores so every entry gets one; at cores={cores} the deal "
                f"leaves no cores for: {', '.join(starved)}"
            )
        occurrences: Dict[WorkloadProfile, int] = {}
        assignments: List[CoreWorkload] = []
        for (profile, entry), count in zip(resolved, counts, strict=True):
            instructions = (
                entry.instructions
                or instructions_per_core
                or profile.recommended_trace_instructions
            )
            for _ in range(count):
                position = occurrences.get(profile, 0)
                occurrences[profile] = position + 1
                assignments.append(
                    CoreWorkload(
                        profile=profile,
                        seed=trace_seed_base + position,
                        instructions=instructions,
                    )
                )
        return BoundScenario(name=self.name, assignments=tuple(assignments))


def scenario_from_profile(
    profile: Union[str, WorkloadProfile], name: Optional[str] = None
) -> Scenario:
    """The degenerate scenario: every core runs ``profile``.

    Bit-identical to the homogeneous :class:`~repro.core.cmp.ChipMultiprocessor`
    path (the parity the scenario tests pin).
    """
    profile_name = profile.name if isinstance(profile, WorkloadProfile) else profile
    return Scenario(
        name=name if name is not None else profile_name,
        description=f"every core runs {profile_name} (homogeneous)",
        entries=(ScenarioEntry(profile=profile),),
    )


def _builtin_scenarios() -> Tuple[Scenario, ...]:
    return (
        Scenario(
            name="consolidated_oltp_dss",
            description=(
                "transaction processing consolidated with decision support: "
                "half the cores serve TPC-C on DB2, half scan TPC-H query 2"
            ),
            entries=(
                ScenarioEntry(profile="oltp_db2"),
                ScenarioEntry(profile="dss_qry2"),
            ),
        ),
        Scenario(
            name="noisy_neighbor_media",
            description=(
                "a latency-sensitive web frontend sharing the chip with a "
                "streaming neighbor: three web cores per media core"
            ),
            entries=(
                ScenarioEntry(profile="web_frontend", weight=3),
                ScenarioEntry(profile="media_streaming", weight=1),
            ),
        ),
        Scenario(
            name="scale_out_consolidation",
            description=(
                "the whole evaluation suite co-located on one chip: OLTP on "
                "DB2 and Oracle, DSS, media streaming and the web frontend"
            ),
            entries=(
                ScenarioEntry(profile="oltp_db2"),
                ScenarioEntry(profile="oltp_oracle"),
                ScenarioEntry(profile="dss_qry2"),
                ScenarioEntry(profile="media_streaming"),
                ScenarioEntry(profile="web_frontend"),
            ),
        ),
    )


#: Mutable catalog of named scenarios.  Extend via :func:`register_scenario`
#: rather than writing to it directly (the ``DESIGN_POINTS`` idiom).
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in _builtin_scenarios()
}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add ``scenario`` to the catalog under ``scenario.name``."""
    if not overwrite and scenario.name in SCENARIOS:
        raise ValueError(
            f"scenario {scenario.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a catalog scenario by name (with suggestions on a miss)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise unknown_name_error("scenario", name, SCENARIOS) from None


def resolve_scenario(scenario: Union[str, Scenario]) -> Scenario:
    """The single catalog lookup (shared by sweeps, Session and the CLI)."""
    if isinstance(scenario, Scenario):
        return scenario
    return get_scenario(scenario)
