"""Workload profiles mirroring the paper's benchmark suite (Table 1).

Each profile parameterises the synthetic program generator so that the
resulting workload reproduces the frontend-relevant properties of the
corresponding commercial workload: instruction footprint well beyond the
32 KB L1-I, a branch working set in the 10K-30K taken-branch range (Figure 1),
a deep layered call structure, and Table 2's per-block branch densities.

The absolute footprints are scaled down relative to the multi-megabyte
working sets of the real workloads so that trace-driven simulation stays
laptop-friendly; the *relative* pressure on the 32 KB L1-I and 1K-entry BTB is
preserved, which is what every evaluated mechanism responds to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.isa.instruction import INSTRUCTION_SIZE_BYTES
from repro.registry import unknown_name_error


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters controlling synthetic program and trace generation.

    Attributes:
        name: short identifier (e.g. ``oltp_db2``).
        description: human-readable description of the modelled workload.
        category: one of ``oltp``, ``dss``, ``media``, ``web``.
        layers: depth of the software stack (each request traverses them).
        functions_per_layer: number of distinct functions per layer.
        mean_basic_blocks: mean number of basic blocks per function.
        mean_block_length: mean instructions per basic block (controls the
            static branch density per 64 B block; 16 / mean_block_length).
        request_types: number of distinct request types in the service mix.
        conditional_fraction: fraction of basic-block terminators that are
            conditional branches.
        call_fraction: fraction that are direct calls to the next layer.
        indirect_call_fraction: fraction that are indirect calls.
        indirect_jump_fraction: fraction that are indirect jumps (dispatch).
        unconditional_fraction: fraction that are direct unconditional jumps.
        early_return_fraction: fraction that are early-exit returns.
        taken_bias_choices: biases assigned to forward conditional branches.
        deterministic_fraction: fraction of conditionals whose outcome is a
            pure function of the request type (drives temporal recurrence).
        loop_fraction: fraction of conditionals that form backward loops.
        loop_trip_range: inclusive range of loop trip counts.
        cross_layer_fanout: candidate callees considered per call site.
        request_parameters: number of distinct per-request parameter values
            (e.g. which warehouse/table/URL a request touches); path choices
            depend on (request type, parameter), so larger values widen the
            dynamic instruction working set while keeping streams recurrent.
        distinct_operations: number of distinct operations (statements,
            handlers) a request type is composed of; together with the
            request-type count this sets how much of the code base the
            steady-state request mix exercises.
        request_zipf_s: skew of the request-type popularity distribution.
        code_base_address: base virtual address of the code segment (a
            multiple of the 4-byte instruction size).
        seed: generator seed (program layout is deterministic per profile).
        recommended_trace_instructions: default trace length for evaluation.
    """

    name: str
    description: str
    category: str
    layers: int
    functions_per_layer: int
    mean_basic_blocks: int
    mean_block_length: float
    request_types: int
    conditional_fraction: float = 0.64
    call_fraction: float = 0.14
    indirect_call_fraction: float = 0.03
    indirect_jump_fraction: float = 0.03
    unconditional_fraction: float = 0.08
    early_return_fraction: float = 0.08
    taken_bias_choices: Tuple[float, ...] = (0.05, 0.1, 0.3, 0.5, 0.5, 0.7, 0.9, 0.95)
    deterministic_fraction: float = 0.95
    loop_fraction: float = 0.18
    loop_trip_range: Tuple[int, int] = (2, 12)
    cross_layer_fanout: int = 3
    request_parameters: int = 10
    distinct_operations: int = 12
    request_zipf_s: float = 0.9
    code_base_address: int = 0x4000_0000
    seed: int = 7
    recommended_trace_instructions: int = 800_000

    def __post_init__(self) -> None:
        fractions = (
            self.conditional_fraction
            + self.call_fraction
            + self.indirect_call_fraction
            + self.indirect_jump_fraction
            + self.unconditional_fraction
            + self.early_return_fraction
        )
        if not math.isclose(fractions, 1.0, abs_tol=1e-6):
            raise ValueError(f"terminator fractions must sum to 1.0, got {fractions}")
        if self.layers < 2:
            raise ValueError("workloads need at least two software layers")
        if not 0.0 <= self.deterministic_fraction <= 1.0:
            raise ValueError("deterministic_fraction must be in [0, 1]")
        if self.loop_trip_range[0] < 1 or self.loop_trip_range[1] < self.loop_trip_range[0]:
            raise ValueError("invalid loop trip range")
        if self.code_base_address % INSTRUCTION_SIZE_BYTES != 0:
            raise ValueError(
                f"code_base_address {self.code_base_address:#x} is not "
                f"{INSTRUCTION_SIZE_BYTES}-byte aligned"
            )

    @property
    def approximate_static_instructions(self) -> int:
        """Rough static instruction count implied by the layout parameters."""
        basic_blocks = self.layers * self.functions_per_layer * self.mean_basic_blocks
        return int(basic_blocks * self.mean_block_length)

    @property
    def approximate_footprint_kb(self) -> float:
        """Approximate instruction footprint in kilobytes."""
        return self.approximate_static_instructions * 4 / 1024

    @property
    def static_branch_density_target(self) -> float:
        """Expected static branches per 64 B block (16 / block length)."""
        return 16.0 / self.mean_block_length

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Return a copy whose footprint and trace length scale by ``factor``.

        Used by tests (small factors) and by users who want longer runs.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        functions = max(2, int(round(self.functions_per_layer * factor)))
        instructions = max(10_000, int(self.recommended_trace_instructions * factor))
        return replace(
            self,
            functions_per_layer=functions,
            recommended_trace_instructions=instructions,
        )


def _oltp_db2() -> WorkloadProfile:
    return WorkloadProfile(
        name="oltp_db2",
        description="TPC-C style online transaction processing on IBM DB2",
        category="oltp",
        layers=12,
        functions_per_layer=72,
        mean_basic_blocks=18,
        mean_block_length=4.4,
        request_types=5,
        distinct_operations=24,
        deterministic_fraction=0.96,
        loop_fraction=0.16,
        seed=11,
    )


def _oltp_oracle() -> WorkloadProfile:
    return WorkloadProfile(
        name="oltp_oracle",
        description="TPC-C style online transaction processing on Oracle",
        category="oltp",
        layers=13,
        functions_per_layer=108,
        mean_basic_blocks=19,
        mean_block_length=6.4,
        request_types=7,
        distinct_operations=28,
        deterministic_fraction=0.94,
        loop_fraction=0.15,
        seed=13,
    )


def _dss(query: int, seed: int) -> WorkloadProfile:
    return WorkloadProfile(
        name=f"dss_qry{query}",
        description=f"TPC-H decision-support query {query} on IBM DB2",
        category="dss",
        layers=11,
        functions_per_layer=58,
        mean_basic_blocks=17,
        mean_block_length=4.7,
        request_types=3,
        distinct_operations=16,
        deterministic_fraction=0.97,
        loop_fraction=0.26,
        loop_trip_range=(4, 24),
        seed=seed,
    )


def _media_streaming() -> WorkloadProfile:
    return WorkloadProfile(
        name="media_streaming",
        description="Darwin streaming server serving high-bitrate clients",
        category="media",
        layers=11,
        functions_per_layer=64,
        mean_basic_blocks=17,
        mean_block_length=4.6,
        request_types=4,
        distinct_operations=24,
        deterministic_fraction=0.96,
        loop_fraction=0.2,
        loop_trip_range=(3, 16),
        seed=29,
    )


def _web_frontend() -> WorkloadProfile:
    return WorkloadProfile(
        name="web_frontend",
        description="Apache/SPECweb99 web frontend with fastCGI workers",
        category="web",
        layers=12,
        functions_per_layer=82,
        mean_basic_blocks=18,
        mean_block_length=3.7,
        request_types=6,
        distinct_operations=24,
        deterministic_fraction=0.95,
        loop_fraction=0.14,
        seed=31,
    )


#: All synthetic workload profiles, keyed by name.
WORKLOAD_PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        _oltp_db2(),
        _oltp_oracle(),
        _dss(2, seed=17),
        _dss(8, seed=19),
        _dss(17, seed=23),
        _dss(20, seed=25),
        _media_streaming(),
        _web_frontend(),
    )
}

#: The five workload groups the paper's figures report, with a representative
#: profile per group (the four DSS queries are summarised by query 2, matching
#: the paper's practice of averaging "DSS Qrys").
EVALUATION_WORKLOADS: Dict[str, str] = {
    "OLTP DB2": "oltp_db2",
    "OLTP Oracle": "oltp_oracle",
    "DSS Qrys": "dss_qry2",
    "Media Streaming": "media_streaming",
    "Web Frontend": "web_frontend",
}


def get_profile(name: str) -> WorkloadProfile:
    """Look up a profile by name (an ``UnknownComponentError`` lists the catalog)."""
    try:
        return WORKLOAD_PROFILES[name]
    except KeyError:
        raise unknown_name_error("workload profile", name, WORKLOAD_PROFILES) from None


def evaluation_profiles(scale: float = 1.0) -> Dict[str, WorkloadProfile]:
    """Return the five evaluation workloads, optionally scaled."""
    profiles = {}
    for label, name in EVALUATION_WORKLOADS.items():
        profile = get_profile(name)
        profiles[label] = profile.scaled(scale) if scale != 1.0 else profile
    return profiles
