"""repro.staticcheck — AST-based invariant checker suite.

The simulator's correctness rests on contracts no unit test can pin for
every code path: the packed kernel allocates nothing in its steady state,
traces and cache keys are pure functions of their parameters, mmap-backed
buffers never cross pickle boundaries raw, registered components are
actually imported, and retries are bounded.
This package enforces those contracts at analysis time, over source, with
six rules in one fixed table (:data:`repro.staticcheck.rules.RULES`):

=====  ===========================================================
rule   invariant
=====  ===========================================================
R001   ``@hot_loop`` functions allocate nothing in the steady state
R002   trace/seed/cache-key code is deterministic
R003   tracked dataclass fields reach the cache-key closure
R004   mmap buffers don't cross pickle boundaries unmaterialized
R005   registering modules are imported by their package __init__
R006   retry loops are bounded, with deterministic backoff
=====  ===========================================================

Run it as ``python -m repro lint [PATH...]``, or programmatically::

    from repro.staticcheck import run_lint
    findings = run_lint(["src/repro"])
"""

from repro.staticcheck.markers import HOT_LOOP_ATTRIBUTE, hot_loop
from repro.staticcheck.model import (
    Finding,
    PackageGraph,
    ParsedModule,
    enclosing_symbol,
    parse_tree,
)
from repro.staticcheck.runner import parse_target, run_lint

__all__ = [
    "HOT_LOOP_ATTRIBUTE",
    "Finding",
    "PackageGraph",
    "ParsedModule",
    "enclosing_symbol",
    "hot_loop",
    "parse_target",
    "parse_tree",
    "run_lint",
]
