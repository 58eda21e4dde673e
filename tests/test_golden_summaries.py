"""Golden sweep summaries: the catalog's results pinned, not just parity.

Backend parity checks backends against each other; a change to a shared
component (a predictor, the L1-I, the timing model) moves ``scalar`` and
``reference`` together and parity never notices.  This test pins the results
themselves: every ``DESIGN_POINTS`` entry on every evaluation profile, run
through :func:`repro.sweep.run_sweep` on a 2-core chip (core 0 records the
profile's SHIFT history, core 1 replays it), compared exactly — cycles, IPC,
MPKIs, per-core and per-profile breakdowns, area — against the committed
``tests/golden/summaries.json``.

A deliberate model change shows up as a reviewed diff of that file.
Regenerate it with
``REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_summaries.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Set, Tuple

from repro.core.designs import DESIGN_POINTS
from repro.sweep import run_sweep
from repro.workloads.profiles import EVALUATION_WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "summaries.json"

SCALE = 0.08
CORES = 2
INSTRUCTIONS_PER_CORE = 6_000
#: A trace always finishes the request it is in, so its length is set by its
#: seeds' first requests (19k-112k instructions at this scale); seeds 254/255
#: have short ones on every evaluation profile, which keeps the grid cheap.
TRACE_SEED_BASE = 254


def _grid_summaries() -> Dict[str, Dict[str, object]]:
    """``{profile: {design: summary}}`` in plain JSON form."""
    profiles = list(EVALUATION_WORKLOADS.values())
    designs = list(DESIGN_POINTS)
    outcome = run_sweep(
        profiles,
        designs,
        scale=SCALE,
        cores=CORES,
        instructions_per_core=INSTRUCTIONS_PER_CORE,
        trace_seed_base=TRACE_SEED_BASE,
    )
    grid = {
        profile: {design: outcome.summaries[(profile, design)] for design in designs}
        for profile in profiles
    }
    # The JSON round trip turns tuples into lists, exactly as the file holds them.
    return json.loads(json.dumps(grid))


def test_sweep_summaries_match_golden():
    fresh = _grid_summaries()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    assert GOLDEN.exists(), (
        f"golden file {GOLDEN} missing — regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _cells(fresh) == _cells(golden), "the catalog or the profiles changed"
    moved = sorted(
        f"{profile}/{design}"
        for profile, design in _cells(fresh)
        if fresh[profile][design] != golden[profile][design]
    )
    assert not moved, f"summaries moved for {len(moved)} cell(s): {moved}"


def _cells(grid: Dict[str, Dict[str, object]]) -> Set[Tuple[str, str]]:
    return {(profile, design) for profile, row in grid.items() for design in row}
