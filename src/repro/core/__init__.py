"""The paper's contribution: AirBTB, Confluence and the frontend model.

* :class:`~repro.core.airbtb.AirBTB` — the block-based BTB whose content
  mirrors the L1-I (bundles tagged by block address, branch bitmap, small
  overflow buffer).
* :class:`~repro.core.confluence.Confluence` — the integration: a single
  stream-based prefetcher (SHIFT) fills the L1-I, every filled block is
  predecoded and its branch entries eagerly inserted into AirBTB, and
  evictions keep the two structures synchronized.
* :class:`~repro.core.frontend.FrontendSimulator` — the trace-driven frontend
  timing model used to compare all design points.
* :mod:`~repro.core.designs` — the declarative :class:`DesignSpec`, the
  mutable design-point catalog and the registry-driven construction path for
  every named design point in the evaluation (FDP, PhantomBTB+FDP,
  2LevelBTB+FDP, 2LevelBTB+SHIFT, Confluence, Ideal, ...).
* :mod:`~repro.core.area` — the storage/area model calibrated to the paper's
  CACTI numbers.
* :class:`~repro.core.cmp.ChipMultiprocessor` — the 16-core CMP wrapper with
  a shared SHIFT history; its cores run one after another in one process.
"""

from repro.core.airbtb import AirBTB, AirBTBConfig
from repro.core.confluence import Confluence, ConfluenceConfig
from repro.core.frontend import FrontendConfig, FrontendResult, FrontendSimulator
from repro.core.area import FrontendAreaReport
from repro.core.metrics import mpki, miss_coverage
from repro.core.designs import (
    DESIGN_POINTS,
    DesignSpec,
    design_from_spec,
    register_design_point,
    resolve_design,
)
from repro.core.cmp import ChipMultiprocessor, CMPResult

__all__ = [
    "AirBTB",
    "AirBTBConfig",
    "Confluence",
    "ConfluenceConfig",
    "FrontendConfig",
    "FrontendResult",
    "FrontendSimulator",
    "FrontendAreaReport",
    "mpki",
    "miss_coverage",
    "DesignSpec",
    "design_from_spec",
    "register_design_point",
    "resolve_design",
    "DESIGN_POINTS",
    "ChipMultiprocessor",
    "CMPResult",
]
