"""Storage and area model.

The paper sizes every structure with CACTI 6.5 at 40 nm and reports a few
anchor points (Section 4.2):

* 1K-entry conventional BTB + 64-entry victim buffer: ~9.9 KB, 0.08 mm^2
* 16K-entry conventional BTB (second level): ~140 KB, 0.6 mm^2
* AirBTB (512 bundles x 3 entries + 32-entry overflow): ~10.2 KB, 0.08 mm^2
* SHIFT: ~0.06 mm^2 per core (LLC tag-array extension amortized over 16 cores)
* ARM Cortex-A72-like core: 7.2 mm^2 at 40 nm

This module fits a power-law SRAM area curve through the two BTB anchor
points and uses it for every dedicated SRAM structure, which keeps relative
areas (the x-axis of Figures 2 and 6) consistent with the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

#: Area of the modelled core at 40 nm (ARM Cortex-A72-like), mm^2.
CORE_AREA_MM2 = 7.2

#: Per-core area of SHIFT's LLC tag-array extension (Section 4.2.1), mm^2.
SHIFT_PER_CORE_MM2 = 0.06

# Power-law fit a * KB^b through (9.9 KB, 0.08 mm^2) and (140 KB, 0.6 mm^2).
_FIT_EXPONENT = math.log(0.6 / 0.08) / math.log(140.0 / 9.9)
_FIT_COEFFICIENT = 0.08 / 9.9 ** _FIT_EXPONENT


def sram_area_mm2(storage_kb: float) -> float:
    """Area of a dedicated SRAM structure of ``storage_kb`` kilobytes."""
    if storage_kb < 0:
        raise ValueError("storage cannot be negative")
    if storage_kb == 0:
        return 0.0
    return _FIT_COEFFICIENT * storage_kb ** _FIT_EXPONENT


@dataclass
class FrontendAreaReport:
    """Per-core area accounting of one frontend design point."""

    design: str
    components_mm2: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, area_mm2: float) -> None:
        self.components_mm2[name] = self.components_mm2.get(name, 0.0) + area_mm2

    @property
    def total_mm2(self) -> float:
        return sum(self.components_mm2.values())

    @property
    def fraction_of_core(self) -> float:
        return self.total_mm2 / CORE_AREA_MM2

    def relative_to(self, baseline: "FrontendAreaReport") -> float:
        """Relative core area versus a baseline design (Figures 2 and 6)."""
        return (CORE_AREA_MM2 + self.total_mm2 - baseline.total_mm2) / CORE_AREA_MM2


def area_report(
    design: str,
    btb_storage_kb: float = 0.0,
    shift_shared: bool = False,
) -> FrontendAreaReport:
    """Assemble a design's area report from its BTB's storage.

    The BTB is the only dedicated SRAM a design adds: FDP reuses the branch
    predictor's metadata, and SHIFT (alone or inside Confluence) keeps its
    history and index in the LLC.  ``shift_shared`` adds the fixed per-core
    cost of SHIFT's virtualized history/index (which is not dedicated SRAM
    and therefore not run through the power-law fit).
    """
    report = FrontendAreaReport(design=design)
    if btb_storage_kb:
        report.add("btb", sram_area_mm2(btb_storage_kb))
    if shift_shared:
        report.add("shift", SHIFT_PER_CORE_MM2)
    return report
