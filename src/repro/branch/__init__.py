"""Branch prediction substrate.

Implements the branch prediction unit of the modelled core (Table 1): a
hybrid conditional direction predictor (gshare + bimodal + meta selector), a
64-entry return address stack, a 1K-entry indirect target cache, and the BTB
designs the paper evaluates against — a conventional basic-block BTB (with an
optional victim buffer), an aggressive two-level BTB, PhantomBTB (the
virtualized hierarchical BTB of Burcea & Moshovos) and idealised BTBs.

AirBTB, the paper's own BTB design, lives in :mod:`repro.core.airbtb`
because it is part of the contribution rather than the substrate, but it
implements the same :class:`~repro.branch.btb_base.BaseBTB` interface so all
designs are interchangeable in the frontend model and the coverage harness.
"""

from repro.branch.direction import DirectionPredictor, HybridDirectionPredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.indirect import IndirectTargetCache
from repro.branch.btb_base import BaseBTB, BTBEntry, BTBLookupResult, BTBStats
from repro.branch.btb_conventional import ConventionalBTB, PerfectBTB
from repro.branch.btb_two_level import TwoLevelBTB
from repro.branch.btb_phantom import PhantomBTB
from repro.branch.unit import BranchPredictionUnit, BranchPrediction

__all__ = [
    "DirectionPredictor",
    "HybridDirectionPredictor",
    "ReturnAddressStack",
    "IndirectTargetCache",
    "BaseBTB",
    "BTBEntry",
    "BTBLookupResult",
    "BTBStats",
    "ConventionalBTB",
    "PerfectBTB",
    "TwoLevelBTB",
    "PhantomBTB",
    "BranchPredictionUnit",
    "BranchPrediction",
]
