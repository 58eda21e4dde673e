"""Built-in invariant rules: one module per rule, one fixed table.

A rule is a function that takes the :class:`~repro.staticcheck.model.
PackageGraph` of one lint target and yields
:class:`~repro.staticcheck.model.Finding` objects.  A new rule is one
module here plus one entry in :data:`RULES`.
"""

from repro.staticcheck.rules.r001_hot_loop import check_hot_loop_allocations
from repro.staticcheck.rules.r002_determinism import check_determinism
from repro.staticcheck.rules.r003_cache_keys import check_cache_key_closure
from repro.staticcheck.rules.r004_pickle_boundary import check_pickle_boundary
from repro.staticcheck.rules.r005_registry_wiring import check_registry_wiring
from repro.staticcheck.rules.r006_retry_loops import check_retry_loops

#: Every rule ``run_lint`` runs, in rule-ID order (R001..R006).
RULES = (
    check_hot_loop_allocations,
    check_determinism,
    check_cache_key_closure,
    check_pickle_boundary,
    check_registry_wiring,
    check_retry_loops,
)

__all__ = ["RULES"]
