"""Core analysis of the paper: models, capacity, cost, nonblocking bounds.

* :mod:`repro.core.models` -- the MSW / MSDW / MAW multicast models.
* :mod:`repro.core.capacity` -- multicast capacities (Lemmas 1-3).
* :mod:`repro.core.cost` -- crossbar crosspoint/converter costs (Table 1).
* :mod:`repro.core.multistage` -- nonblocking conditions for three-stage
  constructions (Theorems 1-2) as exact integer predicates, plus minimal
  middle-stage sizes and optimal routing parameters.
* :mod:`repro.core.asymptotics` -- the closed asymptotic forms of Table 2.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.capacity import (
        CapacityResult,
        any_multicast_capacity,
        full_multicast_capacity,
        log10_any_multicast_capacity,
        log10_full_multicast_capacity,
        multicast_capacity,
    )
    from repro.core.corrected import (
        CorrectedBound,
        destination_kill_capacity,
        is_nonblocking_corrected,
        min_middle_switches_corrected,
    )
    from repro.core.cost import (
        CrossbarCost,
        crossbar_converters,
        crossbar_cost,
        crossbar_crosspoints,
    )
    from repro.core.models import Construction, MulticastModel
    from repro.core.unicast import clos_unicast_minimum, is_nonblocking_unicast
    from repro.core.multistage import (
        MultistageDesign,
        NonblockingBound,
        is_nonblocking_maw_dominant,
        is_nonblocking_msw_dominant,
        min_middle_switches,
        min_middle_switches_maw_dominant,
        min_middle_switches_msw_dominant,
        multistage_cost,
        optimal_design,
        yang_masson_m,
    )

__all__ = [
    "CapacityResult",
    "Construction",
    "CorrectedBound",
    "CrossbarCost",
    "MultistageDesign",
    "MulticastModel",
    "NonblockingBound",
    "any_multicast_capacity",
    "clos_unicast_minimum",
    "crossbar_converters",
    "crossbar_cost",
    "crossbar_crosspoints",
    "destination_kill_capacity",
    "full_multicast_capacity",
    "is_nonblocking_corrected",
    "is_nonblocking_unicast",
    "is_nonblocking_maw_dominant",
    "is_nonblocking_msw_dominant",
    "log10_any_multicast_capacity",
    "log10_full_multicast_capacity",
    "min_middle_switches",
    "min_middle_switches_corrected",
    "min_middle_switches_maw_dominant",
    "min_middle_switches_msw_dominant",
    "multicast_capacity",
    "multistage_cost",
    "optimal_design",
    "yang_masson_m",
]

__getattr__, __dir__ = attach(__name__)
