"""Reproduction of "Nonblocking WDM Multicast Switching Networks".

Yang, Wang, Qiao (ICPP 2000 / IEEE TPDS).  The package provides:

* the three WDM multicast models (MSW, MSDW, MAW) and their multicast
  capacities, crosspoint and converter costs (Section 2 / Table 1);
* component-level optical fabric construction and simulation of the
  crossbar designs of Figs. 4-7 (:mod:`repro.fabric`);
* a three-stage WDM multicast network simulator with the paper's
  ``x``-middle-switch routing strategy, plus the nonblocking conditions
  of Theorems 1-2 as exact integer predicates (Section 3 / Table 2);
* analysis and regeneration harnesses for every table and figure
  (:mod:`repro.analysis`);
* a typed public facade over the analysis entry points
  (:mod:`repro.api`) and a zero-cost-when-off observability layer
  (:mod:`repro.obs`).

Every export below and every subpackage (``from repro import api,
obs``) is a lazy attribute (:mod:`repro._lazy`): ``import repro``
loads no submodule, and each name imports its own module on first
use.

Quickstart::

    from repro import MulticastModel, CapacityResult, optimal_design

    cap = CapacityResult.compute(MulticastModel.MAW, n_ports=8, k=4)
    design = optimal_design(n_ports=64, k=4)
    print(cap.log10_full, design.m, design.cost.crosspoints)
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro import (  # the subpackages; redundant aliases re-export
        analysis as analysis,
        api as api,
        combinatorics as combinatorics,
        core as core,
        engine as engine,
        fabric as fabric,
        multistage as multistage,
        obs as obs,
        perf as perf,
        scheduling as scheduling,
        switching as switching,
        workloads as workloads,
    )
    from repro.core import (
        CapacityResult,
        Construction,
        CrossbarCost,
        MultistageDesign,
        MulticastModel,
        NonblockingBound,
        any_multicast_capacity,
        crossbar_cost,
        full_multicast_capacity,
        min_middle_switches,
        multistage_cost,
        optimal_design,
    )
    from repro.switching import (
        Endpoint,
        MulticastAssignment,
        MulticastConnection,
    )

__version__ = "1.0.0"

__all__ = [
    "CapacityResult",
    "Construction",
    "CrossbarCost",
    "Endpoint",
    "MulticastAssignment",
    "MulticastConnection",
    "MultistageDesign",
    "MulticastModel",
    "NonblockingBound",
    "__version__",
    "any_multicast_capacity",
    "crossbar_cost",
    "full_multicast_capacity",
    "min_middle_switches",
    "multistage_cost",
    "optimal_design",
]

__getattr__, __dir__ = attach(__name__)
