"""Three-stage WDM multicast switching networks (Section 3).

* :mod:`repro.multistage.topology` -- the ``v(n, r, m, k)`` Clos-type
  topology of Fig. 8.
* :mod:`repro.multistage.routing` -- the paper's routing strategy: each
  multicast connection may use at most ``x`` middle switches; Lemma 4's
  cover condition made executable (greedy + exact search).
* :mod:`repro.multistage.network` -- the discrete-event simulator:
  connection setup/teardown over explicit link-wavelength state, for
  both the MSW-dominant and MAW-dominant constructions and any output
  stage model.
* :mod:`repro.multistage.adversary` -- worst-case traffic that blocks
  under-provisioned networks, including the Fig. 10 scenario, and
  :func:`scan_witnesses`, the randomized search for a blocking state
  at each ``m`` of a curve.
* :mod:`repro.multistage.recursive` -- recursive (5-, 7-, ...-stage)
  constructions and their cost (the paper's "any odd number of stages"
  remark).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.multistage.adversary import (
        BlockingWitness,
        Theorem1GapResult,
        demonstrate_theorem1_gap,
        fig10_scenario,
        scan_witnesses,
    )
    from repro.multistage.exhaustive import (
        BlockableResult,
        ExactMinimal,
        is_blockable,
    )
    from repro.multistage.fabric_backed import FabricBackedThreeStage
    from repro.multistage.network import (
        BlockedError,
        RoutedBranch,
        RoutedConnection,
        ThreeStageNetwork,
    )
    from repro.multistage.offline import (
        OfflineResult,
        minimal_rearrangeable_m,
        route_assignment,
    )
    from repro.multistage.recursive import RecursiveDesign, best_recursive_design
    from repro.multistage.routing import (
        CoverSearch,
        find_cover,
        find_cover_bits,
        iter_bits,
        mask_of,
    )
    from repro.multistage.serialization import dumps as artifact_dumps
    from repro.multistage.serialization import loads as artifact_loads
    from repro.multistage.topology import ThreeStageTopology

__all__ = [
    "BlockableResult",
    "BlockedError",
    "BlockingWitness",
    "CoverSearch",
    "ExactMinimal",
    "FabricBackedThreeStage",
    "OfflineResult",
    "RecursiveDesign",
    "RoutedBranch",
    "RoutedConnection",
    "Theorem1GapResult",
    "ThreeStageNetwork",
    "artifact_dumps",
    "artifact_loads",
    "ThreeStageTopology",
    "best_recursive_design",
    "demonstrate_theorem1_gap",
    "fig10_scenario",
    "find_cover",
    "find_cover_bits",
    "is_blockable",
    "iter_bits",
    "mask_of",
    "minimal_rearrangeable_m",
    "route_assignment",
    "scan_witnesses",
]

__getattr__, __dir__ = attach(__name__)
