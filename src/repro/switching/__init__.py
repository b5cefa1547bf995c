"""Connection-level model of WDM multicast (Section 2).

* :mod:`repro.switching.requests` -- endpoints, multicast connections and
  multicast assignments (Fig. 1's traffic model).
* :mod:`repro.switching.validity` -- the structural and per-model rules a
  legal assignment must satisfy.
* :mod:`repro.switching.enumeration` -- exhaustive enumeration of all
  legal assignments of a small network (the brute-force oracle for
  Lemmas 1-3).
* :mod:`repro.switching.generators` -- seeded random assignment and
  dynamic-traffic generators for simulation and fuzzing.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.switching.requests import (
        Endpoint,
        MulticastAssignment,
        MulticastConnection,
    )
    from repro.switching.validity import (
        ValidityError,
        check_assignment,
        check_connection,
        is_valid_assignment,
        is_valid_connection,
    )
    from repro.switching.enumeration import (
        count_assignments,
        iter_assignments,
    )
    from repro.switching.generators import (
        AssignmentGenerator,
        TrafficEvent,
        dynamic_traffic,
    )
    from repro.switching.patterns import (
        bit_reversal,
        broadcast,
        identity,
        perfect_shuffle,
        ring_multicast,
        saturating_multicast,
    )

__all__ = [
    "AssignmentGenerator",
    "Endpoint",
    "MulticastAssignment",
    "MulticastConnection",
    "TrafficEvent",
    "ValidityError",
    "bit_reversal",
    "broadcast",
    "check_assignment",
    "check_connection",
    "count_assignments",
    "dynamic_traffic",
    "identity",
    "is_valid_assignment",
    "is_valid_connection",
    "iter_assignments",
    "perfect_shuffle",
    "ring_multicast",
    "saturating_multicast",
]

__getattr__, __dir__ = attach(__name__)
