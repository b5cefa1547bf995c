"""Offline (batch) routing of complete multicast assignments.

The paper studies *strict-sense* nonblocking: requests arrive one at a
time and must be routed without disturbing existing connections.  The
complementary classical question is **rearrangeable** realizability:
given the complete multicast assignment up front, can the network carry
it if we may choose all routes jointly?

This module routes whole assignments with backtracking over both the
connection order and each connection's <= x-middle split, using the
same :class:`~repro.multistage.network.ThreeStageNetwork` state (so the
routes it finds are real, executable configurations).  Together with
the exhaustive checker it lets the benchmarks separate three
thresholds on tiny networks::

    m_rearrangeable  <=  m_strict(exact)  <=  m_bound(Theorem/corrected)

which the paper's analysis does not distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import Construction, MulticastModel
from repro.multistage.exhaustive import _all_covers
from repro.multistage.network import ThreeStageNetwork, _cover_lists
from repro.multistage.routing import mask_of
from repro.switching.enumeration import iter_assignments
from repro.switching.requests import MulticastAssignment, MulticastConnection

__all__ = [
    "OfflineResult",
    "minimal_rearrangeable_m",
    "route_assignment",
]


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class OfflineResult:
    """Result of one offline routing attempt."""

    realizable: bool | None  # None = search budget exhausted
    nodes_explored: int
    routes: dict[MulticastConnection, int] | None  # connection -> id


def route_assignment(
    net: ThreeStageNetwork,
    assignment: MulticastAssignment,
    *,
    node_budget: int = 200_000,
) -> OfflineResult:
    """Try to realize a complete assignment on an idle network.

    Backtracks over connection order (largest fanout first -- the most
    constrained requests claim middles early) and over every distinct
    <= x cover per connection.  On success the network is left carrying
    the assignment; on failure (or budget exhaustion) it is restored to
    idle.

    Args:
        net: an *idle* network (raises if connections are live).
        assignment: the multicast assignment to realize; must be legal
            under the network's model.
        node_budget: abort after this many search nodes.
    """
    if net.active_connections:
        raise ValueError("offline routing needs an idle network")
    connections = sorted(
        assignment.connections, key=lambda c: -c.fanout
    )
    routes: dict[MulticastConnection, int] = {}
    explored = [0]
    try:
        success = _backtrack(
            net, connections, 0, routes, explored, node_budget
        )
    except _BudgetExceeded:
        net.disconnect_all()
        return OfflineResult(
            realizable=None, nodes_explored=explored[0], routes=None
        )
    if not success:
        return OfflineResult(
            realizable=False, nodes_explored=explored[0], routes=None
        )
    return OfflineResult(
        realizable=True, nodes_explored=explored[0], routes=dict(routes)
    )


def _backtrack(
    net: ThreeStageNetwork,
    connections: list[MulticastConnection],
    index: int,
    routes: dict[MulticastConnection, int],
    explored: list[int],
    node_budget: int,
) -> bool:
    """Route ``connections[index:]`` on top of ``routes``; True on success.

    ``explored[0]`` counts the search nodes.  A module-level function,
    not a closure: a recursive closure is a reference cycle, which
    would keep the network alive until the next garbage collection.
    """
    explored[0] += 1
    if explored[0] > node_budget:
        raise _BudgetExceeded
    if index == len(connections):
        return True
    connection = connections[index]
    source = connection.source
    covers = _all_covers(
        net,
        net.topology.input_module_of(source.port),
        source.wavelength,
        mask_of(
            net.topology.output_module_of(d.port)
            for d in connection.destinations
        ),
    )
    for cover in covers:
        cid = net.connect(connection, force_middles=_cover_lists(cover))
        routes[connection] = cid
        if _backtrack(
            net, connections, index + 1, routes, explored, node_budget
        ):
            return True
        del routes[connection]
        net.disconnect(cid)
    return False


def minimal_rearrangeable_m(
    n: int,
    r: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    m_max: int = 12,
    node_budget: int = 200_000,
) -> tuple[int | None, dict[int, bool]]:
    """Smallest ``m`` that realizes *every* legal assignment offline.

    Exhausts the assignment space via
    :func:`repro.switching.enumeration.iter_assignments` -- tiny
    networks only (``N k <= 6``).

    Returns:
        ``(m_min or None, {m: all_realizable})``.
    """
    verdicts: dict[int, bool] = {}
    for m in range(1, m_max + 1):
        all_ok = True
        for assignment in iter_assignments(model, n * r, k, full=False):
            net = ThreeStageNetwork(
                n, r, m, k, construction=construction, model=model, x=x
            )
            result = route_assignment(net, assignment, node_budget=node_budget)
            if result.realizable is not True:
                all_ok = False
                break
        verdicts[m] = all_ok
        if all_ok:
            return m, verdicts
    return None, verdicts
