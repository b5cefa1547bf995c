"""Electronic multicast scheduling: rounds = conflict-graph coloring.

In a single-wavelength switch, two demands that share a source node or
a destination node cannot proceed in the same round; a minimal schedule
is a minimum coloring of the conflict graph.  We provide the standard
greedy bound (largest-first) and an exact branch-and-bound chromatic
number for small batches (the oracle the greedy is tested against).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.scheduling.demands import Demand

__all__ = ["conflict_graph", "electronic_rounds", "exact_chromatic_rounds"]


def conflict_graph(demands: Sequence[Demand]) -> dict[int, set[int]]:
    """Adjacency sets of a batch's conflict graph: index -> conflicting indices."""
    graph: dict[int, set[int]] = {i: set() for i in range(len(demands))}
    for i in range(len(demands)):
        for j in range(i + 1, len(demands)):
            if demands[i].conflicts_with(demands[j]):
                graph[i].add(j)
                graph[j].add(i)
    return graph


def _largest_first(graph: dict[int, set[int]]) -> list[int]:
    """Demands by decreasing conflict degree, ties in index order."""
    return sorted(graph, key=lambda v: -len(graph[v]))


def electronic_rounds(demands: Sequence[Demand]) -> tuple[int, list[list[int]]]:
    """Greedy (largest-first) schedule: ``(rounds, demand indices per round)``.

    Demands are taken in decreasing conflict degree, and each gets the
    smallest round no already-scheduled conflicting demand holds.
    Greedy coloring is within ``max_degree + 1`` of optimal and is what
    a practical scheduler would run; the exact oracle below bounds how
    much it gives away on small instances.
    """
    if not demands:
        return 0, []
    graph = conflict_graph(demands)
    coloring: dict[int, int] = {}
    for vertex in _largest_first(graph):
        taken = {coloring[v] for v in graph[vertex] if v in coloring}
        coloring[vertex] = next(c for c in range(len(taken) + 1) if c not in taken)
    rounds = max(coloring.values()) + 1
    schedule: list[list[int]] = [[] for _ in range(rounds)]
    for index, color in sorted(coloring.items()):
        schedule[color].append(index)
    return rounds, schedule


def exact_chromatic_rounds(
    demands: Sequence[Demand], *, node_budget: int = 200_000
) -> int | None:
    """Exact minimum rounds (chromatic number) by branch and bound.

    Returns None if the budget runs out (instances beyond ~20 demands).
    """
    if not demands:
        return 0
    graph = conflict_graph(demands)
    order = _largest_first(graph)
    best = electronic_rounds(demands)[0]  # greedy upper bound
    colors: dict[int, int] = {}
    nodes_explored = 0

    def feasible(vertex: int, color: int) -> bool:
        return all(colors.get(neighbor) != color for neighbor in graph[vertex])

    def backtrack(index: int, used: int) -> None:
        nonlocal best, nodes_explored
        nodes_explored += 1
        if nodes_explored > node_budget:
            raise _Budget
        if used >= best:
            return
        if index == len(order):
            best = used
            return
        vertex = order[index]
        for color in range(min(used + 1, best - 1)):
            if feasible(vertex, color):
                colors[vertex] = color
                backtrack(index + 1, max(used, color + 1))
                del colors[vertex]

    try:
        backtrack(0, 0)
    except _Budget:
        return None
    return best


class _Budget(Exception):
    pass
