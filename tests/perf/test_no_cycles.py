"""The searches leave no reference cycle behind.

The benchmark worker (``bench/worker.py``) keeps the cyclic collector
off during each timed call, as a long sweep may.  A recursive closure
is a reference cycle, so a search written as one would hold its lists,
its network and its ``seen`` set until the collector next ran: with
the collector off, every search of a call stays in memory.  Each check
calls once to warm caches, then again with the collector off, and
expects ``gc.collect()`` to find nothing.
"""

from __future__ import annotations

import gc

from repro import api
from repro.core.models import MulticastModel
from repro.engine import cover
from repro.multistage.exhaustive import is_blockable
from repro.multistage.network import ThreeStageNetwork
from repro.multistage.offline import route_assignment
from repro.switching.generators import AssignmentGenerator


def _garbage_after(call) -> int:
    """Objects only the cyclic collector frees after one ``call()``."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_blocking_batched_sweep(monkeypatch):
    exact = []
    search = cover._exact_bits

    def counting(*args):
        exact.append(1)
        return search(*args)

    monkeypatch.setattr(cover, "_exact_bits", counting)

    def sweep():
        estimates = api.sweep(
            3, 3, 2, [1, 2, 3],
            traffic=api.UniformConfig(steps=300, seeds=(0, 1)),
            search=api.SearchConfig(kernel="batched"),
        )
        assert any(estimate.blocked for estimate in estimates)

    assert _garbage_after(sweep) == 0
    assert exact  # the greedy cover failed and the exact search ran


def test_is_blockable():
    def search():  # nonblocking: the whole state space is searched
        assert is_blockable(2, 2, 3, 1).blockable is False

    assert _garbage_after(search) == 0


def test_route_assignment():
    assignment = AssignmentGenerator(
        MulticastModel.MSW, 4, 1, rng=3
    ).random_full_assignment()

    def route():
        result = route_assignment(ThreeStageNetwork(2, 2, 3, 1), assignment)
        assert result.realizable is True

    assert _garbage_after(route) == 0
