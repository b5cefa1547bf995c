"""Offered-load studies on the Monte-Carlo engine.

``wdm-repro load`` and the report's offered-load section run
``api.blocking`` under ``PoissonErlangConfig``, one estimate per
offered load.  The nonblocking theorems govern fabric loss: at the
corrected bound no setup that reaches the fabric is refused, at any
load, while an under-provisioned network refuses a share that grows
with the load.
"""

from __future__ import annotations

from repro import api
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel


def at_load(n, r, m, k, load, *, model=MulticastModel.MAW):
    return api.blocking(
        n, r, m, k, model=model, x=1,
        traffic=api.PoissonErlangConfig(offered_erlangs=load, steps=1200),
    )


class TestOfferedLoad:
    def test_zero_blocking_at_corrected_bound(self):
        """The theorems' guarantee survives heavy stochastic load."""
        m = min_middle_switches_corrected(
            3, 3, 2, Construction.MSW_DOMINANT, MulticastModel.MAW, x=1
        )
        for load in (2.0, 8.0, 20.0):
            estimate = at_load(3, 3, m, 2, load)
            assert estimate.attempts > 1000
            assert estimate.blocked == 0

    def test_starved_network_loses_traffic(self):
        estimate = at_load(3, 3, 2, 2, 8.0)
        assert estimate.ci()[0] > 0.05

    def test_loss_rises_with_load_below_bound(self):
        estimates = [
            at_load(3, 3, 3, 1, load, model=MulticastModel.MSW)
            for load in (0.5, 4.0, 16.0)
        ]
        for lighter, heavier in zip(estimates, estimates[1:]):
            assert lighter.ci()[1] < heavier.ci()[0]
