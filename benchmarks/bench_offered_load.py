"""Experiment X9: loss vs offered load (Erlang study).

The operational meaning of the nonblocking bounds: a network at the
corrected bound refuses *zero* setups at any offered load, while an
under-provisioned one refuses a growing fraction.  Each point is one
``api.blocking`` estimate under ``PoissonErlangConfig``.
"""

from __future__ import annotations

from repro import api
from repro.core.corrected import min_middle_switches_corrected
from repro.core.models import Construction, MulticastModel

N, R, K, X = 3, 3, 2, 1
MODEL = MulticastModel.MAW
LOADS = [1.0, 4.0, 12.0]


def test_loss_curves_by_provisioning(benchmark):
    m_bound = min_middle_switches_corrected(
        N, R, K, Construction.MSW_DOMINANT, MODEL, x=X
    )

    def sweep():
        return {
            m: [
                api.blocking(
                    N, R, m, K, model=MODEL, x=X,
                    traffic=api.PoissonErlangConfig(
                        offered_erlangs=load, steps=1200
                    ),
                )
                for load in LOADS
            ]
            for m in (2, 4, m_bound)
        }

    curves = benchmark(sweep)
    print()
    print(f"P(block) vs offered load "
          f"(v({N},{R},m,{K}), MAW, x={X}; corrected bound m={m_bound}):")
    for m, estimates in curves.items():
        row = "  ".join(
            f"rho={load:5.1f}: {e.probability:.3f} +/- {e.half_width():.3f}"
            for load, e in zip(LOADS, estimates)
        )
        print(f"  m={m:2d}: {row}")
    # Zero loss at the bound, for every load.
    assert all(e.blocked == 0 for e in curves[m_bound])
    # Starved network loses plenty at high load.
    assert curves[2][-1].probability > 0.2
