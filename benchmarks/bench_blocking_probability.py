"""Experiment X3b: blocking probability vs m (below the bound).

The flip side of the theorems: starved networks drop requests.  We
sweep m from 1 to the Theorem-1 minimum and measure the Monte-Carlo
blocking probability; it must start positive and reach exactly zero.
"""

from __future__ import annotations

from repro import api
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import min_middle_switches_msw_dominant
from repro.multistage import scan_witnesses


def test_blocking_curve(benchmark):
    n, r, k, x = 3, 3, 1, 1
    bound = min_middle_switches_msw_dominant(n, r, k, x=x)

    estimates = benchmark(
        api.sweep,
        n,
        r,
        k,
        list(range(1, bound + 1)),
        x=x,
        traffic=api.UniformConfig(steps=800, seeds=(0, 1)),
    )
    probabilities = [estimate.probability for estimate in estimates]
    assert probabilities[0] > 0.0
    assert probabilities[-1] == 0.0
    print()
    print(f"blocking probability vs m (n=r=3, k=1, x=1; Theorem 1 bound m={bound}):")
    for estimate in estimates:
        bar = "#" * int(estimate.probability * 60)
        print(
            f"  m={estimate.m:2d}: P(block)={estimate.probability:7.4f} "
            f"({estimate.blocked}/{estimate.attempts}) {bar}"
        )


def test_adversarial_curve(benchmark):
    """The randomized adversary finds blocking states below the bound.

    A witness proves that a legal blocking state exists at its ``m``.
    It is not a traffic sample, so the blocking estimates keep the
    counts random traffic produced.
    """
    n, r, k, x = 3, 3, 1, 1
    bound = min_middle_switches_msw_dominant(n, r, k, x=x)
    m_values = [1, 2, 3, 4, bound]
    traffic = api.UniformConfig(steps=300, seeds=(0,))
    estimates = api.sweep(n, r, k, m_values, x=x, traffic=traffic)

    witnesses = benchmark(
        scan_witnesses,
        n,
        r,
        k,
        m_values,
        construction=Construction.MSW_DOMINANT,
        model=MulticastModel.MSW,
        x=x,
        restarts=25,
    )
    # Witnesses at the starved points; never at the bound itself.
    assert witnesses[1] is not None and witnesses[2] is not None
    assert witnesses[bound] is None
    for witness in witnesses.values():
        if witness is not None:
            witness.replay()
    assert api.sweep(n, r, k, m_values, x=x, traffic=traffic) == estimates
    print()
    print(f"adversary witnesses (n=r=3, k=1, x=1, 25 restarts; bound m={bound}):")
    for estimate in estimates:
        found = "witness" if witnesses[estimate.m] is not None else "none"
        print(
            f"  m={estimate.m:2d}: {found:7s} random traffic blocked "
            f"{estimate.blocked}/{estimate.attempts}"
        )
