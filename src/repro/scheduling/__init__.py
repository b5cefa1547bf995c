"""Multicast batch scheduling: the paper's Section 1 motivation, quantified.

The introduction argues that electronic multicast switches need "a
complex scheduling algorithm ... to avoid conflicts among multiple
multicast connections with overlapped destinations", while WDM lets a
source send different messages to multiple destination sets and a
destination receive several messages concurrently.

This package makes that comparison executable: given a batch of
node-level multicast *demands*,

* :mod:`repro.scheduling.electronic` computes how many sequential
  rounds a single-wavelength (electronic) switch needs -- a coloring of
  the demand conflict graph;
* :mod:`repro.scheduling.wdm` packs the same batch into rounds on a
  ``k``-wavelength WDM switch, where each node may source and sink up
  to ``k`` demands per round.

The benchmark ``bench_scheduling.py`` measures the resulting round
compression (up to ``k``-fold), the intro's claim in numbers.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.scheduling.demands import Demand, random_demand_batch, video_fanout_batch
    from repro.scheduling.electronic import (
        conflict_graph,
        electronic_rounds,
        exact_chromatic_rounds,
    )
    from repro.scheduling.wdm import wdm_rounds

__all__ = [
    "Demand",
    "conflict_graph",
    "electronic_rounds",
    "exact_chromatic_rounds",
    "random_demand_batch",
    "video_fanout_batch",
    "wdm_rounds",
]

__getattr__, __dir__ = attach(__name__)
