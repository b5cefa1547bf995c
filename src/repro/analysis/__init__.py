"""Regeneration harness for the paper's tables, figures and implied curves.

* :mod:`repro.analysis.tables` -- Table 1 (capacity/cost per model) and
  Table 2 (crossbar vs multistage cost), both symbolic and evaluated.
* :mod:`repro.analysis.figures` -- data series for the design-space
  curves the paper argues verbally: cost vs ``N``, the ``m(x)`` bound
  profile, capacity growth, and the crossbar/multistage crossover.
* :mod:`repro.analysis.montecarlo` -- blocking probability vs ``m``
  under random multicast traffic.
* :mod:`repro.analysis.tradeoffs` -- the cost-performance comparison of
  Section 2.4 (why MSDW is dominated).
* :mod:`repro.analysis.rendering` -- plain-text table rendering shared
  by the CLI and the benchmarks.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.montecarlo import BlockingEstimate
    from repro.analysis.rendering import render_table
    from repro.analysis.sensitivity import AspectPoint, aspect_ratio_study
    from repro.analysis.tables import (
        Table1Row,
        Table2Row,
        table1,
        table1_symbolic,
        table2,
        table2_symbolic,
    )

__all__ = [
    "AspectPoint",
    "BlockingEstimate",
    "Table1Row",
    "Table2Row",
    "aspect_ratio_study",
    "render_table",
    "table1",
    "table1_symbolic",
    "table2",
    "table2_symbolic",
]

__getattr__, __dir__ = attach(__name__)
