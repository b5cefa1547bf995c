"""Exact integer combinatorics substrate.

Everything the paper's capacity and nonblocking analysis needs, computed
with exact Python integers:

* :mod:`repro.combinatorics.integers` -- falling factorials ``P(x, i)``,
  binomial coefficients, exact integer k-th roots, and the exact power
  comparisons used by the nonblocking predicates.
* :mod:`repro.combinatorics.stirling` -- Stirling numbers of the second
  kind ``S(N, j)`` and Bell numbers.
* :mod:`repro.combinatorics.partitions` -- enumeration of set partitions
  (used to cross-check Lemma 3 by brute force).
* :mod:`repro.combinatorics.polynomials` -- dense integer polynomials
  (used as generating functions for the MSDW capacity sums).
* :mod:`repro.combinatorics.multiset` -- the destination multiset algebra
  of the paper's equations (2)-(5).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.combinatorics.integers import (
        binomial,
        falling_factorial,
        integer_root,
        min_base_exceeding,
        power_exceeds,
    )
    from repro.combinatorics.multiset import DestinationMultiset
    from repro.combinatorics.partitions import (
        count_partitions_into,
        iter_set_partitions,
        iter_set_partitions_into,
    )
    from repro.combinatorics.polynomials import IntPolynomial
    from repro.combinatorics.stirling import bell_number, stirling2

__all__ = [
    "DestinationMultiset",
    "IntPolynomial",
    "bell_number",
    "binomial",
    "count_partitions_into",
    "falling_factorial",
    "integer_root",
    "iter_set_partitions",
    "iter_set_partitions_into",
    "min_base_exceeding",
    "power_exceeds",
    "stirling2",
]

__getattr__, __dir__ = attach(__name__)
