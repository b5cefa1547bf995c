"""Electronic schedules and exact round counts, pinned as literals.

The greedy schedule takes demands in decreasing conflict degree, ties
in index order, and gives each the smallest round no earlier neighbour
holds; the digest below was computed once over 50 random batches and
written in, so a change that reorders a single demand fails here.
"""

from __future__ import annotations

import hashlib
import json

from repro.scheduling import (
    electronic_rounds,
    exact_chromatic_rounds,
    random_demand_batch,
)


def test_electronic_schedules_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        rounds, schedule = electronic_rounds(random_demand_batch(8, 12, seed=seed))
        digest.update((json.dumps([rounds, schedule]) + "\n").encode())
    assert digest.hexdigest() == (
        "8e60a165556ab00547b7d40c9c60faeda670975cb061f7964035db4a366afa3b"
    )


def test_exact_chromatic_rounds_pinned():
    assert [
        exact_chromatic_rounds(random_demand_batch(8, 12, seed=seed))
        for seed in range(10)
    ] == [7, 6, 7, 7, 7, 7, 8, 6, 7, 6]

