"""Adversary-seed derivation: keyed by the whole configuration.

An ``m``-only derivation (``random.Random(m)``) would make every
configuration sharing an ``m`` value replay the identical adversary
stream.  The schedule mixes a traffic key (topology, construction,
model, x) into the derivation instead.
"""

from __future__ import annotations

import random

import pytest

from repro.core.models import Construction, MulticastModel
from repro.multistage import scan_witnesses
from repro.multistage.adversary import _adversary_seeds, _adversary_traffic_key

KEY_A = _adversary_traffic_key(
    3, 3, 1, Construction.MSW_DOMINANT, MulticastModel.MSW, 1
)
KEY_B = _adversary_traffic_key(
    4, 2, 2, Construction.MSW_DOMINANT, MulticastModel.MSW, 1
)


class TestKeyedSchedule:
    def test_deterministic_for_a_fixed_key(self):
        assert _adversary_seeds(5, 8, KEY_A) == _adversary_seeds(5, 8, KEY_A)

    def test_differs_across_traffic_keys(self):
        assert _adversary_seeds(5, 8, KEY_A) != _adversary_seeds(5, 8, KEY_B)

    def test_differs_from_legacy_schedule(self):
        rng = random.Random(5)
        m_only = [rng.randrange(10**9) for _ in range(8)]
        assert _adversary_seeds(5, 8, KEY_A) != m_only

    def test_still_varies_with_m(self):
        assert _adversary_seeds(4, 8, KEY_A) != _adversary_seeds(5, 8, KEY_A)

    def test_key_covers_every_traffic_dimension(self):
        for field in ("n=3", "r=3", "k=1", "construction=MSW_DOMINANT",
                      "model=MSW", "x=1"):
            assert field in KEY_A

    def test_schedule_is_pinned(self):
        """The seeds the adversary has always drawn: a moved key or
        schedule would orphan every cached restart."""
        assert KEY_A == "n=3|r=3|k=1|construction=MSW_DOMINANT|model=MSW|x=1"
        assert _adversary_seeds(5, 8, KEY_A) == [
            549773262, 174659348, 658189538, 777305161,
            405095762, 268461729, 853247919, 687586730,
        ]


class TestEndToEnd:
    @pytest.mark.parametrize("construction", [
        Construction.MSW_DOMINANT, Construction.MAW_DOMINANT])
    def test_adversarial_sweep_remains_deterministic(self, construction):
        def scan():
            return scan_witnesses(
                2, 2, 1, [1, 2], construction=construction,
                model=MulticastModel.MSW, x=1, restarts=4,
            )

        assert scan() == scan()
