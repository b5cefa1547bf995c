"""Adversary-seed derivation: keyed by the whole configuration.

An ``m``-only derivation (``random.Random(m)``) would make every
configuration sharing an ``m`` value replay the identical adversary
stream.  The schedule mixes a traffic key (topology, construction,
model, x) into the derivation instead.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.montecarlo import _adversary_seeds, _adversary_traffic_key
from repro.core.models import Construction
from tests.curves import curve


KEY_A = _adversary_traffic_key(curve(3, 3, 1))
KEY_B = _adversary_traffic_key(curve(4, 2, 2))


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


class TestEndToEnd:
    @pytest.mark.parametrize("construction", [
        Construction.MSW_DOMINANT, Construction.MAW_DOMINANT])
    def test_adversarial_sweep_remains_deterministic(self, construction):
        from repro import api

        traffic = api.UniformConfig(steps=80, seeds=(0,), adversarial=True,
                                    adversary_seeds=4)
        first = api.sweep(2, 2, 1, [1, 2], construction=construction, x=1,
                          traffic=traffic)
        second = api.sweep(2, 2, 1, [1, 2], construction=construction, x=1,
                           traffic=traffic)
        assert [(e.m, e.blocked) for e in first] == [
            (e.m, e.blocked) for e in second]
