"""A repeated ``m`` or seed, or no seed at all, is refused up front.

Cells are addressed by ``(m, seed)``, so a repeat names one cell twice,
and unchecked each kernel would mishandle it its own way: the bitmask
sweep fails inside the sweep engine, the fixed-budget batched kernel
counts a repeated seed twice and returns a repeated ``m`` as two rows,
and the adaptive batched kernel pools the repeated ``m``'s rounds into
wrong totals.  An empty seed tuple is refused too: it would return a
curve of zero attempts whose interval claims nothing was measured.  The
adaptive sweep draws its own replication seeds, so it still takes one.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis.montecarlo import _blocking_curve
from tests.curves import curve

KERNELS = ("bitmask", "batched")
FIXED = api.UniformConfig(steps=20, seeds=(0,))
ADAPTIVE = api.ExecConfig(
    precision=api.PrecisionConfig(half_width=0.05, max_rounds=3)
)


@pytest.mark.parametrize("kernel", KERNELS)
class TestRepeatedM:
    def test_fixed_budget(self, kernel):
        with pytest.raises(ValueError, match="m_values repeats 2; list each"):
            api.sweep(
                3, 3, 1, [2, 2], traffic=FIXED,
                search=api.SearchConfig(kernel=kernel),
            )

    def test_adaptive(self, kernel):
        with pytest.raises(ValueError, match="m_values repeats 2; list each"):
            api.sweep(
                3, 3, 1, [2, 2], traffic=api.UniformConfig(steps=40),
                execution=ADAPTIVE, search=api.SearchConfig(kernel=kernel),
            )

    def test_every_repeat_is_named(self, kernel):
        with pytest.raises(ValueError, match="m_values repeats 2, 3;"):
            api.sweep(
                3, 3, 1, [3, 2, 1, 2, 3], traffic=FIXED,
                search=api.SearchConfig(kernel=kernel),
            )


class TestRepeatedSeeds:
    @pytest.mark.parametrize(
        "config", [api.UniformConfig, api.HotspotConfig, api.PoissonErlangConfig]
    )
    def test_rejected_when_the_config_is_built(self, config):
        with pytest.raises(ValueError, match="seeds repeats 0; list each"):
            config(seeds=(0, 0))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejected_by_the_curve(self, kernel):
        with pytest.raises(ValueError, match="seeds repeats 0; list each"):
            _blocking_curve(
                curve(3, 3, 1, steps=20, seeds=(0, 0)), [2], kernel=kernel
            )


@pytest.mark.parametrize("kernel", KERNELS)
class TestEmptySeeds:
    EMPTY = api.UniformConfig(steps=10, seeds=())

    def test_blocking_refused(self, kernel):
        with pytest.raises(ValueError, match="seeds is empty; list at least"):
            api.blocking(
                2, 2, 1, 1, traffic=self.EMPTY,
                search=api.SearchConfig(kernel=kernel),
            )

    def test_sweep_refused(self, kernel):
        with pytest.raises(ValueError, match="seeds is empty; list at least"):
            api.sweep(
                2, 2, 1, [1, 2], traffic=self.EMPTY,
                search=api.SearchConfig(kernel=kernel),
            )

    def test_adaptive_sweep_still_accepts_them(self, kernel):
        estimates = api.sweep(
            2, 2, 1, [1, 2], traffic=api.UniformConfig(steps=40, seeds=()),
            execution=ADAPTIVE, search=api.SearchConfig(kernel=kernel),
        )
        assert all(estimate.attempts > 0 for estimate in estimates)
