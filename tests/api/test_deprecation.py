"""Nothing reached through the facade or the CLI emits a
``DeprecationWarning``."""

from __future__ import annotations

import warnings

import pytest

from repro import api


class TestFacadeIsClean:
    """The entry points run clean with DeprecationWarning promoted to an error."""

    @pytest.mark.parametrize("call", [
        lambda: api.blocking(2, 2, 2, 1, x=1,
                             traffic=api.UniformConfig(steps=30, seeds=(0,))),
        lambda: api.sweep(2, 2, 1, [1, 2], x=1,
                          traffic=api.UniformConfig(steps=30, seeds=(0,))),
        lambda: api.sweep(2, 2, 1, [1, 2], x=1,
                          traffic=api.UniformConfig(
                              steps=30, seeds=(0,), adversarial=True,
                              adversary_seeds=3)),
        lambda: api.blocking(2, 2, 2, 1, x=1,
                             traffic=api.HotspotConfig(steps=30, seeds=(0,))),
        lambda: api.blocking(2, 2, 2, 1, x=1,
                             traffic=api.HeavyTailFanoutConfig(
                                 steps=30, seeds=(0,))),
        lambda: api.exact_m(2, 2, 1, x=1, m_max=4),
    ])
    def test_no_deprecation_warning_escapes(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            call()

    def test_cli_blocking_is_clean(self, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                         "--m-max", "2"]) == 0
        assert "Blocking probability" in capsys.readouterr().out

    def test_cli_exact_is_clean(self, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["exact", "--n", "2", "--r", "2", "--k", "1"]) == 0
        assert "exact" in capsys.readouterr().out
