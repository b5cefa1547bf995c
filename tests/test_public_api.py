"""Tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_from_docstring(self):
        """The example in the package docstring must actually run."""
        from repro import CapacityResult, MulticastModel, optimal_design

        cap = CapacityResult.compute(MulticastModel.MAW, n_ports=8, k=4)
        design = optimal_design(n_ports=64, k=4)
        assert cap.log10_full > 0
        assert design.m >= 1
        assert design.cost.crosspoints > 0


class TestImportCost:
    def test_importing_the_api_loads_no_numpy(self):
        """Importing the package loads nothing outside the standard library.

        The package has no runtime dependency.  Run in a fresh
        interpreter, because this one has loaded the test tooling, and
        count only the modules the imports add: the bare interpreter may
        already hold modules from site ``.pth`` hooks.
        """
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.api, repro.cli, repro.fabric, repro.scheduling\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'repro'}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.stdout.strip() == "[]"


SUBPACKAGES = [
    "repro.analysis",
    "repro.api",
    "repro.scheduling",
    "repro.combinatorics",
    "repro.core",
    "repro.fabric",
    "repro.multistage",
    "repro.obs",
    "repro.switching",
]


@pytest.mark.parametrize("package_name", SUBPACKAGES)
class TestSubpackages:
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name}"

    def test_docstring_present(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__) > 40


class TestDocstringCoverage:
    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_public_callables_documented(self, package_name):
        """Every exported class/function carries a docstring."""
        package = importlib.import_module(package_name)
        for name in package.__all__:
            member = getattr(package, name)
            if callable(member):
                assert member.__doc__, f"{package_name}.{name} lacks a docstring"
