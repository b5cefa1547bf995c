"""Tests for the top-level public API surface."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import repro
from repro import api
from repro._lazy import stub_imports

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str) -> str:
    """``script``'s stdout, run in a fresh interpreter on ``src``."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return result.stdout.strip()


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
        already hold modules from site ``.pth`` hooks.  Most packages
        load their submodules on first use, so the script imports every
        module of the package (all but ``repro.__main__``, which runs
        the CLI) and the test checks that it loaded every module file.
        """
        script = (
            "import pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import repro\n"
            "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if module.name != 'repro.__main__':\n"
            "        __import__(module.name)\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(name for name in added if name.partition('.')[0] == 'repro'))\n"
            "print(sorted({name.partition('.')[0] for name in added}\n"
            "             - set(sys.stdlib_module_names) - {'repro'}))\n"
        )
        loaded, outside = run_fresh(script).splitlines()
        modules = {
            ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
                ".__init__"
            )
            for path in (SRC / "repro").rglob("*.py")
        }
        assert sorted(modules - {"repro.__main__"}) == eval(loaded)
        assert outside == "[]"


def loaded_after(setup: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``setup``."""
    return eval(run_fresh(
        "import sys\n"
        f"{setup}\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name == 'repro' or name.startswith('repro.')))\n"
    ))


class TestImportGraph:
    """Each entry point loads the modules its call runs, and no more.

    The sets are literals, so a new eager import edge fails here: a
    module that belongs on every call joins the literal, and any other
    is imported by the branch that runs it.
    """

    def test_api_import_set(self):
        assert loaded_after("import repro.api") == [
            "repro",
            "repro._lazy",
            "repro.analysis",
            "repro.analysis.montecarlo",
            "repro.api",
            "repro.combinatorics",
            "repro.combinatorics.integers",
            "repro.core",
            "repro.core.models",
            "repro.core.multistage",
            "repro.engine",
            "repro.engine.backends",
            "repro.engine.cover",
            "repro.engine.fabrics",
            "repro.engine.geometry",
            "repro.engine.kernel",
            "repro.engine.state",
            "repro.multistage",
            "repro.multistage.routing",
            "repro.obs",
            "repro.obs.meta",
            "repro.obs.metrics",
            "repro.obs.trace",
            "repro.perf",
            "repro.perf.batch",
            "repro.perf.cache",
            "repro.perf.sweeper",
            "repro.switching",
            "repro.switching.generators",
            "repro.switching.requests",
            "repro.workloads",
            "repro.workloads.base",
            "repro.workloads.erlang",
            "repro.workloads.heavytail",
            "repro.workloads.hotspot",
            "repro.workloads.keys",
            "repro.workloads.trace",
            "repro.workloads.uniform",
        ]

    def test_batched_sweep_loads_no_serial_or_search_module(self):
        """The benchmark's set-up call: one cell, 20 steps, batched."""
        loaded = loaded_after(
            "import repro.api as api\n"
            "api.sweep(3, 3, 2, [16], traffic=api.UniformConfig(steps=20, "
            "seeds=(0,)), search=api.SearchConfig(kernel='batched'))"
        )
        assert "repro.perf.batch" in loaded
        for module in (
            "repro.multistage.network",
            "repro.multistage.exhaustive",
            "repro.perf.adaptive",
        ):
            assert module not in loaded

    def test_cli_import_loads_no_handler_module(self):
        loaded = loaded_after("import repro.cli")
        for module in (
            "repro.analysis.figures",
            "repro.analysis.tables",
            "repro.multistage.adversary",
            "repro.multistage.recursive",
        ):
            assert module not in loaded


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


#: the packages whose exports load on first use (``repro._lazy``)
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.combinatorics",
    "repro.core",
    "repro.fabric",
    "repro.multistage",
    "repro.scheduling",
    "repro.switching",
]


def from_imports(module) -> dict[str, tuple[str, str]]:
    """``{name: (module, attribute)}`` of ``module``'s top-level and
    ``if TYPE_CHECKING:`` ``from ... import`` lines."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        body = (
            node.body
            if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"
            else [node]
        )
        for statement in body:
            if isinstance(statement, ast.ImportFrom) and not statement.level:
                for alias in statement.names:
                    found[alias.asname or alias.name] = (statement.module, alias.name)
    return found


def defining_module(module_name: str, name: str):
    """The module whose own code binds ``name`` (following re-exports),
    and the name it binds there."""
    while True:
        module = importlib.import_module(module_name)
        source = from_imports(module).get(name)
        if source is None:
            return module, name
        module_name, name = source


@pytest.mark.parametrize("package_name", ["repro", *SUBPACKAGES])
class TestLazySurface:
    def test_exports_are_the_defining_modules_objects(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            module, attribute = defining_module(package_name, name)
            assert getattr(package, name) is vars(module)[attribute], name

    def test_dir_covers_all(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_exactly_all(self, package_name):
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(
            importlib.import_module(package_name).__all__
        )

    def test_unknown_name_names_the_package(self, package_name):
        package = importlib.import_module(package_name)
        message = f"module {package_name!r} has no attribute 'no_such_export'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            package.no_such_export


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_type_checking_imports_are_all(package_name):
    """Each export is listed twice: an ``if TYPE_CHECKING:`` import
    line and ``__all__``.  The root package's lines also name its
    subpackages, one per directory."""
    package = importlib.import_module(package_name)
    stub = stub_imports(package_name)
    exports = {name for name, (module, _) in stub.items() if module != package_name}
    assert exports == set(package.__all__) - {"__version__"}
    submodules = {name for name, (module, _) in stub.items() if module == package_name}
    if package_name == "repro":
        root = pathlib.Path(package.__file__).parent
        assert submodules == {"api"} | {
            path.parent.name for path in root.glob("*/__init__.py")
        }
        for name in submodules:
            assert getattr(package, name) is sys.modules[f"repro.{name}"]
    else:
        assert submodules == set()


class TestLazyResults:
    def test_results_and_configs_round_trip_through_pickle(self):
        estimate = api.blocking(
            2, 2, 2, 1, traffic=api.UniformConfig(steps=40, seeds=(0,))
        )
        exact = api.exact_m(2, 2, 1, x=1, m_max=2)
        values = [
            estimate,
            exact,
            api.ExecConfig(precision=api.PrecisionConfig(half_width=0.02)),
            api.SearchConfig(kernel="batched"),
            api.HotspotConfig(zipf_s=1.5, seeds=(0, 1)),
            repro.CapacityResult.compute(repro.MulticastModel.MAW, n_ports=4, k=2),
        ]
        for value in values:
            assert pickle.loads(pickle.dumps(value)) == value
        assert estimate.meta is not None
        assert pickle.loads(pickle.dumps(estimate)).meta == estimate.meta

    def test_builtin_workloads_registered_in_a_fresh_interpreter(self):
        names = run_fresh(
            "import repro.api as api\nprint(','.join(sorted(api.workload_names())))"
        )
        assert names.split(",") == [
            "heavytail_fanout", "hotspot", "poisson_erlang", "trace", "uniform",
        ]


class TestDocstringCoverage:
    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_public_callables_documented(self, package_name):
        """Every exported class/function carries a docstring."""
        package = importlib.import_module(package_name)
        for name in package.__all__:
            member = getattr(package, name)
            if callable(member):
                assert member.__doc__, f"{package_name}.{name} lacks a docstring"
