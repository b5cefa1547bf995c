"""Cross-fabric properties of the Clos and the crossbar oracle.

The two fabrics' observable contract, stated as properties rather than
pinned numbers (those live in ``tests/engine/test_fabrics.py``):

* the **crossbar is a live zero-blocking oracle**: it admits 100% of
  any legal stream from *every* registered workload model -- a single
  blocked event anywhere is a bug;
* **attempts are fabric-independent**: both fabrics replay the same
  compiled stream, so the attempt count never varies across fabrics
  (only admission outcomes may);
* the **crossbar is the blocking floor**: the Clos never blocks less on
  the identical stream;
* **a batch equals its cells per fabric**: a lockstep batch over the
  ``m`` column produces the cells of one-``m`` bitmask units (the
  serial network on the Clos, the nonblocking count on the crossbar),
  for every workload, model, construction and antithetic side;
* the **API surface round-trips**: an unknown fabric name is refused
  before any cell runs, and ``api.blocking``/``api.sweep`` take a
  fabric name.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis import montecarlo
from repro.analysis.montecarlo import _traffic_column
from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import fabric_names
from repro.perf.batch import simulate_batch
from repro.workloads import generate_trace, workload_names
from tests.curves import curve

MSW = MulticastModel.MSW

#: the generative workloads (everything but 'trace', which needs a
#: recorded file and is exercised separately below)
GENERATIVE = tuple(
    name for name in workload_names() if name != "trace"
)


def _workload(name: str, steps: int, seeds: tuple[int, ...]):
    return api.make_workload(name, steps=steps, seeds=seeds)


@settings(max_examples=20, deadline=None)
@given(
    workload=st.sampled_from(GENERATIVE),
    model=st.sampled_from(list(MulticastModel)),
    m=st.integers(1, 5),
    seed=st.integers(0, 50),
)
def test_crossbar_admits_every_legal_stream(workload, model, m, seed):
    steps = 150
    spec = curve(
        3, 3, 2, model=model, steps=steps,
        workload=_workload(workload, steps, (seed,)), fabric="crossbar",
    )
    cells = simulate_batch(spec, seed, (m,))
    [(_, (attempts, blocked))] = cells
    assert blocked == 0
    assert attempts > 0


@settings(max_examples=15, deadline=None)
@given(
    workload=st.sampled_from(GENERATIVE),
    m=st.integers(1, 5),
    seed=st.integers(0, 50),
)
def test_crossbar_is_the_blocking_floor(workload, m, seed):
    steps = 150
    config = _workload(workload, steps, (seed,))
    per_fabric = {
        fabric: simulate_batch(
            curve(3, 3, 2, steps=steps, workload=config, fabric=fabric),
            seed, (m,),
        )[0][1]
        for fabric in fabric_names()
    }
    attempts = {cell[0] for cell in per_fabric.values()}
    # Shared compiled stream: the attempt count is fabric-independent.
    assert len(attempts) == 1
    floor = per_fabric["crossbar"][1]
    assert floor == 0
    for fabric, (_, blocked) in per_fabric.items():
        assert blocked >= floor


def test_crossbar_admits_recorded_traces(tmp_path):
    path = tmp_path / "trace.jsonl"
    steps = 200
    count = generate_trace(
        api.make_workload("hotspot", steps=steps, seeds=(0,), zipf_s=1.5),
        str(path), MSW, 9, 2, seed=0,
    )
    assert count > 0
    replay = api.make_workload("trace", path=str(path), steps=steps, seeds=(0,))
    cells = simulate_batch(
        curve(3, 3, 2, steps=steps, workload=replay, fabric="crossbar"),
        0, (1, 3),
    )
    for _, (attempts, blocked) in cells:
        assert attempts > 0
        assert blocked == 0


@pytest.mark.parametrize("fabric", ["clos", "crossbar"])
def test_batch_equals_per_cell_runs_per_fabric(tmp_path, fabric):
    m_values = (1, 2, 3, 4)
    for model in MulticastModel:
        path = str(tmp_path / f"{model.value}.jsonl")
        generate_trace(
            api.make_workload("hotspot", steps=120), path, model, 9, 2, seed=5
        )
        workloads = [api.make_workload(name) for name in GENERATIVE]
        workloads.append(api.make_workload("trace", path=path))
        for workload, construction in product(workloads, Construction):
            spec = curve(
                3, 3, 2, construction=construction, model=model, steps=120,
                workload=workload, fabric=fabric,
            )
            for seed, antithetic in product((0, 1), (False, True)):
                batch = simulate_batch(spec, seed, m_values, antithetic)
                assert batch == [
                    cell
                    for m in m_values
                    for cell in _traffic_column(spec, seed, (m,), antithetic)
                ]


# -- the API surface ---------------------------------------------------------


def test_fabric_config_validates_eagerly(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran for an unknown fabric")

    monkeypatch.setattr(montecarlo, "_traffic_cell", no_cells)
    monkeypatch.setattr(montecarlo, "simulate_batch", no_cells)
    for kernel in ("bitmask", "batched"):
        search = api.SearchConfig(kernel=kernel)
        with pytest.raises(ValueError, match="unknown fabric 'mesh'"):
            api.blocking(3, 3, 2, 2, fabric="mesh", search=search)
        with pytest.raises(ValueError, match="unknown fabric 'mesh'"):
            api.sweep(3, 3, 2, [1, 2], fabric="mesh", search=search)


def test_api_blocking_accepts_both_spellings():
    """The Clos is the default and the explicit ``"clos"``."""
    traffic = api.UniformConfig(steps=150, seeds=(0,))
    by_name = api.blocking(
        3, 3, 2, 2, model=MSW, traffic=traffic, fabric="crossbar"
    )
    assert by_name.blocked == 0
    assert by_name.probability == 0.0
    default = api.blocking(3, 3, 2, 2, model=MSW, traffic=traffic)
    explicit = api.blocking(
        3, 3, 2, 2, model=MSW, traffic=traffic, fabric="clos"
    )
    assert (explicit.attempts, explicit.blocked) == (
        default.attempts, default.blocked
    )
    assert explicit.attempts == by_name.attempts


def test_api_sweep_threads_fabric():
    traffic = api.UniformConfig(steps=150, seeds=(0,))
    clos = api.sweep(3, 3, 2, [1, 2], model=MSW, traffic=traffic)
    crossbar = api.sweep(
        3, 3, 2, [1, 2], model=MSW, traffic=traffic, fabric="crossbar"
    )
    assert [e.attempts for e in clos] == [e.attempts for e in crossbar]
    assert any(e.blocked for e in clos)
    assert all(e.blocked == 0 for e in crossbar)


def test_fabric_names_exported():
    assert api.fabric_names() == ["clos", "crossbar"]
    assert "fabric_names" in api.__all__
    assert "FabricConfig" not in api.__all__
