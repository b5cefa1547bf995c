"""Cross-fabric properties of the topology zoo.

The fabric seam's observable contract, stated as properties rather than
pinned numbers (those live in ``tests/engine/test_fabrics.py``):

* the **crossbar is a live zero-blocking oracle**: it admits 100% of
  any legal stream from *every* registered workload model -- a single
  blocked event anywhere is a seam bug;
* **attempts are fabric-independent**: every fabric replays the same
  compiled stream, so the attempt count never varies across fabrics
  (only admission outcomes may);
* the **crossbar is the blocking floor**: no fabric blocks less on the
  identical stream;
* **a batch equals its cells per fabric**: a lockstep batch over the
  ``m`` column produces the cells the per-cell path does (the serial
  network on the Clos, a one-lane replay elsewhere);
* the **API surface round-trips**: ``FabricConfig`` validates eagerly,
  ``api.blocking``/``api.sweep`` accept both spellings, and adversarial
  probing refuses non-Clos fabrics instead of silently probing the
  wrong topology.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.montecarlo import _traffic_cell
from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import fabric_names, get_fabric
from repro.perf.batch import simulate_batch
from repro.workloads import generate_trace, workload_names

C = Construction.MSW_DOMINANT
MSW = MulticastModel.MSW

#: the generative workloads (everything but 'trace', which needs a
#: recorded file and is exercised separately below)
GENERATIVE = tuple(
    name for name in workload_names() if name != "trace"
)


def _workload(name: str | None, steps: int, seeds: tuple[int, ...]):
    if name is None or name == "uniform":
        # None exercises the legacy no-workload spelling.
        return None
    return api.make_workload(name, steps=steps, seeds=seeds)


@settings(max_examples=20, deadline=None)
@given(
    workload=st.sampled_from((None,) + GENERATIVE),
    model=st.sampled_from(list(MulticastModel)),
    m=st.integers(1, 5),
    seed=st.integers(0, 50),
)
def test_crossbar_admits_every_legal_stream(workload, model, m, seed):
    steps = 150
    cells = simulate_batch(
        3, 3, 2, C, model, 1, steps, None, seed, (m,), False,
        _workload(workload, steps, (seed,)), "crossbar",
    )
    [(_, (attempts, blocked))] = cells
    assert blocked == 0
    assert attempts > 0


@settings(max_examples=15, deadline=None)
@given(
    workload=st.sampled_from((None,) + GENERATIVE),
    m=st.integers(1, 5),
    seed=st.integers(0, 50),
)
def test_crossbar_is_the_blocking_floor(workload, m, seed):
    steps = 150
    config = _workload(workload, steps, (seed,))
    per_fabric = {
        fabric: simulate_batch(
            3, 3, 2, C, MSW, 1, steps, None, seed, (m,), False, config,
            fabric,
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
        str(path), MSW, 9, 2, steps=steps, seed=0, max_fanout=None,
    )
    assert count > 0
    replay = api.make_workload("trace", path=str(path), steps=steps, seeds=(0,))
    cells = simulate_batch(
        3, 3, 2, C, MSW, 1, steps, None, 0, (1, 3), False, replay,
        "crossbar",
    )
    for _, (attempts, blocked) in cells:
        assert attempts > 0
        assert blocked == 0


@pytest.mark.parametrize("fabric", ["clos", "awg_clos", "crossbar"])
def test_batch_equals_per_cell_runs_per_fabric(fabric):
    m_values = (1, 2, 3, 4)
    for seed in (0, 1):
        batch = simulate_batch(
            3, 3, 2, C, MSW, 1, 200, None, seed, m_values, False, None,
            fabric,
        )
        assert batch == [
            (m, _traffic_cell(
                3, 3, m, 2, C, MSW, 1, 200, seed, None, False, False, None,
                fabric,
            ))
            for m in m_values
        ]


# -- the API surface ---------------------------------------------------------


def test_fabric_config_validates_eagerly():
    assert api.FabricConfig().name == "clos"
    assert api.FabricConfig("awg_clos").name == "awg_clos"
    with pytest.raises(ValueError, match="unknown fabric"):
        api.FabricConfig("mesh")
    with pytest.raises(ValueError, match="unknown fabric"):
        api.blocking(3, 3, 2, 2, fabric="mesh")


def test_api_blocking_accepts_both_spellings():
    traffic = api.UniformConfig(steps=150, seeds=(0,))
    by_name = api.blocking(
        3, 3, 2, 2, model=MSW, traffic=traffic, fabric="crossbar"
    )
    by_config = api.blocking(
        3, 3, 2, 2, model=MSW, traffic=traffic,
        fabric=api.FabricConfig("crossbar"),
    )
    assert by_name.blocked == by_config.blocked == 0
    assert by_name.probability == 0.0


def test_api_sweep_threads_fabric():
    traffic = api.UniformConfig(steps=150, seeds=(0,))
    clos = api.sweep(3, 3, 2, [1, 2], model=MSW, traffic=traffic)
    awg = api.sweep(
        3, 3, 2, [1, 2], model=MSW, traffic=traffic, fabric="awg_clos"
    )
    assert [e.attempts for e in clos] == [e.attempts for e in awg]
    assert all(
        a.blocked >= c.blocked for a, c in zip(awg, clos)
    )


def test_adversarial_probing_is_clos_only():
    traffic = api.UniformConfig(steps=100, seeds=(0,), adversarial=True)
    with pytest.raises(ValueError, match="Clos fabric only"):
        api.sweep(
            3, 3, 2, [1, 2], model=MSW, traffic=traffic, fabric="awg_clos"
        )


def test_fabric_names_exported():
    assert api.fabric_names() == ["awg_clos", "clos", "crossbar"]
    assert "FabricConfig" in api.__all__
