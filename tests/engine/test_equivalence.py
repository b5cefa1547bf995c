"""Cross-layer property: the engine agrees with the serial network.

This is the drift the ``repro.engine`` extraction exists to prevent:
the lockstep replay (``replay_cell`` with ``record_causes=True``),
driving the engine's mask-level kernels on a fresh python state, must
make the same admission decisions *and* produce the same cause
evidence (labels plus raw masks) as
``ThreeStageNetwork.try_connect``/``explain_block`` replaying the same
traffic on its own state, for every model and both dominance variants,
on randomized traffic.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.multistage.network import ThreeStageNetwork
from repro.perf.batch import replay_cell
from repro.switching.generators import dynamic_traffic
from tests.curves import curve

STEPS = 120


@st.composite
def sizes(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    x = draw(st.integers(1, 3))
    assume(x in valid_x_range(n, r))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    return n, r, k, x, m, seed


def engine_trace(n, r, k, m, construction, model, x, seed):
    """The engine replay's blocked-request causes, in stream order."""
    return list(
        replay_cell(
            curve(n, r, k, construction=construction, model=model, x=x,
                  steps=STEPS),
            m, seed, record_causes=True,
        ).causes
    )


def network_trace(n, r, k, m, construction, model, x, seed):
    """The serial simulator's blocked-request causes, in stream order."""
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    rng = random.Random(seed)
    live = {}
    dropped = set()
    blocked = []
    for event in dynamic_traffic(model, n * r, k, steps=STEPS, seed=rng):
        if event.kind == "setup":
            cid = net.try_connect(event.connection)
            if cid is None:
                blocked.append(net.explain_block(event.connection))
                dropped.add(event.connection_id)
            else:
                live[event.connection_id] = cid
        else:
            if event.connection_id in dropped:
                dropped.discard(event.connection_id)
                continue
            net.disconnect(live.pop(event.connection_id))
    return blocked


@pytest.mark.parametrize("construction", list(Construction))
@pytest.mark.parametrize("model", list(MulticastModel))
class TestEngineMatchesNetwork:
    @settings(max_examples=10, deadline=None)
    @given(config=sizes())
    def test_classify_block_equals_explain_block(
        self, construction, model, config
    ):
        n, r, k, x, m, seed = config
        from_engine = engine_trace(
            n, r, k, m, construction, model, x, seed
        )
        from_network = network_trace(
            n, r, k, m, construction, model, x, seed
        )
        # Same requests block (bit-identical admission), and every
        # blocked request gets the same cause label and evidence masks.
        assert from_engine == from_network

