"""The two fabric models and the Clos bit-identity pins.

Two families of guarantees live here:

1. **Fabric lookup** -- exactly ``clos`` and ``crossbar`` exist,
   unknown names fail with the uniform listing error, and geometry
   guards fire in the uniform style.

2. **Bit-identity pins** -- the Clos path must be indistinguishable
   from the engine before fabrics were named: golden cache-key
   digests, the golden adaptive stream key and round schedules, golden
   blocked counts, and the end bitplanes after a full replay (with the
   sha256 of their little-endian int64 packing) are all hardcoded from
   that code.  A change to any of these is a silent invalidation of
   every warm cache and golden value in the wild, which is exactly
   what the pins exist to catch.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import CLOS, fabric_names, fabric_status, get_fabric
from repro.engine.geometry import FabricGeometry
from repro.perf.batch import simulate_batch
from tests.curves import curve

C = Construction.MSW_DOMINANT
MSW = MulticastModel.MSW


# -- the two fabrics ---------------------------------------------------------


def test_builtin_fabrics_registered():
    assert fabric_names() == ["clos", "crossbar"]
    assert get_fabric("clos") is CLOS
    assert set(fabric_status()) == {"clos", "crossbar"}


def test_unknown_fabric_lists_registry():
    with pytest.raises(ValueError, match=r"unknown fabric 'mesh'; choose from: clos, crossbar$"):
        get_fabric("mesh")


def test_tokens_anchor_clos():
    assert get_fabric("clos").token() is None
    assert get_fabric("crossbar").token() == "crossbar"


# -- geometry guards ---------------------------------------------------------


def test_geometry_k_guard_fires_before_x():
    # Regression: k=0 used to die inside the x validation with a
    # confusing bound message; now the k guard fires first in the
    # uniform style.
    with pytest.raises(ValueError, match=r"k must be >= 1, got 0"):
        FabricGeometry(3, 3, 0, 4, construction=C, model=MSW, x=1)


def test_geometry_r_guard_fires_before_x():
    with pytest.raises(ValueError, match=r"r must be >= 1, got 0"):
        FabricGeometry(3, 0, 2, 4, construction=C, model=MSW, x=1)


@pytest.mark.parametrize("n", [0, -1])
def test_geometry_n_guard_fires_before_x(n):
    with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
        FabricGeometry(n, 3, 2, 4, construction=C, model=MSW, x=1)


def test_geometry_rejects_unknown_fabric():
    with pytest.raises(ValueError, match="unknown fabric"):
        FabricGeometry(3, 3, 2, 4, construction=C, model=MSW, x=1, fabric="mesh")


# -- Clos: golden bit-identity pins ------------------------------------------

GOLDEN_TRAFFIC_KEY = (
    "eed7f67b3cf368fc5a800e9678cf72a6a640b36e38e22cc34a903fc2099b777b"
)
GOLDEN_ROUND_KEY = (
    "1b3fee45773ac47c55f4e79a8b2341427414298282bb1a6ffe2041836064bb7c"
)
GOLDEN_STREAM_KEY = (
    "n=3|r=3|k=2|construction=MSW_DOMINANT|model=MSW|x=1|steps=150"
    "|max_fanout=None|schedule=1"
)
GOLDEN_ROUND0 = [
    (1470859603279129836, False),
    (1470859603279129836, True),
    (4151857129280367473, False),
    (4151857129280367473, True),
]
GOLDEN_ROUND1 = [
    (505717019273683216, False),
    (505717019273683216, True),
    (3375351269565341532, False),
    (3375351269565341532, True),
]
GOLDEN_BLOCKED = {1: 85, 2: 39, 3: 9, 4: 1, 6: 0}
GOLDEN_IN_BUSY_SHA = (
    "4836c3a145fb6963904974798ffab31328827ef2fa6610e0f1a14142eae57a58"
)
GOLDEN_OUT_BUSY_SHA = (
    "d94a51312eb099993a4fa0fa54bc26ed4f5e9bb4b15103a216af96a5c43699b5"
)
#: per m of GOLDEN_BLOCKED, ``PythonState.busy_planes``: ``in[g][w]``
#: middle masks and ``out[w][j]`` module masks
GOLDEN_END_PLANES = [
    ([[0, 1], [1, 0], [0, 1]], [[2], [7]]),
    ([[2, 1], [1, 0], [2, 3]], [[2, 3], [7, 7]]),
    ([[2, 5], [1, 0], [2, 7]], [[2, 3, 0], [7, 7, 3]]),
    ([[2, 5], [1, 0], [2, 7]], [[2, 3, 0, 0], [7, 7, 3, 0]]),
    ([[2, 5], [1, 0], [2, 7]], [[2, 3, 0, 0, 0, 0], [7, 7, 3, 0, 0, 0]]),
]


def test_clos_cache_keys_unchanged(tmp_path):
    from repro.analysis.montecarlo import _traffic_key
    from repro.perf.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    key = _traffic_key(cache, curve(3, 3, 2, steps=200), 4, 0, "bitmask")
    assert key == GOLDEN_TRAFFIC_KEY
    # The explicit Clos spelling addresses the same entry; the crossbar
    # gets a disjoint address.
    assert _traffic_key(
        cache, curve(3, 3, 2, steps=200, fabric="clos"), 4, 0, "bitmask"
    ) == key
    assert _traffic_key(
        cache, curve(3, 3, 2, steps=200, fabric="crossbar"), 4, 0, "bitmask"
    ) != key


def test_clos_round_keys_and_schedule_unchanged(tmp_path):
    from repro.perf.adaptive import PrecisionConfig, _round_key, round_specs, stream_key
    from repro.perf.cache import ResultCache

    precision = PrecisionConfig(half_width=0.01, min_rounds=2, max_rounds=64)
    cache = ResultCache(tmp_path / "cache")
    assert _round_key(
        cache, curve(3, 3, 2, steps=150), 4, 0, precision, "bitmask"
    ) == GOLDEN_ROUND_KEY
    key = stream_key(curve(3, 3, 2, steps=150))
    assert key == GOLDEN_STREAM_KEY
    assert stream_key(curve(3, 3, 2, steps=150, fabric="clos")) == key
    assert [
        (s.seed, s.antithetic) for s in round_specs(key, 0, precision)
    ] == GOLDEN_ROUND0
    assert [
        (s.seed, s.antithetic) for s in round_specs(key, 1, precision)
    ] == GOLDEN_ROUND1
    # The crossbar's schedule is derived from a disjoint key.
    other = stream_key(curve(3, 3, 2, steps=150, fabric="crossbar"))
    assert other == key + "|fabric=crossbar"


def test_clos_blocked_counts_unchanged():
    for m, blocked in GOLDEN_BLOCKED.items():
        cells = dict(simulate_batch(curve(3, 3, 2, steps=300), 0, (m,)))
        assert cells[m] == (154, blocked)
    # The explicit spelling is the same program.
    explicit = simulate_batch(
        curve(3, 3, 2, steps=300, fabric="clos"), 0, tuple(GOLDEN_BLOCKED),
    )
    assert dict(explicit) == {m: (154, b) for m, b in GOLDEN_BLOCKED.items()}


def test_clos_numpy_bitplanes_unchanged():
    """The end planes, and the sha256 pins of their int64 array layout.

    The pins were taken from ``[b, g, w]`` and zero-padded ``[b, j, w]``
    int64 arrays; packing the planes the same way must reproduce them.
    """
    from repro.engine.state import PythonState
    from repro.perf.batch import _replay, compile_stream

    ops = compile_stream(curve(3, 3, 2, steps=300), 0)
    m_values = tuple(GOLDEN_BLOCKED)
    geometries = tuple(
        FabricGeometry(3, 3, 2, m, construction=C, model=MSW, x=1)
        for m in m_values
    )
    state = PythonState(geometries)
    attempts, replications, unforked = _replay(ops, state, False, False)
    # lanes that never forked end in the lead's planes, held only there
    for b in unforked[1:]:
        state.copy_lane(unforked[0], b)
    assert attempts == 154
    assert [rep.blocked for rep in replications] == [85, 39, 9, 1, 0]
    planes = [state.busy_planes(b) for b in range(len(m_values))]
    assert planes == GOLDEN_END_PLANES

    def sha(words):
        packed = struct.pack(f"<{len(words)}q", *words)
        return hashlib.sha256(packed).hexdigest()

    m_max = max(m_values)
    in_words = [w for in_planes, _ in planes for row in in_planes for w in row]
    out_words = [
        out_planes[w][j] if j < m else 0
        for m, (_, out_planes) in zip(m_values, planes)
        for j in range(m_max)
        for w in range(2)
    ]
    assert sha(in_words) == GOLDEN_IN_BUSY_SHA
    assert sha(out_words) == GOLDEN_OUT_BUSY_SHA


# -- the crossbar fast path --------------------------------------------------


def test_crossbar_blocks_nothing():
    cells = simulate_batch(
        curve(3, 3, 2, steps=300, fabric="crossbar"), 0, (1, 2, 4)
    )
    for m, (attempts, blocked) in cells:
        assert attempts == 154
        assert blocked == 0


def test_crossbar_cost_is_flat_in_m():
    spec = get_fabric("crossbar")
    costs = {spec.cost(3, 3, m, 2, C, MSW) for m in (1, 4, 16)}
    assert len(costs) == 1
    assert costs.pop() > 0
