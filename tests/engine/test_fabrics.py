"""The fabric-model registry and the Clos-through-the-seam bit-identity.

Two families of guarantees live here:

1. **Registry semantics** -- the three built-in fabrics register, unknown
   names fail with the uniform listing error, geometry guards fire in
   the uniform style, and the AWG fabric rejects constructions its
   passive routers cannot realize.

2. **Bit-identity pins** -- the Clos path *through* the fabric seam must
   be indistinguishable from the pre-seam engine: golden cache-key
   digests, the golden adaptive stream key and round schedules, golden
   blocked counts, and the end bitplanes after a full replay (with the
   sha256 of their little-endian int64 packing) are all hardcoded from
   the pre-seam code.  A change to
   any of these is a silent invalidation of every warm cache and golden
   value in the wild, which is exactly what the pins exist to catch.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.models import Construction, MulticastModel
from repro.engine.fabrics import (
    CLOS,
    FabricSpec,
    _REGISTRY,
    fabric_names,
    fabric_status,
    get_fabric,
    register_fabric,
)
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import ALL_BLOCK_KINDS, BLOCK_KINDS
from repro.engine.state import PythonState
from repro.perf.batch import replay_cell, simulate_batch
from tests.curves import curve

C = Construction.MSW_DOMINANT
MSW = MulticastModel.MSW


# -- registry ----------------------------------------------------------------


def test_builtin_fabrics_registered():
    assert fabric_names() == ["awg_clos", "clos", "crossbar"]
    assert get_fabric("clos") is CLOS
    assert set(fabric_status()) == {"awg_clos", "clos", "crossbar"}


def test_unknown_fabric_lists_registry():
    with pytest.raises(ValueError, match=r"unknown fabric 'mesh'; choose from: awg_clos, clos, crossbar"):
        get_fabric("mesh")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_fabric(CLOS)


def test_register_fabric_roundtrip():
    spec = FabricSpec(name="test_only", title="t", description="d")
    try:
        register_fabric(spec)
        assert get_fabric("test_only") is spec
        assert "test_only" in fabric_names()
    finally:
        del _REGISTRY["test_only"]


def test_tokens_anchor_clos():
    assert get_fabric("clos").token() is None
    assert get_fabric("crossbar").token() == "crossbar"
    assert get_fabric("awg_clos").token() == "awg_clos"


def test_block_kind_taxonomies():
    assert get_fabric("clos").block_kinds == BLOCK_KINDS
    assert get_fabric("crossbar").block_kinds == ()
    assert get_fabric("awg_clos").block_kinds == ALL_BLOCK_KINDS
    assert ALL_BLOCK_KINDS == BLOCK_KINDS + ("awg_no_path",)


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


def test_geometry_rejects_unknown_fabric():
    with pytest.raises(ValueError, match="unknown fabric"):
        FabricGeometry(3, 3, 2, 4, construction=C, model=MSW, x=1, fabric="mesh")


def test_awg_requires_msw_dominant():
    with pytest.raises(ValueError, match="MSW_DOMINANT"):
        FabricGeometry(
            3, 3, 2, 4,
            construction=Construction.MAW_DOMINANT,
            model=MulticastModel.MAW,
            x=1,
            fabric="awg_clos",
        )


# -- the AWG reach rule ------------------------------------------------------


def unreach_masks(fabric, m, r, k):
    """The ``awg_no_path`` evidence masks of one ``v(2, r, m, k)`` state."""
    geometry = FabricGeometry(
        2, r, k, m, construction=C, model=MSW, x=1, fabric=fabric
    )
    masks = PythonState([geometry]).static_unreach_masks
    return None if masks is None else masks[0]


def test_awg_reach_rule_matches_cyclic_router():
    spec = get_fabric("awg_clos")
    r, k = 6, 3
    for j in range(8):
        for sw in range(k):
            mask = spec.reach_rule(j, sw, r, k)
            for p in range(r):
                reachable = (j + p) % k == sw % k
                assert bool(mask & (1 << p)) == (not reachable)


def test_awg_k1_has_no_constraint():
    spec = get_fabric("awg_clos")
    for j in range(4):
        assert spec.reach_rule(j, 0, 5, 1) == 0
    assert unreach_masks("awg_clos", 3, 5, 1) == [0]


def test_static_unreach_is_intersection_over_middles():
    spec = get_fabric("awg_clos")
    m, r, k = 2, 6, 3
    masks = unreach_masks("awg_clos", m, r, k)
    assert masks is not None and len(masks) == k
    for sw in range(k):
        expect = (1 << r) - 1
        for j in range(m):
            expect &= spec.reach_rule(j, sw, r, k)
        assert masks[sw] == expect
    # With m >= k middles every residue class is covered: no module is
    # statically unreachable.
    assert unreach_masks("awg_clos", k, r, k) == [0] * k


def test_clos_has_no_static_masks():
    assert CLOS.reach_rule is None
    assert unreach_masks("clos", 4, 3, 2) is None


# -- Clos through the seam: golden bit-identity pins -------------------------

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
    # The explicit Clos spelling addresses the same entry; any other
    # fabric gets a disjoint address.
    assert _traffic_key(
        cache, curve(3, 3, 2, steps=200, fabric="clos"), 4, 0, "bitmask"
    ) == key
    assert _traffic_key(
        cache, curve(3, 3, 2, steps=200, fabric="awg_clos"), 4, 0, "bitmask"
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
    # A non-Clos fabric's schedule is derived from a disjoint key.
    other = stream_key(curve(3, 3, 2, steps=150, fabric="awg_clos"))
    assert other == key + "|fabric=awg_clos"


def test_clos_blocked_counts_unchanged():
    for m, blocked in GOLDEN_BLOCKED.items():
        cells = dict(simulate_batch(curve(3, 3, 2, steps=300), 0, (m,)))
        assert cells[m] == (154, blocked)
    # The explicit seam spelling is the same program.
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
    attempts, replications = _replay(ops, state, False, False)
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


# -- the AWG fabric's behaviour ----------------------------------------------

AWG_BLOCKED = {1: 125, 2: 97, 3: 85, 4: 71, 6: 65}


def test_awg_blocks_more_than_clos():
    m_values = tuple(AWG_BLOCKED)
    awg = dict(
        simulate_batch(
            curve(3, 3, 2, steps=300, fabric="awg_clos"), 0, m_values
        )
    )
    for m, blocked in AWG_BLOCKED.items():
        assert awg[m] == (154, blocked)
        assert blocked >= GOLDEN_BLOCKED[m]


def test_awg_equals_clos_at_k1():
    m_values = (1, 2, 3, 4)
    clos = simulate_batch(curve(3, 3, 1, steps=300), 0, m_values)
    awg = simulate_batch(
        curve(3, 3, 1, steps=300, fabric="awg_clos"), 0, m_values
    )
    assert awg == clos


def test_awg_no_path_cause_reported():
    outcome = replay_cell(
        curve(3, 3, 2, steps=300, fabric="awg_clos"), 1, 0,
        record_causes=True,
    )
    assert outcome.blocked == AWG_BLOCKED[1]
    structural = [c for c in outcome.causes if c["kind"] == "awg_no_path"]
    assert structural
    for cause in structural:
        assert cause["fabric"] == "awg_clos"
        assert cause["awg_unreachable_modules"]
        # Precedence: a structurally unreachable destination is never
        # misfiled as a cover failure.
        assert cause["kind"] in get_fabric("awg_clos").block_kinds


def test_awg_batch_equals_one_lane_replays():
    m_values = tuple(AWG_BLOCKED)
    spec = curve(3, 3, 2, steps=300, fabric="awg_clos")
    whole = simulate_batch(spec, 0, m_values)
    assert whole == [simulate_batch(spec, 0, (m,))[0] for m in m_values]


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
