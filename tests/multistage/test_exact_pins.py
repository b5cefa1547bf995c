"""The exact search pinned on literal results.

Each case's whole :class:`BlockableResult` -- verdict, states explored,
and the witness's connections, adversarial routes and victim request --
was computed once and written in as a literal, so a change to the
search that moves one state count or picks another witness fails here.
Every blockable witness is also re-checked through the object path:
:meth:`BlockableResult.replay` must end in a block, and the network's
own :meth:`ThreeStageNetwork.probe_cover` must find no cover for the
victim, so the search's int-level victim probe agrees with admission.

The signature digests hash ``canonical_signature()`` (with and without
wavelength symmetry) and ``state_signature()`` after every event of
seeded traffic replays, so the dedup keys the search runs on stay byte
for byte what they were, under both constructions and k = 1..3.
"""

from __future__ import annotations

import hashlib
from typing import Any

import pytest

from repro.core.models import Construction, MulticastModel
from repro.multistage.exhaustive import BlockableResult, is_blockable
from repro.multistage.network import ThreeStageNetwork
from repro.switching.generators import dynamic_traffic
from repro.switching.requests import MulticastConnection

MSW_DOM = Construction.MSW_DOMINANT
MAW_DOM = Construction.MAW_DOMINANT
MSW, MSDW, MAW = MulticastModel.MSW, MulticastModel.MSDW, MulticastModel.MAW


def _connection(connection: MulticastConnection) -> tuple:
    """``((port, wavelength), ((port, wavelength), ...))``, destinations sorted."""
    source = connection.source
    return (
        (source.port, source.wavelength),
        tuple(sorted((d.port, d.wavelength) for d in connection.destinations)),
    )


def outcome(result: BlockableResult) -> tuple:
    """The search's answer as plain tuples:
    ``(blockable, states, witness state, witness routes, victim)``."""
    state = result.witness_state
    request = result.witness_request
    return (
        result.blockable,
        result.states_explored,
        None if state is None else tuple(_connection(c) for c in state),
        result.witness_routes,
        None if request is None else _connection(request),
    )


#: name -> (is_blockable arguments, parent-computed outcome)
CASES: dict[str, tuple[dict[str, Any], tuple]] = {
    "v(2,2,2,1)": (
        dict(n=2, r=2, m=2, k=1),
        (True, 11, (((0, 0), ((0, 0),)), ((1, 0), ((2, 0),))),
         (((0, (0,)),), ((1, (1,)),)), ((2, 0), ((1, 0), (3, 0))))
    ),
    "v(2,2,2,1)/MSDW": (
        dict(n=2, r=2, m=2, k=1, model=MSDW),
        (True, 11, (((0, 0), ((0, 0),)), ((1, 0), ((2, 0),))),
         (((0, (0,)),), ((1, (1,)),)), ((2, 0), ((1, 0), (3, 0))))
    ),
    "v(2,2,2,1)/unicast": (
        dict(n=2, r=2, m=2, k=1, unicast_only=True),
        (True, 18, (((0, 0), ((0, 0),)), ((2, 0), ((2, 0),))),
         (((0, (0,)),), ((1, (1,)),)), ((1, 0), ((3, 0),)))
    ),
    "v(2,2,2,1)/reference": (
        dict(n=2, r=2, m=2, k=1, canonicalize=False),
        (True, 17, (((0, 0), ((0, 0),)), ((1, 0), ((2, 0),))),
         (((0, (0,)),), ((1, (1,)),)), ((2, 0), ((1, 0), (3, 0))))
    ),
    "v(2,2,3,1)": (
        dict(n=2, r=2, m=3, k=1),
        (False, 356, None, None, None)
    ),
    "v(2,2,3,1)/unicast": (
        dict(n=2, r=2, m=3, k=1, unicast_only=True),
        (False, 136, None, None, None)
    ),
    "v(2,2,3,1)/reference": (
        dict(n=2, r=2, m=3, k=1, canonicalize=False),
        (False, 1750, None, None, None)
    ),
    "v(2,2,2,2)/MAW": (
        dict(n=2, r=2, m=2, k=2, model=MAW),
        (True, 4,
         (((0, 0), ((0, 0),)), ((0, 1), ((0, 1),)), ((1, 0), ((1, 0),))),
         (((0, (0,)),), ((0, (0,)),), ((1, (0,)),)),
         ((2, 0), ((1, 1), (2, 0), (3, 0))))
    ),
    "v(2,2,1,2)/MAW/maw_dom": (
        dict(n=2, r=2, m=1, k=2, model=MAW, construction=MAW_DOM),
        (True, 3, (((0, 0), ((0, 0),)), ((0, 1), ((0, 1),))),
         (((0, (0,)),), ((0, (0,)),)), ((1, 0), ((1, 0), (2, 0), (3, 0))))
    ),
    "v(2,1,2,2)/MAW/maw_dom": (
        dict(n=2, r=1, m=2, k=2, model=MAW, construction=MAW_DOM),
        (False, 186, None, None, None)
    ),
    "v(3,2,2,1)/x2": (
        dict(n=3, r=2, m=2, k=1, x=2, state_budget=5000),
        (True, 3, (((0, 0), ((0, 0),)), ((1, 0), ((1, 0),))),
         (((0, (0,)),), ((1, (0,)),)),
         ((2, 0), ((2, 0), (3, 0), (4, 0), (5, 0))))
    ),
    "v(3,2,2,1)/x2/reference": (
        dict(n=3, r=2, m=2, k=1, x=2, state_budget=5000, canonicalize=False),
        (True, 3, (((0, 0), ((0, 0),)), ((1, 0), ((1, 0),))),
         (((0, (0,)),), ((1, (0,)),)),
         ((2, 0), ((2, 0), (3, 0), (4, 0), (5, 0))))
    ),
    "v(2,3,4,1)/budget": (
        dict(n=2, r=3, m=4, k=1, state_budget=50),
        (None, 51, None, None, None)
    ),
}


def _search(args: dict[str, Any]) -> BlockableResult:
    args = dict(args)
    n, r, m, k = (args.pop(name) for name in ("n", "r", "m", "k"))
    return is_blockable(n, r, m, k, **args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_pinned(name):
    args, expected = CASES[name]
    result = _search(args)
    assert outcome(result) == expected
    for field in ("n", "r", "m", "k"):
        assert getattr(result, field) == args[field]
    assert result.construction is args.get("construction", MSW_DOM)
    assert result.model is args.get("model", MSW)
    assert result.x == args.get("x", 1)


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, pinned) in CASES.items() if pinned[0])
)
def test_witness_blocks_through_the_network(name):
    args, _ = CASES[name]
    result = _search(args)
    net = result.replay()
    assert net.blocks == 1
    assert len(net.active_connections) == len(result.witness_state)
    assert net.probe_cover(result.witness_request) is None


# -- signatures ------------------------------------------------------------

#: v(n, r, m, k) = v(3, 2, 2, k) at x = 2: small m so setups block too
SIGNATURE_NRM = (3, 2, 2)
SIGNATURE_STEPS = 120
SIGNATURE_SEEDS = (0, 1)


def signature_digest(construction: Construction, k: int) -> str:
    """sha256 over every signature after every event, all three models.

    Midway through each stream middle 0 fails (its connections are
    drained and dropped), so the failure flag is in the hashed keys.
    """
    n, r, m = SIGNATURE_NRM
    digest = hashlib.sha256()
    for model in (MSW, MSDW, MAW):
        for seed in SIGNATURE_SEEDS:
            net = ThreeStageNetwork(
                n, r, m, k, construction=construction, model=model, x=2
            )
            live: dict[int, int] = {}  # stream id -> connection id
            events = dynamic_traffic(
                model, n * r, k, steps=SIGNATURE_STEPS, seed=seed
            )
            for step, event in enumerate(events):
                if step == SIGNATURE_STEPS // 2:
                    net.fail_middle(0, drain=True)
                    active = net.active_connections
                    live = {s: c for s, c in live.items() if c in active}
                if event.kind == "setup":
                    cid = net.try_connect(event.connection)
                    if cid is not None:
                        live[event.connection_id] = cid
                else:
                    cid = live.pop(event.connection_id, None)
                    if cid is not None:
                        net.disconnect(cid)
                digest.update(net.canonical_signature())
                digest.update(net.canonical_signature(wavelength_symmetry=True))
                digest.update(net.state_signature())
    return digest.hexdigest()


#: at k = 1 a MAW-dominant carrier has no choice, so the two
#: constructions hold the same states and hash alike
SIGNATURE_PINS: dict[tuple[Construction, int], str] = {
    (MAW_DOM, 1): "dde231522f0ab8de907bc9afcb057d46df6e60ba1cf2ae301261cd60a0ac6d0f",
    (MAW_DOM, 2): "b2a441e5b0b4215ce3246a4fbe0ea31449ffee6eb51f9f07c339de9a6255d88b",
    (MAW_DOM, 3): "5cc5b1b94c4b8e095bac5703a1c6eb8e52ac3e59e5d3ea4450ba29201f365e5e",
    (MSW_DOM, 1): "dde231522f0ab8de907bc9afcb057d46df6e60ba1cf2ae301261cd60a0ac6d0f",
    (MSW_DOM, 2): "1909694b167928e39c2e631b05114020e7b13291acb9d9912a9eb22c1379dfee",
    (MSW_DOM, 3): "1cfc04da860c6e49a9442e1e84bae0e933f1b3e66399eb120292a8e8907de5e6",
}


@pytest.mark.parametrize(
    "construction, k",
    sorted(SIGNATURE_PINS, key=lambda key: (key[0].value, key[1])),
    ids=lambda value: getattr(value, "value", value),
)
def test_signatures_pinned(construction, k):
    assert signature_digest(construction, k) == SIGNATURE_PINS[construction, k]
