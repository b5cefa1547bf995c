"""Serial routing trajectories pinned as sha256 digests.

Each case replays fixed traffic streams through one
:class:`ThreeStageNetwork` configuration and hashes what the network
decided at every setup: the admitted connection's ``RoutedBranch``
tuples (middles, first-stage wavelengths, deliveries), or the blocked
request's ``explain_block`` dict.  The final state -- raw
``state_signature()``, ``wavelength_usage()`` and
``total_conversions()`` -- closes the digest.  The digests were
computed once and written in as literals, so any change to the
network's occupancy bookkeeping that moves one middle choice, one
wavelength pick or one blocking-cause field fails here, under both
constructions and every model.

The shapes sit in the blocking regime, so both the admit path and the
block path run in every case.
"""

from __future__ import annotations

import hashlib
from typing import Any

import pytest

from repro.core.models import Construction, MulticastModel
from repro.multistage.network import ThreeStageNetwork
from repro.switching.generators import dynamic_traffic

MSW_DOM = Construction.MSW_DOMINANT
MAW_DOM = Construction.MAW_DOMINANT
MSW, MSDW, MAW = MulticastModel.MSW, MulticastModel.MSDW, MulticastModel.MAW

#: v(n, r, m, k) per construction at x = 2, small enough m to block
#: often; MAW-dominant gets k = 3 so its first-fit carriers have real
#: choices to make
SHAPES = {MSW_DOM: (3, 3, 3, 2), MAW_DOM: (3, 3, 2, 3)}
STEPS = 300
SEEDS = (0, 1)


def _record(digest: Any, record: Any) -> None:
    digest.update(repr(record).encode() + b"\n")


def _setup(net: ThreeStageNetwork, request: Any, digest: Any) -> int | None:
    """Try one setup and hash the decision; returns the connection id."""
    cid = net.try_connect(request)
    if cid is None:
        _record(digest, ("block", sorted(net.explain_block(request).items())))
        return None
    branches = net.active_connections[cid].branches
    _record(
        digest,
        ("admit", tuple((b.middle, b.in_wavelength, b.deliveries) for b in branches)),
    )
    return cid


def trajectory(
    construction: Construction,
    model: MulticastModel,
    *,
    fail: tuple[int, int, int] | None = None,
) -> tuple[str, int, int]:
    """Digest of every routing decision over the pinned streams.

    ``fail = (step, middle, repair_step)`` drains ``middle`` at event
    ``step`` of each stream, re-routes the drained requests, and
    repairs the middle at ``repair_step``.  Returns
    ``(hex digest, admits, blocks)``.
    """
    n, r, m, k = SHAPES[construction]
    digest = hashlib.sha256()
    admits = blocks = 0
    for seed in SEEDS:
        net = ThreeStageNetwork(
            n, r, m, k,
            construction=construction, model=model, x=2,
        )
        live: dict[int, int] = {}  # stream id -> connection id
        events = dynamic_traffic(model, n * r, k, steps=STEPS, seed=seed)
        for step, event in enumerate(events):
            if fail is not None and step == fail[0]:
                owner = {cid: sid for sid, cid in live.items()}
                before = set(net.active_connections)
                drained = net.fail_middle(fail[1], drain=True)
                gone = sorted(before - set(net.active_connections))
                _record(digest, ("fail", fail[1], gone))
                for cid, request in zip(gone, drained):
                    sid = owner[cid]
                    del live[sid]
                    new = _setup(net, request, digest)
                    if new is not None:
                        live[sid] = new
            if fail is not None and step == fail[2]:
                net.repair_middle(fail[1])
                _record(digest, ("repair", fail[1]))
            if event.kind == "setup":
                cid = _setup(net, event.connection, digest)
                if cid is None:
                    blocks += 1
                else:
                    admits += 1
                    live[event.connection_id] = cid
            else:
                cid = live.pop(event.connection_id, None)
                if cid is not None:
                    net.disconnect(cid)
        net.check_invariants()
        _record(
            digest,
            (
                "final",
                net.state_signature().hex(),
                net.wavelength_usage(),
                net.total_conversions(),
            ),
        )
    return digest.hexdigest(), admits, blocks


CASES: dict[str, dict[str, Any]] = {
    "msw_dom/MSW": dict(construction=MSW_DOM, model=MSW),
    "msw_dom/MSDW": dict(construction=MSW_DOM, model=MSDW),
    "msw_dom/MAW": dict(construction=MSW_DOM, model=MAW),
    **{
        f"maw_dom/{model.name}/first_fit": dict(
            construction=MAW_DOM, model=model
        )
        for model in (MSW, MSDW, MAW)
    },
    "fail_repair/msw_dom/MSW": dict(
        construction=MSW_DOM, model=MSW, fail=(120, 1, 200)
    ),
    "fail_repair/maw_dom/MAW": dict(
        construction=MAW_DOM, model=MAW, fail=(120, 1, 200)
    ),
}

PINS = {
    "fail_repair/maw_dom/MAW": "0b75873132a72fa3123161e75b7cabad12ac81ce2c3f006a4aad5f6aa6e2a8a3",
    "fail_repair/msw_dom/MSW": "b6da3ef77dbfc90c66430829de4666bc76cd6efd49113dd41fff163f0552e91c",
    "maw_dom/MAW/first_fit": "fd5f914f1d88eab49828e9076e96e8ad9d38b71d81216880c22ec31f9abf5ebb",
    "maw_dom/MSDW/first_fit": "a333bd1141ae97ae4516ed3b03c6bbfee4561f09846638b35b1bc477e33257d5",
    "maw_dom/MSW/first_fit": "2b598a99057e5f9547ecdd5ee5c150e3061ddd1f052e87255f7ddfd4cd0f62fb",
    "msw_dom/MAW": "277908f6dea1d46bcd3ac02f9218169b6b52827575f3a87a8604b61e2310e48a",
    "msw_dom/MSDW": "4e792af5ab5e954b18a557fc60e1b9db356b09ebf3bdd299fff905f06a04c139",
    "msw_dom/MSW": "aae3b72743ce0ef9a31f493c9c431640325894c1304e5aa35fb5df95cb859e78",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_routing_trajectory_pinned(name):
    digest, admits, blocks = trajectory(**CASES[name])
    assert admits > 0 and blocks > 0, "shape must exercise admit and block"
    assert digest == PINS[name]
