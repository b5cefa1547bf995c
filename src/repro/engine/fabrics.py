"""The two fabric models the engine replays traffic through.

The paper compares two networks (Section 2 / Table 1): its three-stage
``v(n, r, m, k)`` Clos and the single-stage nonblocking WDM crossbar.
Each is one frozen :class:`FabricSpec` that contributes:

* **admission program** -- the full Clos middle-stage replay, or the
  single-stage nonblocking fast path (``nonblocking=True``: every legal
  request is admitted, so the engine skips the replay entirely and the
  fabric doubles as a live zero-blocking oracle);
* **cost** -- what the fabric costs in SOA crosspoints at a shape
  (``cost``).

The Clos fabric's cache/stream-key ``token()`` is ``None``, as the
uniform workload's is, so every cache address, golden value and
adaptive round schedule recorded before fabrics were named is still
valid (asserted in ``tests/engine/test_fabrics.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import module_crosspoints, multistage_cost

__all__ = [
    "CLOS",
    "FabricSpec",
    "fabric_names",
    "fabric_status",
    "get_fabric",
]


@dataclass(frozen=True)
class FabricSpec:
    """One fabric model (see the module docstring).

    Attributes:
        name: the ``--fabric`` / cache-token name.
        description: one-line summary shown by ``wdm-repro fabrics``.
        cost_fn: ``(n, r, m, k, construction, model) -> crosspoints``.
        nonblocking: True for single-stage fabrics that admit every
            legal request -- the engine skips the middle-stage replay
            and records zero blocked events (the live oracle property).
    """

    name: str
    description: str
    cost_fn: Callable[..., int] = field(repr=False)
    nonblocking: bool = False

    def token(self) -> str | None:
        """The fabric's cache/stream-key identity.

        Clos returns None -- it contributes nothing to any key, so
        every earlier cache address and adaptive schedule keeps its
        value (the same anchor the uniform workload uses).  The
        crossbar returns its name, so cached Clos results can never be
        served for it (and vice versa).
        """
        return None if self.name == "clos" else self.name

    def cost(
        self,
        n: int,
        r: int,
        m: int,
        k: int,
        construction: Construction = Construction.MSW_DOMINANT,
        model: MulticastModel = MulticastModel.MSW,
    ) -> int:
        """SOA crosspoint count at shape ``v(n, r, m, k)`` (Table 1)."""
        return self.cost_fn(n, r, m, k, construction, model)


def _clos_cost(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
) -> int:
    return multistage_cost(n, r, m, k, construction, model).crosspoints


def _crossbar_cost(
    n: int,
    r: int,
    m: int,
    k: int,
    construction: Construction,
    model: MulticastModel,
) -> int:
    # One flat N x N module over all N = n*r terminals; m is meaningless
    # for a single-stage fabric (Figs. 4/6/7, Table 1).
    return module_crosspoints(model, n * r, n * r, k)


CLOS = FabricSpec(
    name="clos",
    description=(
        "the paper's v(n, r, m, k) three-stage network -- the full "
        "middle-stage admission replay"
    ),
    cost_fn=_clos_cost,
)

_REGISTRY: dict[str, FabricSpec] = {
    "clos": CLOS,
    "crossbar": FabricSpec(
        name="crossbar",
        description=(
            "the nonblocking N x N crossbar of Figs. 4/6/7 -- admits every "
            "legal request, blocking is exactly zero (the live oracle)"
        ),
        nonblocking=True,
        cost_fn=_crossbar_cost,
    ),
}


def fabric_names() -> list[str]:
    """The fabric names, sorted."""
    return sorted(_REGISTRY)


def get_fabric(name: str) -> FabricSpec:
    """The spec of ``name``; unknown names list the fabrics."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(fabric_names())
        raise ValueError(
            f"unknown fabric {name!r}; choose from: {known}"
        ) from None


def fabric_status() -> dict[str, str]:
    """Per-fabric one-line description (the CLI matrix's first column)."""
    return {
        name: _REGISTRY[name].description for name in fabric_names()
    }
