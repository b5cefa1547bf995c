"""The fabric-model registry -- the topology seam of the engine.

A *fabric model* is one switching-network family the engine can
replay traffic through: the paper's three-stage ``v(n, r, m, k)``
Clos, the single-stage nonblocking WDM crossbar it is compared
against (Section 2 / Table 1), or an AWG-based Clos variant whose
passive wavelength routers constrain which middle switch can reach
which output module (Ye & Lee, *AWG-based Non-blocking Clos
Networks*, arXiv:1308.4477).

Each registered :class:`FabricSpec` contributes the three things the
rest of the stack needs:

* **geometry** -- which :class:`~repro.engine.geometry.FabricGeometry`
  instances are legal (``validate_geometry``) and what the fabric
  costs in SOA crosspoints at that shape (``cost``);
* **admission program** -- either the full Clos middle-stage replay
  (optionally constrained by a static per-``(middle, wavelength)``
  reach rule that the fabric state seeds into its blocker
  bitplanes at construction), or the single-stage nonblocking fast
  path (``nonblocking=True``: every legal request is admitted, so the
  engine skips the replay entirely and the fabric doubles as a live
  zero-blocking oracle);
* **block-cause taxonomy** -- the subset of ``ALL_BLOCK_KINDS`` the
  fabric can produce (``block_kinds``), which ``repro.obs`` cause
  labels share.

The compatibility anchor mirrors the workload registry: the Clos
fabric's cache/stream-key ``token()`` is ``None``, so every cache
address, golden value and adaptive round schedule recorded before the
seam existed is still valid, and the Clos path through the seam is
bit-identical to the pre-refactor engine (asserted in
``tests/engine/test_fabrics.py``).

Registering a new fabric is one :func:`register_fabric` call; the name
then works everywhere -- ``FabricGeometry(fabric=...)``, the batch
engine, ``api.blocking``/``api.sweep``, ``--fabric`` on the CLI, the
``wdm-repro fabrics`` matrix and the ``topology`` bench section -- with
no consumer changes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import module_crosspoints, multistage_cost

__all__ = [
    "CLOS",
    "FabricSpec",
    "fabric_names",
    "fabric_status",
    "get_fabric",
    "register_fabric",
]

#: the Clos blocking-cause taxonomy (mirrors ``kernel.BLOCK_KINDS``;
#: stated here as plain strings so this module stays import-light).
_CLOS_KINDS = (
    "saturated_wavelength",
    "converter_exhaustion",
    "full_middles",
    "no_cover",
)

#: the wavelength-routed taxonomy: everything Clos can produce plus the
#: structural ``awg_no_path`` (a destination module no middle switch can
#: reach on the request's wavelength, however idle the fabric is).
_AWG_KINDS = _CLOS_KINDS + ("awg_no_path",)


@dataclass(frozen=True)
class FabricSpec:
    """One registered fabric model (see the module docstring).

    Attributes:
        name: registry tag; the ``--fabric`` / cache-token name.
        title: short human label for tables and reports.
        description: one-line summary shown by ``wdm-repro fabrics``.
        nonblocking: True for single-stage fabrics that admit every
            legal request -- the engine skips the middle-stage replay
            and records zero blocked events (the live oracle property).
        constructions: constructions the fabric supports; None = all.
        reach_rule: static wavelength-routing constraint, or None.
            ``reach_rule(j, sw, r, k)`` returns the bitmask of output
            modules middle ``j`` can *never* reach on source wavelength
            ``sw`` -- a pure function of the topology, independent of
            occupancy, which the fabric state ORs into its blocker
            bitplanes once at construction.
        block_kinds: the cause taxonomy this fabric can produce.
        cost_fn: ``(n, r, m, k, construction, model) -> crosspoints``.
    """

    name: str
    title: str
    description: str
    nonblocking: bool = False
    constructions: tuple[Construction, ...] | None = None
    reach_rule: Callable[[int, int, int, int], int] | None = None
    block_kinds: tuple[str, ...] = _CLOS_KINDS
    cost_fn: Callable[..., int] = field(default=lambda *a: 0, repr=False)

    # -- identity ------------------------------------------------------------

    def token(self) -> str | None:
        """The fabric's cache/stream-key identity.

        Clos returns None -- it contributes nothing to any key, so
        every pre-seam cache address and adaptive schedule keeps its
        value (the same anchor the uniform workload uses).  Every other
        fabric returns its name, so cached Clos results can never be
        served for a different topology (and vice versa).
        """
        return None if self.name == "clos" else self.name

    # -- geometry ------------------------------------------------------------

    def validate_geometry(self, geometry: Any) -> None:
        """Reject geometries this fabric cannot be built at."""
        if (
            self.constructions is not None
            and geometry.construction not in self.constructions
        ):
            allowed = ", ".join(c.name for c in self.constructions)
            raise ValueError(
                f"fabric {self.name!r} supports only the {allowed} "
                f"construction(s), got {geometry.construction.name}"
            )

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

    # -- admission program ---------------------------------------------------

    def middle_block_mask(self, j: int, sw: int, r: int, k: int) -> int:
        """Modules middle ``j`` can never reach on wavelength ``sw``."""
        if self.reach_rule is None:
            return 0
        return self.reach_rule(j, sw, r, k)

    def static_unreach(self, m: int, r: int, k: int) -> list[int] | None:
        """Per source wavelength, the modules *no* middle can reach.

        ``masks[sw]`` has bit ``p`` set when every middle ``j < m`` is
        statically blocked from module ``p`` on wavelength ``sw`` --
        the evidence behind the ``awg_no_path`` blocking kind.  None
        when the fabric has no static constraint.
        """
        if self.reach_rule is None:
            return None
        all_modules = (1 << r) - 1
        masks = []
        for sw in range(k):
            unreach = all_modules
            for j in range(m):
                unreach &= self.reach_rule(j, sw, r, k)
                if not unreach:
                    break
            masks.append(unreach)
        return masks


# -- the built-in fabric models ----------------------------------------------


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


def _awg_reach_rule(j: int, sw: int, r: int, k: int) -> int:
    """The cyclic AWG routing constraint of the Ye & Lee construction.

    A ``k``-port arrayed waveguide grating routes wavelength ``w``
    entering port ``a`` to port ``(a + w) mod k``: the passive device
    permutes, it never switches.  Building the middle stage's output
    fan-out from AWGs therefore pins which output modules middle ``j``
    can reach on a given carrier: module ``p`` is reachable on source
    wavelength ``sw`` iff ``(j + p) mod k == sw mod k``.  The returned
    mask has a bit per *unreachable* module -- zero when ``k == 1``
    (one wavelength routes everywhere), which is exactly why the
    ``awg_clos`` fabric degenerates to plain ``clos`` bit for bit at
    ``k = 1``.
    """
    mask = 0
    for p in range(r):
        if (j + p) % k != sw % k:
            mask |= 1 << p
    return mask


CLOS = FabricSpec(
    name="clos",
    title="three-stage Clos",
    description=(
        "the paper's v(n, r, m, k) three-stage network -- the full "
        "middle-stage admission replay (the legacy engine, bit-identical)"
    ),
    cost_fn=_clos_cost,
)

_CROSSBAR = FabricSpec(
    name="crossbar",
    title="single-stage WDM crossbar",
    description=(
        "the nonblocking N x N crossbar of Figs. 4/6/7 -- admits every "
        "legal request, blocking is exactly zero (the live oracle)"
    ),
    nonblocking=True,
    block_kinds=(),
    cost_fn=_crossbar_cost,
)

_AWG_CLOS = FabricSpec(
    name="awg_clos",
    title="AWG-routed Clos",
    description=(
        "three-stage Clos with passive AWG wavelength routing on the "
        "middle stage (Ye & Lee, arXiv:1308.4477) -- middle j reaches "
        "module p on wavelength w iff (j + p) mod k == w mod k"
    ),
    # AWGs route, they do not convert: the middle stage must pin the
    # carrier to the source wavelength, i.e. the MSW-dominant
    # construction.  MAW-dominant middles would convert freely, which
    # the passive device cannot do.
    constructions=(Construction.MSW_DOMINANT,),
    reach_rule=_awg_reach_rule,
    block_kinds=_AWG_KINDS,
    cost_fn=_clos_cost,
)


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, FabricSpec] = {}


def register_fabric(spec: FabricSpec) -> FabricSpec:
    """Add a fabric model to the registry (the plug-in seam).

    The spec's name becomes a valid ``FabricGeometry(fabric=...)``
    value, a ``--fabric`` choice, a ``wdm-repro fabrics`` row and a
    cache-key token -- no consumer changes needed, mirroring
    :func:`repro.workloads.register_workload`.
    """
    if spec.name in _REGISTRY:
        raise ValueError(f"fabric {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def fabric_names() -> list[str]:
    """Registered fabric names, sorted."""
    return sorted(_REGISTRY)


def get_fabric(name: str) -> FabricSpec:
    """The spec of ``name``; unknown names list the registry."""
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


register_fabric(CLOS)
register_fabric(_CROSSBAR)
register_fabric(_AWG_CLOS)
