"""Discrete-event simulator of a three-stage WDM multicast network.

State model
-----------

The simulator tracks exactly the resources the paper's proofs count:

* ``in_mid[g, j, w]``  -- wavelength ``w`` busy on the fiber from input
  module ``g`` to middle module ``j``;
* ``mid_out[j, p, w]`` -- wavelength ``w`` busy on the fiber from middle
  module ``j`` to output module ``p``;
* per-endpoint usage of the network's external input/output wavelength
  channels.

Modules themselves are multicast-capable nonblocking crossbars (the
paper's assumption), so module-internal routing never blocks; all
contention lives on the inter-stage fibers.

The fiber occupancy is one B = 1 :class:`repro.engine.state.PythonState`
-- the same bitplanes the batched replay runs on, so the serial
simulator is a batch of one.  Admission is one call of the engine's
``probe_cover`` on that state's ``setup_views`` (after
``free_middles``), the same call the batched replay makes per setup;
``connect``/``disconnect`` commit and release through its
``allocate``/``free``, :meth:`ThreeStageNetwork.explain_block` is the
engine's ``block_cause`` on those views, and
:meth:`ThreeStageNetwork.fiber_masks` reads it back per fiber.
Endpoint usage is two plain int masks (bit ``port * k + wavelength``).
The network itself keeps only connection bookkeeping: one record per
live connection -- the request, its input module, the engine's undo
branches and its destination-endpoint bits -- plus forced covers,
failure/repair and signatures.  :class:`RoutedConnection` objects are
built from a record only when something reads them
(:attr:`~ThreeStageNetwork.active_connections`, the conversion counts,
the invariant check, ``fail_middle`` and the obs admit hook).

Wavelength discipline
---------------------

* **MSW-dominant construction**: a connection sourced on wavelength
  ``lambda`` uses ``lambda`` on every first- and second-stage fiber it
  crosses (the input and middle modules are MSW and cannot convert).
  The output module then delivers per the network model (converting if
  the network model is MSDW/MAW).
* **MAW-dominant construction**: first- and second-stage fibers may use
  any free wavelength (the MAW modules convert at will).  If the
  network model is MSW, the fiber into each output module must carry
  the destinations' wavelength, because the MSW output module cannot
  convert -- exactly the distinction Fig. 10 illustrates.

Routing uses the x-middle-switch strategy via
:func:`repro.engine.kernel.probe_cover` (Lemma 4's cover search,
:func:`repro.multistage.routing.find_cover_bits`, unless one middle
reaches every requested module); a request raises
:class:`BlockedError` only when *no* set of at most ``x`` available
middle switches can reach all requested output modules, so a network
sized by Theorem 1/2 must never raise under legal traffic.  Routing
is first-fit, as in the batched replay: candidate middles in ascending
index order, and each MAW-dominant carrier the lowest free wavelength.
The theorems hold for any choice within the <=x strategy, and
MAW-dominant admission reads only whether a fiber is full, so the
carrier pick never changes an admit or block decision.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import NoReturn

from repro import obs as _obs
from repro.combinatorics.multiset import DestinationMultiset
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import is_nonblocking, valid_x_range
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import block_cause, free_middles, probe_cover, reach_map
from repro.engine.state import Branches, PythonState
from repro.multistage.routing import CoverSearch, iter_bits, mask_of
from repro.multistage.topology import ThreeStageTopology
from repro.switching.requests import Endpoint, MulticastConnection
from repro.switching.validity import ValidityError, check_connection

__all__ = ["BlockedError", "RoutedBranch", "RoutedConnection", "ThreeStageNetwork"]


class BlockedError(RuntimeError):
    """No admissible set of middle switches can realize the request.

    ``args`` is ``(request, x)``; the message is built only when read,
    since :meth:`ThreeStageNetwork.try_connect` discards it.
    """

    def __str__(self) -> str:
        request, x = self.args
        cover = f"no <= {x}-middle cover among the available middles"
        return f"request {request} blocked: {cover}"


def _permute_wavelengths(mask: int, perm: tuple[int, ...]) -> int:
    """Relabel a wavelength mask: bit ``i`` of the result is old bit ``perm[i]``."""
    out = 0
    for i, w in enumerate(perm):
        if mask >> w & 1:
            out |= 1 << i
    return out


@cache
def _spread_table(field: int) -> tuple[int, ...]:
    """Per byte value, its bits moved to stride ``field``: bit ``i`` to ``i * field``."""
    return tuple(
        sum(1 << (i * field) for i in range(8) if byte >> i & 1)
        for byte in range(256)
    )


def _cover_lists(cover: dict[int, int]) -> dict[int, list[int]]:
    """A bitmask cover as ``{middle: [output modules]}``."""
    return {j: list(iter_bits(bits)) for j, bits in cover.items()}


@dataclass(frozen=True)
class RoutedBranch:
    """One middle switch's share of a routed connection.

    Attributes:
        middle: index of the middle module.
        in_wavelength: wavelength used on the input-module -> middle fiber.
        deliveries: ``(output_module, wavelength)`` per covered module,
            the wavelength being the one on the middle -> output fiber.
    """

    middle: int
    in_wavelength: int
    deliveries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RoutedConnection:
    """A live connection: the request plus the resources it holds."""

    connection_id: int
    request: MulticastConnection
    input_module: int
    branches: tuple[RoutedBranch, ...]

    @property
    def middles_used(self) -> tuple[int, ...]:
        """Indices of the middle switches carrying this connection."""
        return tuple(branch.middle for branch in self.branches)


class ThreeStageNetwork:
    """A ``v(n, r, m, k)`` WDM multicast network with live routing state."""

    def __init__(
        self,
        n: int,
        r: int,
        m: int,
        k: int,
        *,
        construction: Construction = Construction.MSW_DOMINANT,
        model: MulticastModel = MulticastModel.MSW,
        x: int | None = None,
        debug_checks: bool = False,
    ):
        """Build an idle network.

        Args:
            n, r, m, k: topology parameters (Fig. 8).
            construction: MSW-dominant or MAW-dominant (Section 3.1).
            model: the network's multicast model; the output stage runs
                under this model.
            x: routing parameter -- max middle switches per connection.
                Defaults to the largest legal value ``min(n-1, r)`` (the
                most permissive routing; pass the theorem's optimal x to
                study the bounds).
            debug_checks: opt-in per-event self-verification -- when
                True, :meth:`check_invariants` runs after every
                ``connect``/``disconnect``, so any state leak surfaces at
                the exact event that caused it.  The scan is O(state), so
                it is off by default.  Explicit :meth:`check_invariants`
                calls always run regardless.
        """
        self.topology = ThreeStageTopology(n, r, m, k)
        self.construction = construction
        self.model = model
        legal_x = valid_x_range(n, r)
        self.x = legal_x[-1] if x is None else x
        # The geometry validates x (same message as before) and is the
        # engine-facing identity of this fabric.
        self.geometry = FabricGeometry(
            n=n, r=r, k=k, m=m,
            construction=construction, model=model, x=self.x,
        )
        self.debug_checks = debug_checks
        # The fiber occupancy (and the failed-middle mask) live in the
        # engine state; endpoint usage is bit ``port * k + wavelength``.
        self._state = PythonState((self.geometry,))
        self._input_used = 0
        self._output_used = 0
        # Per live connection id: (request, input module, the engine's
        # undo branches, destination-endpoint bits).
        self._live: dict[int, tuple[MulticastConnection, int, Branches, int]] = {}
        self._next_id = 0
        self.setups = 0
        self.teardowns = 0
        self.blocks = 0

    # -- inspection -------------------------------------------------------

    @property
    def active_connections(self) -> dict[int, RoutedConnection]:
        """Live connections by id, each built from its record on this read.

        A new dict of new :class:`RoutedConnection` objects per read;
        repeated reads of an unchanged network compare equal.
        """
        return {cid: self._routed(cid) for cid in self._live}

    def _routed(self, connection_id: int) -> RoutedConnection:
        """The live connection ``connection_id`` as a :class:`RoutedConnection`."""
        request, g, undo, _ = self._live[connection_id]
        sw = request.source.wavelength
        if self._state.msw_dominant:
            # The carrier is pinned to the source wavelength end to end.
            branches = tuple(
                RoutedBranch(j, sw, tuple([(p, sw) for p in iter_bits(assigned)]))
                for j, assigned in undo
            )
        else:
            branches = tuple(RoutedBranch(*branch) for branch in undo)
        return RoutedConnection(connection_id, request, g, branches)

    def is_provably_nonblocking(self, *, corrected: bool = True) -> bool:
        """Does this network's ``m`` meet the sufficient bound at this ``x``?

        Args:
            corrected: if True (default), use the model-aware bound of
                :mod:`repro.core.corrected` -- for MSW-dominant networks
                under MSDW/MAW models this is strictly stronger than the
                paper's Theorem 1, whose reduction misses the k-fold
                output-side interference (see that module's docstring and
                :func:`repro.multistage.adversary.demonstrate_theorem1_gap`).
                With ``corrected=False``, check the paper's theorem as
                printed.
        """
        if corrected:
            from repro.core.corrected import is_nonblocking_corrected

            return is_nonblocking_corrected(
                self.topology.m,
                self.topology.n,
                self.topology.r,
                self.topology.k,
                self.construction,
                self.model,
                self.x,
            )
        return is_nonblocking(
            self.topology.m,
            self.topology.n,
            self.topology.r,
            self.topology.k,
            self.construction,
            self.x,
        )

    def _check_index(self, name: str, value: int, bound: int) -> None:
        """Reject a middle/wavelength index outside ``[0, bound)``."""
        if not 0 <= value < bound:
            raise ValueError(f"{name} {value} outside [0, {bound})")

    def fiber_masks(self) -> tuple[list[list[int]], list[list[int]]]:
        """The per-fiber wavelength masks ``(in_mid, mid_out)`` (a copy).

        Bit ``w`` of ``in_mid[g][j]`` says wavelength ``w`` is busy on the
        fiber from input module ``g`` to middle ``j``; bit ``w`` of
        ``mid_out[j][p]``, on the fiber from middle ``j`` to output
        module ``p`` -- the resources the paper's proofs count.
        """
        topo = self.topology
        in_planes, out_planes = self._state.busy_planes()
        in_mid = [[0] * topo.m for _ in range(topo.r)]
        mid_out = [[0] * topo.r for _ in range(topo.m)]
        for row, planes in zip(in_mid, in_planes):
            for w, plane in enumerate(planes):
                for j in iter_bits(plane):
                    row[j] |= 1 << w
        for w, plane in enumerate(out_planes):
            for j, mask in enumerate(plane):
                for p in iter_bits(mask):
                    mid_out[j][p] |= 1 << w
        return in_mid, mid_out

    def destination_multiset(self, middle: int) -> DestinationMultiset:
        """The paper's ``M_j`` for middle switch ``middle`` (eq. (2)).

        Multiplicity of output module ``p`` = busy wavelengths on the
        fiber ``middle -> p``.
        """
        self._check_index("middle", middle, self.topology.m)
        return DestinationMultiset(
            (mask.bit_count() for mask in self.fiber_masks()[1][middle]),
            self.topology.k,
        )

    def destination_set(self, middle: int, wavelength: int) -> frozenset[int]:
        """MSW-dominant per-wavelength destination set of a middle switch."""
        return frozenset(iter_bits(self.destination_mask(middle, wavelength)))

    def destination_mask(self, middle: int, wavelength: int) -> int:
        """Bitmask form of :meth:`destination_set` (bit ``p`` = busy fiber)."""
        self._check_index("middle", middle, self.topology.m)
        self._check_index("wavelength", wavelength, self.topology.k)
        return self._state.busy_planes()[1][wavelength][middle]

    def conversions_of(self, connection_id: int) -> int:
        """Wavelength conversions a live connection undergoes end to end.

        Counts carrier changes at the input module (source wavelength to
        first-stage fiber), the middle modules (first- to second-stage
        fiber) and the output modules (second-stage fiber to destination
        endpoints).  Under the MSW-dominant construction with the MSW
        model this is always zero; the MAW-dominant construction and the
        stronger models spend converters for their flexibility -- the
        trade-off Section 2.3.2 prices.
        """
        routed = self._routed(connection_id)
        source_wavelength = routed.request.source.wavelength
        by_module: dict[int, list[int]] = defaultdict(list)
        for destination in routed.request.destinations:
            by_module[self.topology.output_module_of(destination.port)].append(
                destination.wavelength
            )
        conversions = 0
        for branch in routed.branches:
            if branch.in_wavelength != source_wavelength:
                conversions += 1
            for p, out_wavelength in branch.deliveries:
                if out_wavelength != branch.in_wavelength:
                    conversions += 1
                conversions += sum(
                    1 for v in by_module[p] if v != out_wavelength
                )
        return conversions

    def total_conversions(self) -> int:
        """Sum of :meth:`conversions_of` over all live connections."""
        return sum(self.conversions_of(cid) for cid in self._live)

    def link_utilization(self) -> dict[str, float]:
        """Fraction of busy wavelength channels per inter-stage gap."""
        topo = self.topology
        cells = topo.r * topo.m * topo.k
        in_planes, out_planes = self._state.busy_planes()
        busy_in = sum(plane.bit_count() for planes in in_planes for plane in planes)
        busy_out = sum(mask.bit_count() for plane in out_planes for mask in plane)
        return {
            "input_to_middle": busy_in / cells,
            "middle_to_output": busy_out / cells,
        }

    def available_middles(self, source: Endpoint) -> list[int]:
        """Middle switches reachable from ``source``'s input module now."""
        g = self.topology.input_module_of(source.port)
        return list(iter_bits(self._available(g, source.wavelength)[0]))

    # -- state signatures ---------------------------------------------------

    def state_signature(self) -> bytes:
        """Raw byte signature of the routed resource state.

        Two networks with identical topology compare equal exactly when
        every fiber wavelength and endpoint channel has the same busy
        status -- the reference dedup key of the exhaustive checker.
        """
        topo = self.topology
        m, r, k = topo.m, topo.r, topo.k
        field = 8 * ((k + 7) // 8)  # one fiber's wavelength bits, padded
        ep_bytes = (topo.n_ports * k + 7) // 8
        in_planes, out_planes = self._state.busy_planes()
        # Fixed-width little-endian fields, lowest first: per (input
        # module, middle) fiber, then per (middle, output module) fiber,
        # bit w of each = wavelength w busy; then the two endpoint
        # masks.  Per wavelength, the planes laid end to end hold its
        # bit of every fiber in field order, and the table places them
        # a byte at a time: the bits land ``field`` apart, offset by w.
        spread = _spread_table(field)
        stride = 8 * field
        packed = 0
        for w in range(k):
            bits = 0
            for g, planes in enumerate(in_planes):
                bits |= planes[w] << (g * m)
            offset = r * m
            for mask in out_planes[w]:
                bits |= mask << offset
                offset += r
            shift = w
            while bits:
                packed |= spread[bits & 255] << shift
                bits >>= 8
                shift += stride
        fibers = 2 * r * m * field
        packed |= self._input_used << fibers
        packed |= self._output_used << (fibers + 8 * ep_bytes)
        return packed.to_bytes(fibers // 8 + 2 * ep_bytes, "little")

    def _permute_endpoint_mask(self, mask: int, perm: tuple[int, ...]) -> int:
        """Apply a wavelength relabeling to an endpoint-usage mask."""
        k = self.topology.k
        k_full = self.geometry.k_full
        out = 0
        for port in range(self.topology.n_ports):
            sub = mask >> (port * k) & k_full
            if sub:
                out |= _permute_wavelengths(sub, perm) << (port * k)
        return out

    def canonical_signature(self, *, wavelength_symmetry: bool = False) -> bytes:
        """Signature invariant under middle-switch permutation.

        Middle switches are interchangeable resources: permuting their
        indices (together with their first- and second-stage fibers)
        maps reachable states to reachable states and blocked requests
        to blocked requests.  The canonical form therefore packs each
        middle switch's column -- failure flag, then per wavelength its
        incoming-fiber bits and outgoing-fiber mask, in fixed-width
        fields read straight off the engine's per-wavelength planes --
        and sorts the per-middle keys, collapsing the up-to-``m!``
        symmetric images of a state onto one key.  The failure flag is
        part of the key, so only like-status middles ever trade places.

        With ``wavelength_symmetry`` the signature is additionally
        minimized over the ``k!`` global wavelength relabelings (sound
        when the request distribution is wavelength-symmetric, e.g. the
        MSW model where source and destination wavelengths coincide);
        the lexicographically smallest candidate wins.
        """
        topo = self.topology
        m, r, k = topo.m, topo.r, topo.k
        in_planes, out_planes = self._state.busy_planes()
        failed = self._state.failed_mask
        width = (2 * r * k + 8) // 8  # flag bit + 2rk channel bits
        shift = 8 * width
        ep_bytes = (topo.n_ports * k + 7) // 8
        identity = tuple(range(k))
        if wavelength_symmetry and k > 1:
            perms: Iterable[tuple[int, ...]] = permutations(range(k))
        else:
            perms = (identity,)
        best: bytes | None = None
        for perm in perms:
            # Relabeled wavelength i is old wavelength perm[i].  Middle
            # j's key, high bit first: its failure flag, its first-stage
            # bit per (input module, wavelength), then its second-stage
            # mask per wavelength.  Each busy first-stage bit is set in
            # its middle's key, rather than each key read bit by bit.
            keys = [0] * m
            bit = 1 << (2 * r * k)
            for j in iter_bits(failed):
                keys[j] |= bit
            for planes in in_planes:
                for w in perm:
                    bit >>= 1
                    for j in iter_bits(planes[w]):
                        keys[j] |= bit
            offset = r * k
            for w in perm:
                offset -= r
                for j, mask in enumerate(out_planes[w]):
                    keys[j] |= mask << offset
            keys.sort()
            # The sorted keys as fixed-width big-endian fields: one int.
            packed = 0
            for key in keys:
                packed = packed << shift | key
            in_used, out_used = self._input_used, self._output_used
            if perm != identity:
                in_used = self._permute_endpoint_mask(in_used, perm)
                out_used = self._permute_endpoint_mask(out_used, perm)
            candidate = (
                packed.to_bytes(width * m, "big")
                + in_used.to_bytes(ep_bytes, "little")
                + out_used.to_bytes(ep_bytes, "little")
            )
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best

    # -- request admission --------------------------------------------------

    def _fast_validate(self, request: MulticastConnection) -> tuple[int, int] | None:
        """A legal addition's ``(destination-endpoint bits, module mask)``.

        Checked via the masks, and exact (never accepts what
        :meth:`_validate_request` rejects), so None only means "take the
        slow path to raise the properly worded error".  The admission
        check on the Monte-Carlo hot path; the endpoint bits are what
        ``connect`` marks busy and ``disconnect`` clears.
        """
        topology = self.topology
        k = topology.k
        n = topology.n
        n_ports = topology.n_ports
        source = request.source
        source_wavelength = source.wavelength
        if not (0 <= source.port < n_ports and 0 <= source_wavelength < k):
            return None
        if self._input_used >> (source.port * k + source_wavelength) & 1:
            return None
        destinations = request.destinations
        if not destinations:
            return None
        ports = endpoints = modules = wavelengths = 0
        for destination in destinations:
            port = destination.port
            wavelength = destination.wavelength
            if not (0 <= port < n_ports and 0 <= wavelength < k):
                return None
            ports |= 1 << port
            endpoints |= 1 << (port * k + wavelength)
            modules |= 1 << (port // n)
            wavelengths |= 1 << wavelength
        # One port per destination, every destination endpoint free, and
        # the model's wavelength rule: one destination wavelength unless
        # MAW, the source's under MSW.
        if ports.bit_count() != len(destinations) or self._output_used & endpoints:
            return None
        model = self.model
        if model is not MulticastModel.MAW and wavelengths & (wavelengths - 1):
            return None
        if model is MulticastModel.MSW and wavelengths != 1 << source_wavelength:
            return None
        return endpoints, modules

    def _validate_request(self, request: MulticastConnection) -> NoReturn:
        """Raise the worded error for a request :meth:`_fast_validate` refused."""
        try:
            check_connection(
                request, self.model, self.topology.n_ports, self.topology.k
            )
        except ValidityError as exc:
            raise ValidityError(f"illegal request: {exc}") from exc
        k = self.topology.k
        source = request.source
        if self._input_used >> (source.port * k + source.wavelength) & 1:
            raise ValidityError(f"input endpoint {source} already in use")
        for destination in request.destinations:
            if self._output_used >> (destination.port * k + destination.wavelength) & 1:
                raise ValidityError(
                    f"output endpoint {destination} already in use"
                )
        # Only a request without destinations gets here, which
        # ``MulticastConnection`` refuses to build.
        raise ValidityError(f"illegal request: {request} has no destinations")

    # -- routing -----------------------------------------------------------

    def _available(
        self, input_module: int, source_wavelength: int
    ) -> tuple[int, int, Sequence[int]]:
        """``(available middles, first-stage blocked mask, blocker row)``.

        The engine state's setup views for one source, with the
        available middles the kernel's ``free_middles`` leaves.
        """
        state = self._state
        blocked, blockers = state.setup_views(input_module, source_wavelength)
        available = free_middles(
            state.all_masks[0], blocked[0], state.failed_mask
        )
        return available, blocked[0], blockers[0]

    def probe_cover(
        self, request: MulticastConnection, *, stats: CoverSearch | None = None
    ) -> dict[int, list[int]] | None:
        """The cover :meth:`connect` would use for ``request`` right now.

        Read-only: no resources are allocated.  Returns None when the
        request would block -- the primitive the exhaustive model checker
        probes reachable states with.
        """
        n = self.topology.n
        available, _, blockers = self._available(
            request.source.port // n, request.source.wavelength
        )
        dest_mask = mask_of(d.port // n for d in request.destinations)
        cover = probe_cover(available, dest_mask, self.x, blockers, stats)[0]
        if stats is not None:
            stats.cover = None if cover is None else _cover_lists(cover)
        return None if cover is None else _cover_lists(cover)

    def explain_block(self, request: MulticastConnection) -> dict:
        """Explain *why* ``request`` blocks: the engine's ``block_cause``.

        Read-only.  Classifies the failure into one of four kinds -- the
        contention modes the paper's constructions trade off:

        * ``saturated_wavelength`` -- MSW-dominant: the source wavelength
          is busy on every non-failed first-stage fiber out of the input
          module (the MSW input module cannot convert around it);
        * ``converter_exhaustion`` -- MAW-dominant: every wavelength on
          every non-failed first-stage fiber is busy, so no converter
          assignment at the input module can reach any middle switch;
        * ``full_middles`` -- some requested output module is unreachable
          through *every* available middle switch (its second-stage
          fibers are saturated on the needed wavelength);
        * ``no_cover`` -- every output module is individually reachable,
          but no set of at most ``x`` available middle switches covers
          them all: the Lemma-4 routing budget is what binds.

        The returned dict matches ``repro.obs.trace.CAUSE_SCHEMA``:
        alongside ``kind`` it carries the raw evidence masks
        (``first_stage_blocked_mask``, ``available_middles_mask``,
        ``failed_middles_mask``), the requested ``destination_modules``,
        the ``unreachable_modules`` subset, and ``per_destination``
        pairs ``[module, middles_mask]`` giving the middle switches able
        to reach each module.  Callers should only invoke this on a
        request that actually blocks; on a routable request the kind
        degenerates to ``no_cover`` with full reachability evidence.
        """
        topo = self.topology
        dest_mask = mask_of(
            topo.output_module_of(d.port) for d in request.destinations
        )
        g = topo.input_module_of(request.source.port)
        sw = request.source.wavelength
        available, blocked_mask, blockers = self._available(g, sw)
        return block_cause(
            x=self.x,
            input_module=g,
            source_wavelength=sw,
            blocked_mask=blocked_mask,
            available=available,
            coverable=reach_map(available, dest_mask, blockers),
            dest_mask=dest_mask,
            msw_dominant=self._state.msw_dominant,
            failed_mask=self._state.failed_mask,
        )

    def connect(
        self,
        request: MulticastConnection,
        *,
        stats: CoverSearch | None = None,
        force_middles: dict[int, list[int]] | None = None,
    ) -> int:
        """Set up a multicast connection; returns its connection id.

        Args:
            request: the multicast connection to establish.
            stats: optional cover-search statistics accumulator.
            force_middles: adversarial/test hook -- a specific
                ``{middle switch: [output modules]}`` split to use instead
                of running the cover search.  The forced split must still
                be *feasible* (fibers free, within the ``x`` budget); it
                just overrides the router's free choice.  The nonblocking
                theorems quantify over every choice the routing strategy
                allows, so worst-case demonstrations (necessity
                constructions) legitimately steer this choice.

        Raises:
            repro.switching.validity.ValidityError: the request is not a
                legal addition to the active assignment (caller error).
            BlockedError: the request is legal but the network cannot
                route it with at most ``x`` middle switches -- the event
                the nonblocking theorems forbid when ``m`` meets the bound.
            ValueError: a ``force_middles`` split is malformed or
                infeasible.
        """
        legal = self._fast_validate(request)
        if legal is None:
            self._validate_request(request)
        endpoints, dest_mask = legal
        source = request.source
        sw = source.wavelength
        # Ports were range-checked, so ``port // n`` is the input module.
        g = source.port // self.topology.n
        available, _, blockers = self._available(g, sw)
        if force_middles is None:
            cover = probe_cover(available, dest_mask, self.x, blockers, stats)[0]
            if stats is not None:
                stats.cover = None if cover is None else _cover_lists(cover)
        else:
            cover = self._validated_forced_cover(
                force_middles, dest_mask, reach_map(available, dest_mask, blockers)
            )
        if cover is None:
            self.blocks += 1
            if _obs.enabled():
                _obs.on_block(self, request, self.explain_block(request), stats)
            raise BlockedError(request, self.x)

        undo = self._state.allocate(0, g, sw, cover)
        self._input_used |= 1 << (source.port * self.topology.k + sw)
        self._output_used |= endpoints
        connection_id = self._next_id
        self._next_id = connection_id + 1
        self._live[connection_id] = (request, g, undo, endpoints)
        self.setups += 1
        if _obs.enabled():
            _obs.on_admit(self, self._routed(connection_id), stats)
        if self.debug_checks:
            self.check_invariants()
        return connection_id

    # -- failure injection -------------------------------------------------

    @property
    def failed_middles(self) -> frozenset[int]:
        """Middle switches currently marked failed."""
        return frozenset(iter_bits(self._state.failed_mask))

    def fail_middle(self, middle: int, *, drain: bool = False) -> list[MulticastConnection]:
        """Mark a middle switch failed; no new routes will use it.

        Args:
            middle: index of the middle switch.
            drain: if True, live connections routed through the failed
                switch are disconnected and their requests returned so the
                caller can re-route them (the optical-recovery workflow);
                if False (default) the call refuses to fail a middle that
                carries traffic.

        Returns:
            The requests of drained connections (empty without ``drain``).

        Raises:
            ValueError: the middle is out of range, or carries traffic
                and ``drain`` is False.

        Provisioning rule validated by the tests: a network sized at
        ``m >= bound + f`` tolerates any ``f`` concurrent failures with
        zero blocking -- failed switches just count against the spare
        margin.
        """
        self._check_index("middle", middle, self.topology.m)
        # Every undo branch, under either construction, starts with its middle.
        victims = [
            cid
            for cid, (_, _, undo, _) in self._live.items()
            if any(branch[0] == middle for branch in undo)
        ]
        if victims and not drain:
            raise ValueError(
                f"middle {middle} carries {len(victims)} live connections; "
                "pass drain=True to disconnect and reclaim them"
            )
        drained = []
        for cid in victims:
            drained.append(self._live[cid][0])
            self.disconnect(cid)
        self._state.failed_mask |= 1 << middle
        return drained

    def repair_middle(self, middle: int) -> None:
        """Return a failed middle switch to service."""
        self._check_index("middle", middle, self.topology.m)
        self._state.failed_mask &= ~(1 << middle)

    def wavelength_usage(self) -> list[int]:
        """Busy internal channels per wavelength index, network-wide."""
        in_planes, out_planes = self._state.busy_planes()
        return [
            sum(planes[w].bit_count() for planes in in_planes)
            + sum(mask.bit_count() for mask in out_planes[w])
            for w in range(self.topology.k)
        ]

    def _validated_forced_cover(
        self,
        force_middles: dict[int, list[int]],
        dest_mask: int,
        coverable: dict[int, int],
    ) -> dict[int, int]:
        """Check a caller-chosen middle-switch split for feasibility."""
        if len(force_middles) > self.x:
            raise ValueError(
                f"forced split uses {len(force_middles)} middles, x={self.x}"
            )
        assigned: list[int] = []
        for j, modules in force_middles.items():
            if j not in coverable:
                raise ValueError(f"middle switch {j} is not available")
            bad = set(modules) - set(iter_bits(coverable[j]))
            if bad:
                raise ValueError(
                    f"middle switch {j} cannot reach output modules {sorted(bad)}"
                )
            assigned.extend(modules)
        destinations = list(iter_bits(dest_mask))
        if sorted(assigned) != destinations:
            raise ValueError(
                f"forced split covers {sorted(assigned)}, request needs "
                f"{destinations}"
            )
        return {j: mask_of(modules) for j, modules in force_middles.items()}

    def try_connect(self, request: MulticastConnection) -> int | None:
        """Like :meth:`connect` but returns None instead of raising on block."""
        try:
            return self.connect(request)
        except BlockedError:
            return None

    def disconnect(self, connection_id: int) -> None:
        """Tear down a live connection and release its resources."""
        record = self._live.pop(connection_id, None)
        if record is None:
            raise KeyError(f"no active connection with id {connection_id}")
        request, g, undo, endpoints = record
        source = request.source
        sw = source.wavelength
        self._state.free(0, g, sw, undo)
        self._input_used &= ~(1 << (source.port * self.topology.k + sw))
        self._output_used &= ~endpoints
        self.teardowns += 1
        if _obs.enabled():
            _obs.on_release(self, connection_id)
        if self.debug_checks:
            self.check_invariants()

    def disconnect_all(self) -> None:
        """Tear everything down (returns the network to idle)."""
        for connection_id in list(self._live):
            self.disconnect(connection_id)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the engine state equals the sum of active connections.

        Rebuilds the per-fiber and endpoint masks from the connection
        records (and each record's endpoint bits from its request) and
        compares them with the live state, then checks every
        ``setup_views(g, sw)`` -- the admission rows the kernels read --
        against the rebuilt fibers.  Used by the fuzz tests after every
        event: any leak or double-booking in setup/teardown shows up
        immediately.
        """
        topo = self.topology
        r, m, k = topo.r, topo.m, topo.k
        in_wave = [[0] * m for _ in range(r)]
        out_wave = [[0] * r for _ in range(m)]
        input_mask = 0
        output_mask = 0
        for cid, (_, _, _, endpoints) in self._live.items():
            routed = self._routed(cid)
            g = routed.input_module
            source = routed.request.source
            bit = 1 << (source.port * k + source.wavelength)
            assert not input_mask & bit
            input_mask |= bit
            bits = 0
            for destination in routed.request.destinations:
                bit = 1 << (destination.port * k + destination.wavelength)
                assert not output_mask & bit
                output_mask |= bit
                bits |= bit
            assert bits == endpoints, "recorded endpoint bits out of sync"
            for branch in routed.branches:
                wbit = 1 << branch.in_wavelength
                assert not in_wave[g][branch.middle] & wbit, (
                    "two connections share a first-stage link wavelength"
                )
                in_wave[g][branch.middle] |= wbit
                for p, w in branch.deliveries:
                    assert not out_wave[branch.middle][p] & (1 << w), (
                        "two connections share a second-stage link wavelength"
                    )
                    out_wave[branch.middle][p] |= 1 << w
        live_in, live_out = self.fiber_masks()
        assert in_wave == live_in, "first-stage link state leak"
        assert out_wave == live_out, "second-stage link state leak"
        assert input_mask == self._input_used, "input endpoint leak"
        assert output_mask == self._output_used, "output endpoint leak"

        k_full = self.geometry.k_full

        def unusable(masks: list[int], sw: int, pinned: bool) -> int:
            """Fibers that cannot carry ``sw``: busy on it, or full if free to convert."""
            return mask_of(
                i for i, mask in enumerate(masks)
                if (mask >> sw & 1 if pinned else mask == k_full)
            )

        in_pinned = self._state.msw_dominant
        out_pinned = in_pinned or self.model is MulticastModel.MSW
        for g in range(r):
            for sw in range(k):
                blocked, blockers = self._state.setup_views(g, sw)
                assert blocked[0] == unusable(
                    in_wave[g], sw, in_pinned
                ) and blockers[0] == [
                    unusable(row, sw, out_pinned) for row in out_wave
                ], "setup views out of sync with the link state"
