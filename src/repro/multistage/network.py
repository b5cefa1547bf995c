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

The occupancy state is held as packed integer bitmasks -- one small int
per fiber (bits = wavelengths) and one int per endpoint grid (bit =
``port * k + wavelength``).  :class:`_WaveCube` and
:class:`_EndpointGrid` give those masks the array-style ``[g, j, w]``
indexing the tests and the exhaustive checker use, so the simulator has
no third-party dependencies on its hot path.

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
:func:`repro.multistage.routing.find_cover_bits`; a request raises
:class:`BlockedError` only when *no* set of at most ``x`` available
middle switches can reach all requested output modules, so a network
sized by Theorem 1/2 must never raise under legal traffic.
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations

from repro import obs as _obs
from repro.combinatorics.multiset import DestinationMultiset
from repro.core.models import Construction, MulticastModel
from repro.core.multistage import is_nonblocking, valid_x_range
from repro.engine.geometry import FabricGeometry
from repro.engine.kernel import block_cause, free_middles, reach_map
from repro.multistage.routing import (
    CoverSearch,
    find_cover_bits,
    iter_bits,
    mask_of,
)
from repro.multistage.topology import ThreeStageTopology
from repro.switching.requests import Endpoint, MulticastConnection
from repro.switching.validity import ValidityError, check_connection

__all__ = ["BlockedError", "RoutedBranch", "RoutedConnection", "ThreeStageNetwork"]


class BlockedError(RuntimeError):
    """No admissible set of middle switches can realize the request."""


#: environment variable that turns on per-event invariant cross-checks
DEBUG_CHECKS_ENV = "WDM_REPRO_DEBUG_CHECKS"


def _debug_checks_default() -> bool:
    """Resolve the debug-checks default from the environment."""
    return os.environ.get(DEBUG_CHECKS_ENV, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


def _permute_wavelengths(mask: int, perm: tuple[int, ...]) -> int:
    """Relabel a wavelength mask: bit ``i`` of the result is old bit ``perm[i]``."""
    out = 0
    for i, w in enumerate(perm):
        if mask >> w & 1:
            out |= 1 << i
    return out


class _WaveRow:
    """One fiber's wavelength occupancy, viewed through :class:`_WaveCube`.

    Supports the slice API the tests and checkers use on a numpy row:
    ``row[w]`` / ``row.sum()`` / ``row.all()`` / iteration.
    """

    __slots__ = ("_row", "_b", "_k")

    def __init__(self, row: list[int], b: int, k: int):
        self._row = row
        self._b = b
        self._k = k

    def sum(self) -> int:
        return self._row[self._b].bit_count()

    def all(self) -> bool:
        return self._row[self._b] == (1 << self._k) - 1

    def __getitem__(self, w: int) -> bool:
        return bool(self._row[self._b] >> w & 1)

    def __iter__(self):
        mask = self._row[self._b]
        return iter([bool(mask >> w & 1) for w in range(self._k)])


class _WaveCube:
    """``(A, B, k)`` boolean occupancy cube backed by per-fiber masks.

    ``wave[a][b]`` is an int whose bit ``w`` says wavelength ``w`` is
    busy on fiber ``(a, b)`` -- the ground-truth state.  Tuple indexing
    (``cube[a, b, w]`` -> bool, ``cube[a, b]`` -> :class:`_WaveRow`)
    keeps the external API of the numpy array it replaces.
    """

    __slots__ = ("wave", "shape")

    def __init__(self, a: int, b: int, k: int):
        self.wave: list[list[int]] = [[0] * b for _ in range(a)]
        self.shape = (a, b, k)

    def __getitem__(self, index):
        if len(index) == 3:
            a, b, w = index
            return bool(self.wave[a][b] >> w & 1)
        a, b = index
        return _WaveRow(self.wave[a], b, self.shape[2])

    def __setitem__(self, index, value) -> None:
        a, b, w = index
        if value:
            self.wave[a][b] |= 1 << w
        else:
            self.wave[a][b] &= ~(1 << w)


class _EndpointGrid:
    """``(n_ports, k)`` endpoint-usage grid backed by a single int mask.

    Bit ``port * k + wavelength`` says the endpoint channel is in use;
    ``grid[port, w]`` tuple indexing keeps the array-style reads the
    traffic generators and exhaustive checker rely on.
    """

    __slots__ = ("mask", "k")

    def __init__(self, n_ports: int, k: int):
        self.mask = 0
        self.k = k

    def __getitem__(self, index) -> bool:
        port, w = index
        return bool(self.mask >> (port * self.k + w) & 1)

    def __setitem__(self, index, value) -> None:
        port, w = index
        bit = 1 << (port * self.k + w)
        if value:
            self.mask |= bit
        else:
            self.mask &= ~bit


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

    #: middle-switch selection strategies for :meth:`connect`
    SELECTIONS = ("greedy", "first_fit", "least_loaded", "most_loaded", "random")
    #: wavelength-assignment policies for MAW-dominant internal fibers
    WAVELENGTH_POLICIES = ("first_fit", "most_used", "least_used", "random")

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
        selection: str = "greedy",
        selection_seed: int = 0,
        wavelength_policy: str = "first_fit",
        debug_checks: bool | None = None,
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
            selection: preference order among admissible middle switches:
                ``greedy``/``first_fit`` (ascending index),
                ``least_loaded`` (spread load), ``most_loaded`` (pack
                load -- the classic strict-sense heuristic), or
                ``random``.  All strategies stay within the <=x routing
                strategy; the theorems' guarantees are
                strategy-independent, and the Monte-Carlo benchmarks
                measure how the strategies differ *below* the bound.
            selection_seed: RNG seed for the ``random`` strategy.
            wavelength_policy: how the MAW-dominant construction picks a
                carrier on an internal fiber when the model leaves it
                free: ``first_fit`` (lowest index, the classic RWA
                default), ``most_used`` (pack onto globally busy
                wavelengths), ``least_used`` (spread), or ``random``
                (seeded by ``selection_seed``).  Ignored by the
                MSW-dominant construction, whose carriers are pinned.
            debug_checks: opt-in per-event self-verification -- when
                True, :meth:`check_invariants` runs after every
                ``connect``/``disconnect``, so any cache leak surfaces at
                the exact event that caused it.  The scan is O(state), so
                hot paths leave it off; None (the default) reads the
                ``WDM_REPRO_DEBUG_CHECKS`` environment variable
                (``1``/``true``/``yes``/``on`` enable it).  Explicit
                :meth:`check_invariants` calls always run regardless.
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
        if selection not in self.SELECTIONS:
            raise ValueError(
                f"unknown selection strategy {selection!r}; "
                f"choose from {self.SELECTIONS}"
            )
        self.selection = selection
        if wavelength_policy not in self.WAVELENGTH_POLICIES:
            raise ValueError(
                f"unknown wavelength policy {wavelength_policy!r}; "
                f"choose from {self.WAVELENGTH_POLICIES}"
            )
        self.wavelength_policy = wavelength_policy
        self.debug_checks = (
            _debug_checks_default() if debug_checks is None else debug_checks
        )
        import random as _random

        self._selection_rng = _random.Random(selection_seed)
        # Ground-truth occupancy: per-fiber wavelength masks.
        self._in_mid = _WaveCube(r, m, k)
        self._mid_out = _WaveCube(m, r, k)
        self._input_used = _EndpointGrid(self.topology.n_ports, k)
        self._output_used = _EndpointGrid(self.topology.n_ports, k)
        self._k_full = (1 << k) - 1
        # Coverability cache: transposed/aggregated views of the wave
        # masks, maintained incrementally by connect/disconnect so the
        # cover search never rescans the cube.  check_invariants()
        # cross-checks them against the ground truth.
        self._in_mid_busy = [[0] * k for _ in range(r)]  # [g][w] -> mask over j
        self._in_mid_count = [[0] * m for _ in range(r)]  # [g][j] -> busy count
        self._in_mid_full = [0] * r  # [g] -> mask over j with count == k
        # Transposed [w][j] so one wavelength's blocker row is a flat
        # list the engine kernels index per middle.
        self._mid_out_busy = [[0] * m for _ in range(k)]  # [w][j] -> mask over p
        self._mid_out_count = [[0] * r for _ in range(m)]  # [j][p] -> busy count
        self._mid_out_full = [0] * m  # [j] -> mask over p with count == k
        self._failed_mask = 0
        self._all_middles_mask = (1 << m) - 1
        self._active: dict[int, RoutedConnection] = {}
        self._failed_middles: set[int] = set()
        self._next_id = 0
        self.setups = 0
        self.teardowns = 0
        self.blocks = 0

    # -- inspection -------------------------------------------------------

    @property
    def active_connections(self) -> dict[int, RoutedConnection]:
        """Live connections by id (a copy)."""
        return dict(self._active)

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

    def destination_multiset(self, middle: int) -> DestinationMultiset:
        """The paper's ``M_j`` for middle switch ``middle`` (eq. (2)).

        Multiplicity of output module ``p`` = busy wavelengths on the
        fiber ``middle -> p``.
        """
        return DestinationMultiset(
            (mask.bit_count() for mask in self._mid_out.wave[middle]),
            self.topology.k,
        )

    def destination_set(self, middle: int, wavelength: int) -> frozenset[int]:
        """MSW-dominant per-wavelength destination set of a middle switch."""
        return frozenset(iter_bits(self._mid_out_busy[wavelength][middle]))

    def destination_mask(self, middle: int, wavelength: int) -> int:
        """Bitmask form of :meth:`destination_set` (bit ``p`` = busy fiber)."""
        return self._mid_out_busy[wavelength][middle]

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
        routed = self._active[connection_id]
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
        return sum(self.conversions_of(cid) for cid in self._active)

    def link_utilization(self) -> dict[str, float]:
        """Fraction of busy wavelength channels per inter-stage gap."""
        topo = self.topology
        cells = topo.r * topo.m * topo.k
        busy_in = sum(
            mask.bit_count() for row in self._in_mid.wave for mask in row
        )
        busy_out = sum(
            mask.bit_count() for row in self._mid_out.wave for mask in row
        )
        return {
            "input_to_middle": busy_in / cells,
            "middle_to_output": busy_out / cells,
        }

    def available_middles(self, source: Endpoint) -> list[int]:
        """Middle switches reachable from ``source``'s input module now."""
        g = self.topology.input_module_of(source.port)
        if self.construction is Construction.MSW_DOMINANT:
            blocked = self._in_mid_busy[g][source.wavelength]
        else:
            blocked = self._in_mid_full[g]
        free = free_middles(self._all_middles_mask, blocked, self._failed_mask)
        return list(iter_bits(free))

    # -- state signatures ---------------------------------------------------

    def state_signature(self) -> bytes:
        """Raw byte signature of the routed resource state.

        Two networks with identical topology compare equal exactly when
        every fiber wavelength and endpoint channel has the same busy
        status -- the reference dedup key of the exhaustive checker.
        """
        k = self.topology.k
        nbytes = (k + 7) // 8
        ep_bytes = (self.topology.n_ports * k + 7) // 8
        parts = [
            mask.to_bytes(nbytes, "little")
            for cube in (self._in_mid, self._mid_out)
            for row in cube.wave
            for mask in row
        ]
        parts.append(self._input_used.mask.to_bytes(ep_bytes, "little"))
        parts.append(self._output_used.mask.to_bytes(ep_bytes, "little"))
        return b"".join(parts)

    def _permute_endpoint_mask(self, mask: int, perm: tuple[int, ...]) -> int:
        """Apply a wavelength relabeling to an endpoint-usage mask."""
        k = self.topology.k
        k_full = self._k_full
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
        to blocked requests.  The canonical form therefore serializes
        each middle switch's column -- failure flag, incoming fibers,
        outgoing fibers -- and sorts the per-middle keys, collapsing the
        up-to-``m!`` symmetric images of a state onto one key.  Failed
        middles get a distinct flag byte, so only like-status middles
        ever trade places.

        With ``wavelength_symmetry`` the signature is additionally
        minimized over the ``k!`` global wavelength relabelings (sound
        when the request distribution is wavelength-symmetric, e.g. the
        MSW model where source and destination wavelengths coincide);
        the lexicographically smallest candidate wins.
        """
        topo = self.topology
        m, r, k = topo.m, topo.r, topo.k
        nbytes = (k + 7) // 8
        ep_bytes = (topo.n_ports * k + 7) // 8
        identity = tuple(range(k))
        if wavelength_symmetry and k > 1:
            perms: Iterable[tuple[int, ...]] = permutations(range(k))
        else:
            perms = (identity,)
        best: bytes | None = None
        for perm in perms:
            if perm == identity:
                in_wave = self._in_mid.wave
                out_wave = self._mid_out.wave
                in_used = self._input_used.mask
                out_used = self._output_used.mask
            else:
                in_wave = [
                    [_permute_wavelengths(mask, perm) for mask in row]
                    for row in self._in_mid.wave
                ]
                out_wave = [
                    [_permute_wavelengths(mask, perm) for mask in row]
                    for row in self._mid_out.wave
                ]
                in_used = self._permute_endpoint_mask(
                    self._input_used.mask, perm
                )
                out_used = self._permute_endpoint_mask(
                    self._output_used.mask, perm
                )
            keys = sorted(
                bytes([1 if j in self._failed_middles else 0])
                + b"".join(
                    in_wave[g][j].to_bytes(nbytes, "little") for g in range(r)
                )
                + b"".join(
                    mask.to_bytes(nbytes, "little") for mask in out_wave[j]
                )
                for j in range(m)
            )
            candidate = (
                b"".join(keys)
                + in_used.to_bytes(ep_bytes, "little")
                + out_used.to_bytes(ep_bytes, "little")
            )
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best

    # -- request admission --------------------------------------------------

    def _fast_validate(self, request: MulticastConnection) -> bool:
        """True iff ``request`` is a legal addition, checked via the masks.

        Exact (never accepts what :meth:`_validate_request`'s slow path
        rejects), so a False return only means "take the slow path to
        raise the properly worded error".  The bitmask kernel's
        admission check on the Monte-Carlo hot path.
        """
        topology = self.topology
        k = topology.k
        n_ports = topology.n_ports
        source = request.source
        source_wavelength = source.wavelength
        if not (0 <= source.port < n_ports and 0 <= source_wavelength < k):
            return False
        if self._input_used.mask >> (source.port * k + source_wavelength) & 1:
            return False
        destinations = request.destinations
        if not destinations:
            return False
        model = self.model
        output_used = self._output_used.mask
        ports_seen = 0
        first_wavelength = -1
        for destination in destinations:
            port = destination.port
            wavelength = destination.wavelength
            if not (0 <= port < n_ports and 0 <= wavelength < k):
                return False
            bit = 1 << port
            if ports_seen & bit:
                return False
            ports_seen |= bit
            if output_used >> (port * k + wavelength) & 1:
                return False
            if first_wavelength < 0:
                first_wavelength = wavelength
            elif wavelength != first_wavelength and model is not MulticastModel.MAW:
                return False
        if model is MulticastModel.MSW and first_wavelength != source_wavelength:
            return False
        return True

    def _validate_request(self, request: MulticastConnection) -> None:
        if self._fast_validate(request):
            return
        # Slow path: a request the fast path refused, re-checked here so
        # the error names what is wrong with it.
        try:
            check_connection(
                request, self.model, self.topology.n_ports, self.topology.k
            )
        except ValidityError as exc:
            raise ValidityError(f"illegal request: {exc}") from exc
        source = request.source
        if self._input_used[source.port, source.wavelength]:
            raise ValidityError(f"input endpoint {source} already in use")
        for destination in request.destinations:
            if self._output_used[destination.port, destination.wavelength]:
                raise ValidityError(
                    f"output endpoint {destination} already in use"
                )

    def _module_destinations(
        self, request: MulticastConnection
    ) -> dict[int, list[Endpoint]]:
        by_module: dict[int, list[Endpoint]] = defaultdict(list)
        for destination in request.destinations:
            by_module[self.topology.output_module_of(destination.port)].append(
                destination
            )
        return dict(by_module)

    # -- routing -----------------------------------------------------------

    def _admission_rows(
        self, input_module: int, source_wavelength: int
    ) -> tuple[int, list[int]]:
        """The engine-kernel view of this state for one setup.

        Returns ``(blocked, blockers)``: the first-stage blocked-middles
        mask out of ``input_module`` and the per-middle second-stage
        blocker row.  This pair is the *only* place the serial network
        maps its incremental caches onto the per-model admission rule;
        everything downstream (reachability, cover search, cause
        classification) is :mod:`repro.engine.kernel`.

        Under the MSW-dominant construction the source wavelength is
        pinned end to end, so both rows are per-wavelength busy masks.
        Under MAW-dominant the first stage blocks only on a *full*
        fiber; the second stage pins the delivery wavelength to the
        source's exactly when the endpoint model is MSW (validated
        requests have all destination wavelengths equal to it), and
        otherwise converts freely, blocking only on full fibers.
        """
        g = input_module
        if self.construction is Construction.MSW_DOMINANT:
            return (
                self._in_mid_busy[g][source_wavelength],
                self._mid_out_busy[source_wavelength],
            )
        if self.model is MulticastModel.MSW:
            return self._in_mid_full[g], self._mid_out_busy[source_wavelength]
        return self._in_mid_full[g], self._mid_out_full

    def _coverable_bits(
        self,
        input_module: int,
        source_wavelength: int,
        dest_mask: int,
    ) -> dict[int, int]:
        """Per available middle, the destination modules it can reach.

        Served from the cache by the shared engine kernel: keys iterate
        in ascending middle index (the cover search's candidate order);
        values are bitmasks over output modules.
        """
        blocked, blockers = self._admission_rows(input_module, source_wavelength)
        available = free_middles(
            self._all_middles_mask, blocked, self._failed_mask
        )
        return reach_map(available, dest_mask, blockers)

    def _cover_for(
        self,
        request: MulticastConnection,
        *,
        stats: CoverSearch | None = None,
        force_middles: dict[int, list[int]] | None = None,
    ) -> tuple[int, dict[int, list[Endpoint]], dict[int, int | None], dict[int, list[int]] | None]:
        """Run the cover search for ``request`` against the current state.

        Returns ``(input_module, module_destinations, required, cover)``
        without mutating any state; ``cover`` is None when the request
        has no <= x-middle cover.  ``required`` maps each destination
        module to the wavelength its middle->output fiber must carry
        (None = any free one): pinned only under the MSW endpoint
        model, whose output modules cannot convert.
        """
        # Ports were range-checked at admission, so the module mapping
        # inlines the ``port // n`` arithmetic instead of going through
        # the re-validating topology accessors.
        n = self.topology.n
        g = request.source.port // n
        module_destinations = {}
        for destination in request.destinations:
            module_destinations.setdefault(destination.port // n, []).append(
                destination
            )
        pin = self.model is MulticastModel.MSW
        required = {
            module: destinations[0].wavelength if pin else None
            for module, destinations in module_destinations.items()
        }
        dest_mask = mask_of(module_destinations)
        coverable_bits = self._coverable_bits(
            g, request.source.wavelength, dest_mask
        )
        if force_middles is not None:
            cover = self._validated_forced_cover(
                force_middles,
                frozenset(module_destinations),
                {j: frozenset(iter_bits(bits)) for j, bits in coverable_bits.items()},
            )
            return g, module_destinations, required, cover
        cover_bits = find_cover_bits(
            dest_mask,
            coverable_bits,
            self.x,
            stats=stats,
            preference=self._middle_preference(),
        )
        if cover_bits is None:
            cover = None
        else:
            cover = {}
            for j, bits in cover_bits.items():
                modules = []
                while bits:
                    low = bits & -bits
                    modules.append(low.bit_length() - 1)
                    bits ^= low
                cover[j] = modules
        if stats is not None:
            stats.cover = cover
        return g, module_destinations, required, cover

    def probe_cover(
        self, request: MulticastConnection, *, stats: CoverSearch | None = None
    ) -> dict[int, list[int]] | None:
        """The cover :meth:`connect` would use for ``request`` right now.

        Read-only: no resources are allocated.  Returns None when the
        request would block -- the primitive the exhaustive model checker
        probes reachable states with.
        """
        return self._cover_for(request, stats=stats)[3]

    def explain_block(self, request: MulticastConnection) -> dict:
        """Reconstruct *why* ``request`` blocks, from the bitmask caches.

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
        g = self.topology.input_module_of(request.source.port)
        source_wavelength = request.source.wavelength
        dest_mask = mask_of(self._module_destinations(request))
        blocked, blockers = self._admission_rows(g, source_wavelength)
        available = free_middles(
            self._all_middles_mask, blocked, self._failed_mask
        )
        coverable = reach_map(available, dest_mask, blockers)
        return block_cause(
            x=self.x,
            input_module=g,
            source_wavelength=source_wavelength,
            blocked_mask=blocked,
            available=available,
            coverable=coverable,
            dest_mask=dest_mask,
            msw_dominant=self.construction is Construction.MSW_DOMINANT,
            failed_mask=self._failed_mask,
        )

    def _mark_in_mid(self, g: int, j: int, wavelength: int, busy: bool) -> None:
        """Set one first-stage link wavelength and keep the cache in sync."""
        bit = 1 << j
        counts = self._in_mid_count[g]
        wave = self._in_mid.wave[g]
        if busy:
            wave[j] |= 1 << wavelength
            self._in_mid_busy[g][wavelength] |= bit
            counts[j] += 1
            if counts[j] == self.topology.k:
                self._in_mid_full[g] |= bit
        else:
            wave[j] &= ~(1 << wavelength)
            self._in_mid_busy[g][wavelength] &= ~bit
            if counts[j] == self.topology.k:
                self._in_mid_full[g] &= ~bit
            counts[j] -= 1

    def _mark_mid_out(self, j: int, p: int, wavelength: int, busy: bool) -> None:
        """Set one second-stage link wavelength and keep the cache in sync."""
        bit = 1 << p
        counts = self._mid_out_count[j]
        wave = self._mid_out.wave[j]
        if busy:
            wave[p] |= 1 << wavelength
            self._mid_out_busy[wavelength][j] |= bit
            counts[p] += 1
            if counts[p] == self.topology.k:
                self._mid_out_full[j] |= bit
        else:
            wave[p] &= ~(1 << wavelength)
            self._mid_out_busy[wavelength][j] &= ~bit
            if counts[p] == self.topology.k:
                self._mid_out_full[j] &= ~bit
            counts[p] -= 1

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
        self._validate_request(request)
        g, module_destinations, required, cover = self._cover_for(
            request, stats=stats, force_middles=force_middles
        )
        if cover is None:
            self.blocks += 1
            if _obs.enabled():
                _obs.on_block(self, request, self.explain_block(request), stats)
            raise BlockedError(
                f"request {request} blocked: no <= {self.x}-middle cover "
                "among the available middles"
            )

        branches = []
        msw_dominant = self.construction is Construction.MSW_DOMINANT
        for j, modules in sorted(cover.items()):
            if msw_dominant:
                in_wavelength = request.source.wavelength
            else:
                in_wavelength = self._pick_wavelength(
                    self._k_full & ~self._in_mid.wave[g][j]
                )
            self._mark_in_mid(g, j, in_wavelength, True)
            deliveries = []
            for p in modules:
                pinned = required[p]
                if msw_dominant:
                    out_wavelength = request.source.wavelength
                elif pinned is not None:
                    out_wavelength = pinned
                else:
                    out_wavelength = self._pick_wavelength(
                        self._k_full & ~self._mid_out.wave[j][p]
                    )
                self._mark_mid_out(j, p, out_wavelength, True)
                deliveries.append((p, out_wavelength))
            branches.append(
                RoutedBranch(
                    middle=j,
                    in_wavelength=in_wavelength,
                    deliveries=tuple(deliveries),
                )
            )

        k = self.topology.k
        self._input_used.mask |= 1 << (
            request.source.port * k + request.source.wavelength
        )
        for destination in request.destinations:
            self._output_used.mask |= 1 << (
                destination.port * k + destination.wavelength
            )

        connection_id = self._next_id
        self._next_id += 1
        routed = RoutedConnection(
            connection_id=connection_id,
            request=request,
            input_module=g,
            branches=tuple(branches),
        )
        self._active[connection_id] = routed
        self.setups += 1
        if _obs.enabled():
            _obs.on_admit(self, routed, stats)
        if self.debug_checks:
            self.check_invariants()
        return connection_id

    # -- failure injection -------------------------------------------------

    @property
    def failed_middles(self) -> frozenset[int]:
        """Middle switches currently marked failed."""
        return frozenset(self._failed_middles)

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
        if not 0 <= middle < self.topology.m:
            raise ValueError(
                f"middle {middle} outside [0, {self.topology.m})"
            )
        victims = [
            cid
            for cid, routed in self._active.items()
            if middle in routed.middles_used
        ]
        if victims and not drain:
            raise ValueError(
                f"middle {middle} carries {len(victims)} live connections; "
                "pass drain=True to disconnect and reclaim them"
            )
        drained = []
        for cid in victims:
            drained.append(self._active[cid].request)
            self.disconnect(cid)
        self._failed_middles.add(middle)
        self._failed_mask |= 1 << middle
        return drained

    def repair_middle(self, middle: int) -> None:
        """Return a failed middle switch to service."""
        self._failed_middles.discard(middle)
        self._failed_mask &= ~(1 << middle)

    def wavelength_usage(self) -> list[int]:
        """Busy internal channels per wavelength index, network-wide."""
        usage = [0] * self.topology.k
        for cube in (self._in_mid, self._mid_out):
            for row in cube.wave:
                for mask in row:
                    while mask:
                        low = mask & -mask
                        usage[low.bit_length() - 1] += 1
                        mask ^= low
        return usage

    def _pick_wavelength(self, free_mask: int) -> int:
        """Choose a carrier among the ``free_mask`` wavelengths per policy."""
        if self.wavelength_policy == "first_fit" or free_mask & (free_mask - 1) == 0:
            return (free_mask & -free_mask).bit_length() - 1
        free = list(iter_bits(free_mask))
        if self.wavelength_policy == "random":
            return self._selection_rng.choice(free)
        usage = self.wavelength_usage()
        if self.wavelength_policy == "most_used":
            return max(free, key=lambda w: (usage[w], -w))
        # least_used
        return min(free, key=lambda w: (usage[w], w))

    def middle_load(self, middle: int) -> int:
        """Busy wavelength channels on a middle switch's fibers (both sides)."""
        in_load = sum(
            row[middle].bit_count() for row in self._in_mid.wave
        )
        out_load = sum(mask.bit_count() for mask in self._mid_out.wave[middle])
        return in_load + out_load

    def _middle_preference(self) -> list[int] | None:
        """Candidate order implementing the selection strategy."""
        if self.selection in ("greedy", "first_fit"):
            return None  # ascending index, the default
        middles = list(range(self.topology.m))
        if self.selection == "random":
            self._selection_rng.shuffle(middles)
            return middles
        loads = [self.middle_load(j) for j in middles]
        if self.selection == "least_loaded":
            return sorted(middles, key=lambda j: (loads[j], j))
        # most_loaded (packing)
        return sorted(middles, key=lambda j: (-loads[j], j))

    def _validated_forced_cover(
        self,
        force_middles: dict[int, list[int]],
        destinations: frozenset[int],
        coverable: dict[int, frozenset[int]],
    ) -> dict[int, list[int]]:
        """Check a caller-chosen middle-switch split for feasibility."""
        if len(force_middles) > self.x:
            raise ValueError(
                f"forced split uses {len(force_middles)} middles, x={self.x}"
            )
        assigned: list[int] = []
        for j, modules in force_middles.items():
            if j not in coverable:
                raise ValueError(f"middle switch {j} is not available")
            bad = set(modules) - coverable[j]
            if bad:
                raise ValueError(
                    f"middle switch {j} cannot reach output modules {sorted(bad)}"
                )
            assigned.extend(modules)
        if sorted(assigned) != sorted(destinations):
            raise ValueError(
                f"forced split covers {sorted(assigned)}, request needs "
                f"{sorted(destinations)}"
            )
        return {j: sorted(modules) for j, modules in force_middles.items()}

    def try_connect(self, request: MulticastConnection) -> int | None:
        """Like :meth:`connect` but returns None instead of raising on block."""
        try:
            return self.connect(request)
        except BlockedError:
            return None

    def disconnect(self, connection_id: int) -> None:
        """Tear down a live connection and release its resources."""
        routed = self._active.pop(connection_id, None)
        if routed is None:
            raise KeyError(f"no active connection with id {connection_id}")
        g = routed.input_module
        for branch in routed.branches:
            assert self._in_mid.wave[g][branch.middle] >> branch.in_wavelength & 1
            self._mark_in_mid(g, branch.middle, branch.in_wavelength, False)
            for p, out_wavelength in branch.deliveries:
                assert self._mid_out.wave[branch.middle][p] >> out_wavelength & 1
                self._mark_mid_out(branch.middle, p, out_wavelength, False)
        k = self.topology.k
        source = routed.request.source
        self._input_used.mask &= ~(
            1 << (source.port * k + source.wavelength)
        )
        for destination in routed.request.destinations:
            self._output_used.mask &= ~(
                1 << (destination.port * k + destination.wavelength)
            )
        self.teardowns += 1
        if _obs.enabled():
            _obs.on_release(self, connection_id)
        if self.debug_checks:
            self.check_invariants()

    def disconnect_all(self) -> None:
        """Tear everything down (returns the network to idle)."""
        for connection_id in list(self._active):
            self.disconnect(connection_id)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the link state equals the sum of active connections.

        Used by the fuzz tests after every event: any leak or
        double-booking in setup/teardown shows up immediately.
        """
        topo = self.topology
        r, m, k = topo.r, topo.m, topo.k
        in_wave = [[0] * m for _ in range(r)]
        out_wave = [[0] * r for _ in range(m)]
        input_mask = 0
        output_mask = 0
        for routed in self._active.values():
            g = routed.input_module
            source = routed.request.source
            bit = 1 << (source.port * k + source.wavelength)
            assert not input_mask & bit
            input_mask |= bit
            for destination in routed.request.destinations:
                bit = 1 << (destination.port * k + destination.wavelength)
                assert not output_mask & bit
                output_mask |= bit
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
        assert in_wave == self._in_mid.wave, "first-stage link state leak"
        assert out_wave == self._mid_out.wave, "second-stage link state leak"
        assert input_mask == self._input_used.mask, "input endpoint leak"
        assert output_mask == self._output_used.mask, "output endpoint leak"

        # The incremental coverability cache must mirror the wave masks.
        for g in range(r):
            row = self._in_mid.wave[g]
            for w in range(k):
                expected = mask_of(j for j in range(m) if row[j] >> w & 1)
                assert self._in_mid_busy[g][w] == expected, (
                    "in_mid busy-mask cache out of sync"
                )
            counts = [row[j].bit_count() for j in range(m)]
            assert self._in_mid_count[g] == counts, (
                "in_mid count cache out of sync"
            )
            expected_full = mask_of(j for j in range(m) if counts[j] == k)
            assert self._in_mid_full[g] == expected_full, (
                "in_mid full-mask cache out of sync"
            )
        for j in range(m):
            row = self._mid_out.wave[j]
            for w in range(k):
                expected = mask_of(p for p in range(r) if row[p] >> w & 1)
                assert self._mid_out_busy[w][j] == expected, (
                    "mid_out busy-mask cache out of sync"
                )
            counts = [row[p].bit_count() for p in range(r)]
            assert self._mid_out_count[j] == counts, (
                "mid_out count cache out of sync"
            )
            expected_full = mask_of(p for p in range(r) if counts[p] == k)
            assert self._mid_out_full[j] == expected_full, (
                "mid_out full-mask cache out of sync"
            )
        assert self._failed_mask == mask_of(self._failed_middles), (
            "failed-middle mask out of sync"
        )
