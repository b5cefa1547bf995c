"""Exhaustive reachability analysis: the *exact* minimal nonblocking m.

Theorems 1-2 (and the corrected bounds) are sufficient conditions; the
paper cites [16] for matching necessary values "under several commonly
used routing strategies".  For tiny networks we can settle the question
outright by model checking:

* A network is **strictly nonblocking** (for the <= x routing strategy,
  against an adversary who may also choose how earlier connections were
  routed) iff *no reachable state* admits a legal request with no
  <= x-middle cover.

* Reachable states are exactly the resource-disjoint sets of routed
  connections: given any such set, connecting its members one by one
  (any order) with their final routes is always feasible, because the
  resources each route needs are held by nobody else.  So reachability
  reduces to enumerating consistent routed configurations -- no
  sequence search is needed.

* Under the MAW-dominant construction the search gives each route its
  first-fit internal carriers and enumerates no others.  No verdict
  depends on that: MAW-dominant admission reads only whether a fiber
  is full (and, under the MSW model, whether it carries the pinned
  delivery wavelength), and a carrier choice changes which
  wavelengths a fiber carries, never how many.  States that differ
  only in carriers admit and block the same requests, so a
  MAW-dominant verdict, blockable or nonblocking, holds for every
  carrier choice.

:func:`is_blockable` performs a depth-first enumeration of routed
configurations (deduplicated by resource signature) and reports the
first blocking witness; :func:`repro.api.exact_m` scans ``m`` upward to
find the true threshold, which the benchmarks compare against the
sufficient bounds.  Exponential, of course -- intended for ``N k <= 8``
and small ``m``.

Most transitions reach a state the search has already seen, so the DFS
works on ints until a state is new.  Requests are int-coded and covers
are ``{middle: module mask}`` splits read off the network's admission
views.  Each (request, cover) successor is applied to the network's
engine state (``PythonState.allocate`` plus the two endpoint masks) just
long enough to read its signature, then undone with ``free``.  Only an
unseen successor is entered, through
:meth:`~repro.multistage.network.ThreeStageNetwork.connect` with the
cover forced, and left through ``disconnect``; so a request's
connection object is built only if one of its successors is new, and
the victim probe builds one only for the victim it returns.

Symmetry canonicalization (the default, ``canonicalize=True``) attacks
the exponent on two fronts, neither of which can change the verdict:

* the DFS transposition table keys on
  :meth:`~repro.multistage.network.ThreeStageNetwork.canonical_signature`
  -- states identical up to a middle-switch permutation (and, for the
  MSW model, a global wavelength relabeling) share one entry, because
  such permutations map reachable states to reachable states and
  blocked requests to blocked requests.  The symmetry factor is up to
  ``m! * k!`` per state.
* the per-state victim probe exploits the coverability bound's
  monotonicity: for a fixed source endpoint and wavelength choice, a
  cover of a destination-module set restricts to a cover of any subset,
  so probing the *maximal* legal request per source decides every
  request at once (per-module singleton probes decide the unicast
  case).  The reference probe enumerates all ``O(2^ports)`` requests.

``canonicalize=False`` keeps the uncanonicalized reference search,
which the property tests compare verdicts against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.core.models import Construction, MulticastModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.perf.cache import ResultCache
from repro.engine.kernel import probe_cover, reach_map
from repro.multistage.network import ThreeStageNetwork, _cover_lists
from repro.multistage.routing import iter_bits, mask_of
from repro.perf.sweeper import ParallelSweeper, WorkUnit
from repro.switching.requests import Endpoint, MulticastConnection

__all__ = ["BlockableResult", "ExactMinimal", "is_blockable"]


@dataclass(frozen=True)
class BlockableResult:
    """Outcome of one blockability check.

    ``blockable`` is None when the state budget ran out before the
    search completed (the answer is then unknown).
    """

    n: int
    r: int
    m: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    blockable: bool | None
    states_explored: int
    witness_state: tuple[MulticastConnection, ...] | None = None
    witness_request: MulticastConnection | None = None
    #: the adversarial route of each witness connection:
    #: one ``(middle, (modules...))`` tuple set per connection
    witness_routes: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] | None = None

    def replay(self) -> ThreeStageNetwork:
        """Re-enact a blocking witness (exact adversarial routes included).

        Returns the network in the blocking state; raises AssertionError
        if the witness no longer blocks.
        """
        if not self.blockable:
            raise ValueError("no witness to replay")
        assert self.witness_state is not None and self.witness_routes is not None
        net = ThreeStageNetwork(
            self.n, self.r, self.m, self.k,
            construction=self.construction, model=self.model, x=self.x,
        )
        for connection, route in zip(self.witness_state, self.witness_routes):
            net.connect(
                connection,
                force_middles={j: list(ps) for j, ps in route},
            )
        assert self.witness_request is not None
        if net.try_connect(self.witness_request) is not None:
            raise AssertionError("witness no longer blocks")
        return net


@dataclass(frozen=True)
class ExactMinimal:
    """The exact minimal nonblocking ``m`` for a tiny configuration."""

    n: int
    r: int
    k: int
    construction: Construction
    model: MulticastModel
    x: int
    m_exact: int | None  # None if the scan was inconclusive (budget)
    per_m: tuple[BlockableResult, ...]


#: an int-coded request: ``(source port, source wavelength, ((port,
#: wavelength), ...))``, the destinations in ascending port order
Request = tuple[int, int, tuple[tuple[int, int], ...]]
#: one witness connection's adversarial route: ``(middle, (modules...))``
#: per middle, by middle index
Route = tuple[tuple[int, tuple[int, ...]], ...]
#: a blocking witness: the live connections, their routes, the victim
_Witness = tuple[
    tuple[MulticastConnection, ...], tuple[Route, ...], MulticastConnection
]


def _wavelength_choices(
    model: MulticastModel, wavelength: int, k: int
) -> list[tuple[int, ...]]:
    """The destination-wavelength sets a source on ``wavelength`` may use:
    its own (MSW), any one (MSDW), or any mix (MAW)."""
    if model is MulticastModel.MSW:
        return [(wavelength,)]
    if model is MulticastModel.MSDW:
        return [(v,) for v in range(k)]
    return [tuple(range(k))]


def _connection(request: Request) -> MulticastConnection:
    """The connection object of an int-coded request."""
    port, wavelength, destinations = request
    return MulticastConnection(
        Endpoint(port, wavelength), (Endpoint(p, v) for p, v in destinations)
    )


def _legal_requests(
    net: ThreeStageNetwork,
    *,
    unicast_only: bool = False,
    descending: bool = False,
) -> Iterator[Request]:
    """Every legal request in the network's current state, int-coded.

    Fanout ascending (the DFS expansion order: blocking states are
    built from unicast "blockers", so small requests find witnesses
    sooner), or with ``descending`` largest first (the reference victim
    probe: supersets block at least as easily).  Within one fanout the
    order is by source endpoint, wavelength choice, destination ports
    and their wavelengths.  With ``unicast_only``, only fanout-1
    requests (the classical Clos setting).
    """
    topo = net.topology
    n_ports, k, model = topo.n_ports, topo.k, net.model
    input_used, output_used = net._input_used, net._output_used
    # Per free source endpoint and wavelength set it may use, the free
    # destination endpoints by port (one dict per wavelength set).
    free: dict[tuple[int, ...], dict[int, list[tuple[int, int]]]] = {}
    starts = []
    for bit in range(n_ports * k):
        if input_used >> bit & 1:
            continue
        port, w = divmod(bit, k)
        for allowed in _wavelength_choices(model, w, k):
            per_port = free.get(allowed)
            if per_port is None:
                per_port = free[allowed] = {}
                for p in range(n_ports):
                    picks = [
                        (p, v) for v in allowed if not output_used >> (p * k + v) & 1
                    ]
                    if picks:
                        per_port[p] = picks
            starts.append((port, w, per_port))
    widest = max((len(per_port) for _, _, per_port in starts), default=0)
    top = min(widest, 1) if unicast_only else widest
    for size in range(top, 0, -1) if descending else range(1, top + 1):
        for port, w, per_port in starts:
            if len(per_port) < size:
                continue
            for chosen in combinations(per_port, size):
                for picks in product(*[per_port[p] for p in chosen]):
                    yield port, w, picks


def _all_covers(
    net: ThreeStageNetwork,
    input_module: int,
    source_wavelength: int,
    dest_mask: int,
) -> list[dict[int, int]]:
    """Every distinct <= x-middle split the adversary could have used.

    Each split maps middle -> output-module mask, read off the
    network's admission views.  The order is that of ``product`` over
    each destination module's reaching middles (modules ascending,
    middles ascending), keeping the assignments that use at most ``x``
    middles; a partial assignment that already uses more is pruned.
    """
    available, _, blockers = net._available(input_module, source_wavelength)
    reach = reach_map(available, dest_mask, blockers)
    options = []
    for p in iter_bits(dest_mask):
        bit = 1 << p
        middles = [j for j, modules in reach.items() if modules & bit]
        if not middles:
            return []
        options.append((bit, middles))
    covers: list[dict[int, int]] = []
    _assign(options, 0, {}, net.x, covers)
    return covers


def _assign(
    options: list[tuple[int, list[int]]],
    index: int,
    groups: dict[int, int],
    x: int,
    covers: list[dict[int, int]],
) -> None:
    """Append to ``covers`` every completion of ``groups`` (middle ->
    module mask) over ``options[index:]`` that uses at most ``x``
    middles, in ``product`` order.  A module-level function, not a
    closure: a recursive closure is a reference cycle, which would keep
    every call's lists alive until the next garbage collection."""
    if index == len(options):
        covers.append(dict(groups))
        return
    bit, middles = options[index]
    for j in middles:
        if j in groups:
            groups[j] |= bit
            _assign(options, index + 1, groups, x, covers)
            groups[j] ^= bit
        elif len(groups) < x:
            groups[j] = bit
            _assign(options, index + 1, groups, x, covers)
            del groups[j]


def _blocks(net: ThreeStageNetwork) -> Callable[[int, int, int], bool]:
    """``blocks(input module, source wavelength, dest_mask)`` in the
    network's current state: the engine kernel's ``probe_cover`` on the
    network's admission views, memoized, so hold it only while the
    state stands still."""
    x = net.x
    verdicts: dict[tuple[int, int, int], bool] = {}

    def blocks(g: int, sw: int, dest_mask: int) -> bool:
        key = (g, sw, dest_mask)
        verdict = verdicts.get(key)
        if verdict is None:
            available, _, blockers = net._available(g, sw)
            verdict = verdicts[key] = (
                probe_cover(available, dest_mask, x, blockers)[0] is None
            )
        return verdict

    return blocks


def _first_blocked_request(
    net: ThreeStageNetwork, *, unicast_only: bool = False
) -> MulticastConnection | None:
    """A blocked legal request in the current state, or None.

    The fast victim probe: coverability depends only on the
    destination-module set (plus source endpoint and, for the MSW
    model, the shared wavelength), and a cover of a module set
    restricts to a cover of any subset.  So per (source endpoint,
    wavelength choice) it suffices to probe the *maximal* legal request
    -- it is blocked iff any request from that source is.  In unicast
    mode a singleton is blocked iff its module is coverable by no
    middle, so one probe per module decides all ports in it.  Only the
    returned victim is built as a connection object.
    """
    topo = net.topology
    n_ports, k, n, model = topo.n_ports, topo.k, topo.n, net.model
    input_used, output_used = net._input_used, net._output_used
    blocks = _blocks(net)
    # Per wavelength set: the first free allowed wavelength of each
    # output port, and the modules those ports sit in.
    maximal: dict[tuple[int, ...], tuple[dict[int, int], int]] = {}
    for port in range(n_ports):
        g = port // n
        for w in range(k):
            if input_used >> (port * k + w) & 1:
                continue
            for allowed in _wavelength_choices(model, w, k):
                if allowed not in maximal:
                    per_port = {}
                    for p in range(n_ports):
                        for v in allowed:
                            if not output_used >> (p * k + v) & 1:
                                per_port[p] = v
                                break
                    maximal[allowed] = per_port, mask_of(p // n for p in per_port)
                per_port, dest_mask = maximal[allowed]
                if not per_port:
                    continue
                if unicast_only:
                    probed = 0
                    for p, v in per_port.items():
                        module = 1 << (p // n)
                        if probed & module:
                            continue
                        probed |= module
                        if blocks(g, w, module):
                            return _connection((port, w, ((p, v),)))
                elif blocks(g, w, dest_mask):
                    return _connection((port, w, tuple(per_port.items())))
    return None


def _first_blocked_legal_request(
    net: ThreeStageNetwork, *, unicast_only: bool = False
) -> MulticastConnection | None:
    """The reference victim probe: the first blocked legal request,
    largest fanout first, or None."""
    n = net.topology.n
    blocks = _blocks(net)
    for request in _legal_requests(
        net, unicast_only=unicast_only, descending=True
    ):
        port, w, destinations = request
        if blocks(port // n, w, mask_of(p // n for p, _ in destinations)):
            return _connection(request)
    return None


def is_blockable(
    n: int,
    r: int,
    m: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    state_budget: int = 100_000,
    unicast_only: bool = False,
    canonicalize: bool = True,
) -> BlockableResult:
    """Decide by exhaustive search whether any reachable state blocks.

    Args:
        n, r, m, k: topology under test (keep ``N k <= 8``!).
        construction, model, x: network configuration.
        state_budget: abort (result ``blockable=None``) after exploring
            this many distinct states.
        unicast_only: restrict both the adversary's connections and the
            probed requests to fanout 1 (the classical Clos setting).
        canonicalize: dedup states by canonical signature under
            middle-switch permutation (plus wavelength permutation for
            the MSW model) and use the monotone fast victim probe; the
            verdict is identical to ``canonicalize=False`` (the
            uncanonicalized reference search), but ``states_explored``
            counts symmetry classes instead of raw states and the
            witness may differ.

    Returns:
        The decision, with a witness when blockable.
    """
    net = ThreeStageNetwork(
        n, r, m, k, construction=construction, model=model, x=x
    )
    signature: Callable[[], bytes]
    if canonicalize:
        signature = partial(
            net.canonical_signature,
            wavelength_symmetry=model is MulticastModel.MSW,
        )
    else:
        signature = net.state_signature
    first_blocked = (
        _first_blocked_request if canonicalize else _first_blocked_legal_request
    )
    seen: set[bytes] = set()
    try:
        _enter(seen, signature(), state_budget)
        witness = _dfs(
            net, seen, [], signature, first_blocked, unicast_only, state_budget
        )
    except _BudgetExceeded:
        return BlockableResult(
            n=n, r=r, m=m, k=k,
            construction=construction, model=model, x=x,
            blockable=None, states_explored=len(seen),
        )
    if witness is None:
        return BlockableResult(
            n=n, r=r, m=m, k=k,
            construction=construction, model=model, x=x,
            blockable=False, states_explored=len(seen),
        )
    state, routes, request = witness
    return BlockableResult(
        n=n, r=r, m=m, k=k,
        construction=construction, model=model, x=x,
        blockable=True, states_explored=len(seen),
        witness_state=state, witness_request=request,
        witness_routes=routes,
    )


def _enter(seen: set[bytes], key: bytes, state_budget: int) -> None:
    """Count a new state; the budget stops the search past it."""
    seen.add(key)
    _obs.inc("exhaustive.states")
    if len(seen) > state_budget:
        raise _BudgetExceeded


def _dfs(
    net: ThreeStageNetwork,
    seen: set[bytes],
    live: list[tuple[MulticastConnection, Route]],
    signature: Callable[[], bytes],
    first_blocked: Callable[..., MulticastConnection | None],
    unicast_only: bool,
    state_budget: int,
) -> _Witness | None:
    """Search on from an entered state; the witness, or None.

    ``live`` holds the connections (and routes) that built the state.
    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep the network and the whole
    ``seen`` set of every search alive until the next garbage
    collection.
    """
    victim = first_blocked(net, unicast_only=unicast_only)
    if victim is not None:
        return (
            tuple(connection for connection, _ in live),
            tuple(route for _, route in live),
            victim,
        )
    # Each (request, cover) successor is applied on the engine state
    # and the endpoint masks just long enough to read its signature;
    # only an unseen one is entered through ``connect``.
    engine = net._state
    n, k = net.topology.n, net.topology.k
    in_used, out_used = net._input_used, net._output_used
    covers_of: dict[tuple[int, int, int], list[dict[int, int]]] = {}
    for request in _legal_requests(net, unicast_only=unicast_only):
        port, sw, destinations = request
        g = port // n
        in_after = in_used | 1 << (port * k + sw)
        out_after = out_used
        dest_mask = 0
        for p, v in destinations:
            dest_mask |= 1 << (p // n)
            out_after |= 1 << (p * k + v)
        covers = covers_of.get((g, sw, dest_mask))
        if covers is None:
            covers = covers_of[g, sw, dest_mask] = _all_covers(
                net, g, sw, dest_mask
            )
        connection = None
        for cover in covers:
            undo = engine.allocate(0, g, sw, cover)
            net._input_used, net._output_used = in_after, out_after
            key = signature()
            engine.free(0, g, sw, undo)
            net._input_used, net._output_used = in_used, out_used
            if key in seen:
                continue
            _enter(seen, key, state_budget)
            if connection is None:
                connection = _connection(request)
            forced = _cover_lists(cover)
            cid = net.connect(connection, force_middles=forced)
            live.append((
                connection,
                tuple(sorted((j, tuple(ps)) for j, ps in forced.items())),
            ))
            result = _dfs(
                net, seen, live, signature, first_blocked,
                unicast_only, state_budget,
            )
            live.pop()
            net.disconnect(cid)
            if result is not None:
                return result
    return None


class _BudgetExceeded(Exception):
    pass


def _exact_threshold(
    n: int,
    r: int,
    k: int,
    *,
    construction: Construction = Construction.MSW_DOMINANT,
    model: MulticastModel = MulticastModel.MSW,
    x: int = 1,
    m_max: int | None = None,
    state_budget: int = 100_000,
    unicast_only: bool = False,
    canonicalize: bool = True,
    jobs: int | str = 1,
    cache: "ResultCache | None" = None,
    kernel: str = "bitmask",
) -> ExactMinimal:
    """Scan ``m`` upward for the true nonblocking threshold.

    Returns the smallest ``m`` whose reachable-state space contains no
    blocking state (``m_exact``), along with the per-``m`` results.  If
    any check hits the budget before a nonblocking ``m`` is found, the
    scan is inconclusive and ``m_exact`` is None.

    The candidates are one ordered scan through
    :meth:`repro.perf.sweeper.ParallelSweeper.run`, which stops at the
    first ``m`` that is not blockable.  A serial plan (``jobs=1`` or any
    fallback) model-checks nothing above it; a pool checks every
    candidate and keeps the same prefix, so the result is bit-identical
    for any ``jobs``.  Each unit is one ``m``, because exact cells are
    exponential.

    With a :class:`repro.perf.cache.ResultCache`, each ``m`` cell is
    looked up before being model-checked and stored afterwards, making
    repeated and interrupted scans incremental.  ``kernel`` (the run's
    routing kernel) tags those cache addresses; the search itself is
    the same under every kernel.
    """
    if m_max is None:
        from repro.core.corrected import min_middle_switches_corrected

        m_max = min_middle_switches_corrected(n, r, k, construction, model, x=x)
    cell_kwargs = dict(
        construction=construction, model=model, x=x,
        state_budget=state_budget, unicast_only=unicast_only,
        canonicalize=canonicalize,
    )

    def cell_key(m: int) -> str | None:
        if cache is None:
            return None
        return cache.key(
            "is_blockable", dict(n=n, r=r, m=m, k=k, **cell_kwargs),
            kernel=kernel,
        )

    with ParallelSweeper(jobs, chunk_size=1) as sweeper:
        scanned = sweeper.run(
            (
                WorkUnit(
                    unit_id=m,
                    fn=is_blockable,
                    args=(n, r, m, k),
                    kwargs=cell_kwargs,
                    cache_key=cell_key(m),
                )
                for m in range(1, m_max + 1)
            ),
            cache=cache,
            until=lambda result: result.blockable is not True,
        )
    per_m = tuple(result.value for result in scanned)
    settled = bool(per_m) and per_m[-1].blockable is False
    return ExactMinimal(
        n=n, r=r, k=k,
        construction=construction, model=model, x=x,
        m_exact=per_m[-1].m if settled else None, per_m=per_m,
    )
