"""The WDM crossbar constructions of Figs. 4, 6 and 7.

Three concrete fabrics, one per multicast model:

* :class:`MSWCrossbar` (Fig. 4) -- ``k`` parallel single-wavelength
  space planes between per-port demultiplexers and multiplexers.
  ``k N**2`` crosspoints, no converters.
* :class:`MSDWCrossbar` (Fig. 6) -- a converter on every *input*
  wavelength (before its splitter), then full ``Nk x Nk`` gate reach.
  ``k**2 N**2`` crosspoints, ``N k`` converters.
* :class:`MAWCrossbar` (Fig. 7) -- full gate reach first, then a
  converter on every *output* wavelength (after its combiner).
  ``k**2 N**2`` crosspoints, ``N k`` converters.

Each is an external-terminal wrapper around one square
:class:`repro.fabric.modules.WDMModule` -- the same component structures
the multistage fabric uses for its modules, so crossbar tests and
multistage tests exercise one implementation.

All three share the :class:`WDMCrossbar` interface: ``realize`` takes a
legal :class:`repro.switching.requests.MulticastAssignment`, configures
gates and converters, injects one test signal per active source, runs
the photon propagation, and verifies that exactly the requested signals
arrive (right origin, right carrier) at exactly the requested output
endpoints.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from repro.core.models import MulticastModel
from repro.fabric.components import InputTerminal, OutputTerminal
from repro.fabric.modules import build_wdm_module
from repro.fabric.network import OpticalFabric, PropagationResult
from repro.fabric.signal import OpticalSignal
from repro.switching.requests import Endpoint, MulticastAssignment
from repro.switching.validity import check_assignment

__all__ = [
    "DeliveryError",
    "MAWCrossbar",
    "MSDWCrossbar",
    "MSWCrossbar",
    "WDMCrossbar",
    "build_crossbar",
    "check_delivery",
]


class DeliveryError(RuntimeError):
    """The propagated light does not match the requested assignment."""


def check_delivery(
    expected: Mapping[Endpoint, Endpoint],
    result: PropagationResult,
    outputs: Sequence[OutputTerminal],
) -> None:
    """Check arrivals == requests, origin and carrier included.

    Args:
        expected: source endpoint per requested output endpoint.
        result: the propagation to check.
        outputs: the output terminals, indexed by output port.

    Raises:
        DeliveryError: two signals on one output endpoint, a missing or
            stray arrival, or a signal from the wrong source.
    """
    observed: dict[Endpoint, OpticalSignal] = {}
    for port, terminal in enumerate(outputs):
        for signal in result.at(terminal.name):
            endpoint = Endpoint(port, signal.wavelength)
            if endpoint in observed:
                raise DeliveryError(f"two signals at output endpoint {endpoint}")
            observed[endpoint] = signal
    missing = set(expected) - set(observed)
    stray = set(observed) - set(expected)
    if missing or stray:
        raise DeliveryError(
            f"delivery mismatch: missing={sorted(missing)} stray={sorted(stray)}"
        )
    for endpoint, source in expected.items():
        signal = observed[endpoint]
        if (signal.source_port, signal.source_wavelength) != (
            source.port,
            source.wavelength,
        ):
            raise DeliveryError(
                f"wrong signal at {endpoint}: got origin "
                f"({signal.source_port}, {signal.source_wavelength}), "
                f"expected ({source.port}, {source.wavelength})"
            )


class WDMCrossbar:
    """An ``N x N`` ``k``-wavelength multicast crossbar under one model."""

    model: MulticastModel

    def __init__(self, n_ports: int, k: int, name: str):
        if n_ports < 1:
            raise ValueError(f"network size N must be >= 1, got {n_ports}")
        if k < 1:
            raise ValueError(f"wavelength count k must be >= 1, got {k}")
        self.n_ports = n_ports
        self.k = k
        self.fabric = OpticalFabric(name)
        self.module = build_wdm_module(
            self.fabric, f"{name}.xbar", self.model, n_ports, n_ports, k
        )
        self._inputs = []
        self._outputs = []
        for p in range(n_ports):
            terminal = self.fabric.add(InputTerminal(f"{name}.in{p}"))
            entry_name, entry_port = self.module.entries[p]
            self.fabric.connect(terminal, 0, entry_name, entry_port)
            self._inputs.append(terminal)
        for q in range(n_ports):
            terminal = self.fabric.add(OutputTerminal(f"{name}.out{q}"))
            exit_name, exit_port = self.module.exits[q]
            self.fabric.connect(exit_name, exit_port, terminal, 0)
            self._outputs.append(terminal)
        self.fabric.check_wiring()

    # -- accounting -----------------------------------------------------

    def crosspoint_count(self) -> int:
        """SOA gate count; must match Table 1."""
        return self.fabric.crosspoint_count()

    def converter_count(self) -> int:
        """Wavelength converter count; must match Table 1."""
        return self.fabric.converter_count()

    # -- realization -------------------------------------------------------

    def realize(self, assignment: MulticastAssignment) -> PropagationResult:
        """Configure the fabric for ``assignment`` and propagate light.

        The assignment is validated against this crossbar's model first;
        then every active source endpoint transmits one signal and the
        arrivals are checked against the assignment's mapping.

        Raises:
            repro.switching.validity.ValidityError: illegal assignment.
            DeliveryError: the fabric delivered the wrong light (a bug).
        """
        check_assignment(assignment, self.model, self.n_ports, self.k)
        self.module.reset()
        self.fabric.clear_inputs()
        for connection in assignment:
            self.module.route(
                connection.source.port,
                connection.source.wavelength,
                [(d.port, d.wavelength) for d in connection.destinations],
            )
        per_port: dict[int, list[OpticalSignal]] = defaultdict(list)
        for source in assignment.used_input_endpoints():
            per_port[source.port].append(
                OpticalSignal.transmit(source.port, source.wavelength)
            )
        for port, signals in per_port.items():
            self._inputs[port].inject(signals)
        result = self.fabric.propagate()
        check_delivery(assignment.to_mapping(), result, self._outputs)
        return result

class MSWCrossbar(WDMCrossbar):
    """Fig. 4: ``k`` parallel space planes, one per wavelength."""

    model = MulticastModel.MSW


class MSDWCrossbar(WDMCrossbar):
    """Fig. 6: converters on the input side, one per input wavelength."""

    model = MulticastModel.MSDW


class MAWCrossbar(WDMCrossbar):
    """Fig. 7: converters on the output side, one per output wavelength."""

    model = MulticastModel.MAW


def build_crossbar(model: MulticastModel, n_ports: int, k: int) -> WDMCrossbar:
    """Construct the crossbar of Figs. 4/6/7 for the given model."""
    if model is MulticastModel.MSW:
        return MSWCrossbar(n_ports, k, f"msw{n_ports}x{k}")
    if model is MulticastModel.MSDW:
        return MSDWCrossbar(n_ports, k, f"msdw{n_ports}x{k}")
    return MAWCrossbar(n_ports, k, f"maw{n_ports}x{k}")
