"""Physical (component-level) realization of a three-stage network.

This glues the two simulation levels of the reproduction together: the
*state-level* router (:class:`repro.multistage.network.ThreeStageNetwork`)
decides which middle switches and wavelengths a connection uses; the
*fabric-backed* network here builds every module of the ``v(n, r, m, k)``
topology out of real components (gates, splitters, combiners,
converters), wires the inter-stage fibers, mirrors the router's
decisions into gate/converter settings, and propagates actual signals
end to end.

If the router ever produced a physically impossible configuration --
two signals on one link wavelength, a combiner conflict, an MSW module
asked to convert -- the propagation would raise.  The integration tests
drive random traffic through both levels simultaneously, which is the
strongest correctness evidence this reproduction offers for Section 3.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.core.models import Construction, MulticastModel
from repro.fabric.components import InputTerminal, OutputTerminal
from repro.fabric.modules import WDMModule, build_wdm_module
from repro.fabric.network import OpticalFabric, PropagationResult
from repro.fabric.signal import OpticalSignal
from repro.fabric.wdm_crossbar import check_delivery
from repro.multistage.network import RoutedConnection
from repro.multistage.topology import ThreeStageTopology
from repro.switching.requests import Endpoint

__all__ = ["FabricBackedThreeStage"]


class FabricBackedThreeStage:
    """A ``v(n, r, m, k)`` network built entirely from optical components."""

    def __init__(
        self,
        n: int,
        r: int,
        m: int,
        k: int,
        *,
        construction: Construction = Construction.MSW_DOMINANT,
        model: MulticastModel = MulticastModel.MSW,
    ):
        self.topology = ThreeStageTopology(n, r, m, k)
        self.construction = construction
        self.model = model
        self.fabric = OpticalFabric(f"v({n},{r},{m},{k})")
        inner = construction.inner_model

        self.input_modules: list[WDMModule] = [
            build_wdm_module(self.fabric, f"in{g}", inner, n, m, k)
            for g in range(r)
        ]
        self.middle_modules: list[WDMModule] = [
            build_wdm_module(self.fabric, f"mid{j}", inner, r, r, k)
            for j in range(m)
        ]
        self.output_modules: list[WDMModule] = [
            build_wdm_module(self.fabric, f"out{p}", model, m, n, k)
            for p in range(r)
        ]

        # Inter-stage fibers: one per module pair in adjacent stages.
        for g in range(r):
            for j in range(m):
                src_name, src_port = self.input_modules[g].exits[j]
                dst_name, dst_port = self.middle_modules[j].entries[g]
                self.fabric.connect(src_name, src_port, dst_name, dst_port)
        for j in range(m):
            for p in range(r):
                src_name, src_port = self.middle_modules[j].exits[p]
                dst_name, dst_port = self.output_modules[p].entries[j]
                self.fabric.connect(src_name, src_port, dst_name, dst_port)

        # External terminals, one per global port.
        self._inputs: list[InputTerminal] = []
        self._outputs: list[OutputTerminal] = []
        for port in range(self.topology.n_ports):
            g = self.topology.input_module_of(port)
            local = self.topology.local_port(port)
            terminal = self.fabric.add(InputTerminal(f"port_in{port}"))
            dst_name, dst_port = self.input_modules[g].entries[local]
            self.fabric.connect(terminal, 0, dst_name, dst_port)
            self._inputs.append(terminal)
        for port in range(self.topology.n_ports):
            p = self.topology.output_module_of(port)
            local = self.topology.local_port(port)
            terminal = self.fabric.add(OutputTerminal(f"port_out{port}"))
            src_name, src_port = self.output_modules[p].exits[local]
            self.fabric.connect(src_name, src_port, terminal, 0)
            self._outputs.append(terminal)
        self.fabric.check_wiring()

    # -- accounting ------------------------------------------------------

    def crosspoint_count(self) -> int:
        """Total SOA gates; must match Section 3.4's stage sums."""
        return self.fabric.crosspoint_count()

    def converter_count(self) -> int:
        """Total converters; must match Section 3.4's converter counts."""
        return self.fabric.converter_count()

    # -- realization ---------------------------------------------------------

    def realize(
        self, routed: Iterable[RoutedConnection]
    ) -> PropagationResult:
        """Mirror routed connections into the fabric and propagate light.

        Args:
            routed: the live connections of a state-level
                :class:`~repro.multistage.network.ThreeStageNetwork` with
                the *same* topology, construction and model.

        Returns:
            The propagation result, after verifying that every requested
            output endpoint received its source's signal on its own
            wavelength and nothing else lit up.

        Raises:
            repro.fabric.wdm_crossbar.DeliveryError: wrong, missing or
                stray light at the outputs.
            repro.fabric.components.FabricError: physical conflict inside
                the fabric (indicates a router bug).
        """
        routed = list(routed)
        for module in (
            self.input_modules + self.middle_modules + self.output_modules
        ):
            module.reset()
        self.fabric.clear_inputs()

        expected: dict[Endpoint, Endpoint] = {}
        per_port_signals: dict[int, list[OpticalSignal]] = defaultdict(list)
        for connection in routed:
            request = connection.request
            g = connection.input_module
            local_source = self.topology.local_port(request.source.port)
            source_wavelength = request.source.wavelength

            # Input module: source channel to the chosen middle fibers.
            self.input_modules[g].route(
                local_source,
                source_wavelength,
                [(branch.middle, branch.in_wavelength) for branch in connection.branches],
            )
            # Middle modules: one pass per branch.
            destinations_by_module: dict[int, list[Endpoint]] = defaultdict(list)
            for destination in request.destinations:
                destinations_by_module[
                    self.topology.output_module_of(destination.port)
                ].append(destination)
            for branch in connection.branches:
                self.middle_modules[branch.middle].route(
                    g,
                    branch.in_wavelength,
                    list(branch.deliveries),
                )
                # Output modules: from the arriving fiber to the ports.
                for p, link_wavelength in branch.deliveries:
                    deliveries = [
                        (self.topology.local_port(d.port), d.wavelength)
                        for d in destinations_by_module[p]
                    ]
                    self.output_modules[p].route(
                        branch.middle, link_wavelength, deliveries
                    )

            per_port_signals[request.source.port].append(
                OpticalSignal.transmit(request.source.port, source_wavelength)
            )
            for destination in request.destinations:
                expected[destination] = request.source

        for port, signals in per_port_signals.items():
            self._inputs[port].inject(signals)
        result = self.fabric.propagate()
        check_delivery(expected, result, self._outputs)
        return result
