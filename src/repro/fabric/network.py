"""The fabric graph: components wired port-to-port, with signal propagation.

An :class:`OpticalFabric` is a directed acyclic multigraph whose nodes
are :class:`repro.fabric.components.Component` instances and whose edges
connect an output port of one component to an input port of another
(exactly one fiber per input port).  The fabric owns its wiring
(:meth:`OpticalFabric.fibers`) and its propagation order
(:meth:`OpticalFabric.topological_order`); the power analysis and the
DOT export read both from it.  Propagation evaluates the components in
that order -- the optical analogue of combinational circuit simulation.

The census methods make the fabric double as a cost model: counting the
SOA gates of a built network must reproduce Table 1's crosspoint counts,
and counting converters its converter counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.fabric.components import (
    Component,
    FabricError,
    InputTerminal,
    OutputTerminal,
    SOAGate,
    WavelengthConverter,
)
from repro.fabric.signal import OpticalSignal

__all__ = ["OpticalFabric", "PropagationResult"]


@dataclass(frozen=True)
class PropagationResult:
    """Signals recorded at the output terminals after one propagation."""

    received: dict[str, tuple[OpticalSignal, ...]]

    def at(self, terminal_name: str) -> tuple[OpticalSignal, ...]:
        """Signals that arrived at the named output terminal."""
        return self.received[terminal_name]

    def active_terminals(self) -> dict[str, tuple[OpticalSignal, ...]]:
        """Only the terminals that actually received light."""
        return {name: sigs for name, sigs in self.received.items() if sigs}


class OpticalFabric:
    """A wired network of optical components.

    Wiring rules enforced at construction time:

    * component names are unique;
    * every input port is fed by exactly one fiber;
    * every output port feeds exactly one fiber (split light explicitly
      with a :class:`Splitter`);
    * the graph is acyclic (checked lazily at first propagation).
    """

    def __init__(self, name: str = "fabric"):
        self.name = name
        self._components: dict[str, Component] = {}
        # (dst_name, dst_port) -> (src_name, src_port)
        self._feeds: dict[tuple[str, int], tuple[str, int]] = {}
        self._source_used: set[tuple[str, int]] = set()
        self._order: tuple[str, ...] | None = None

    # -- construction ---------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        if component.name in self._components:
            raise ValueError(f"duplicate component name: {component.name}")
        self._components[component.name] = component
        self._order = None
        return component

    def connect(
        self, src: Component | str, src_port: int, dst: Component | str, dst_port: int
    ) -> None:
        """Run a fiber from ``src``'s output port to ``dst``'s input port."""
        src_name = src if isinstance(src, str) else src.name
        dst_name = dst if isinstance(dst, str) else dst.name
        source = self._components[src_name]
        destination = self._components[dst_name]
        if not 0 <= src_port < source.n_outputs:
            raise ValueError(
                f"{src_name} has no output port {src_port} "
                f"(has {source.n_outputs})"
            )
        if not 0 <= dst_port < destination.n_inputs:
            raise ValueError(
                f"{dst_name} has no input port {dst_port} "
                f"(has {destination.n_inputs})"
            )
        if (dst_name, dst_port) in self._feeds:
            raise ValueError(f"input port {dst_name}[{dst_port}] already fed")
        if (src_name, src_port) in self._source_used:
            raise ValueError(
                f"output port {src_name}[{src_port}] already feeds a fiber; "
                "use a Splitter to fan out"
            )
        self._feeds[(dst_name, dst_port)] = (src_name, src_port)
        self._source_used.add((src_name, src_port))
        self._order = None

    # -- inspection -------------------------------------------------------

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        return self._components[name]

    def components(self) -> list[Component]:
        """All components, in insertion order."""
        return list(self._components.values())

    def census(self) -> Counter[str]:
        """Component counts by kind (``soa_gate``, ``splitter``, ...)."""
        return Counter(component.kind for component in self._components.values())

    def crosspoint_count(self) -> int:
        """Number of SOA gates -- the paper's crosspoint cost."""
        return sum(
            1 for c in self._components.values() if isinstance(c, SOAGate)
        )

    def converter_count(self) -> int:
        """Number of wavelength converters -- the paper's converter cost."""
        return sum(
            1
            for c in self._components.values()
            if isinstance(c, WavelengthConverter)
        )

    def input_terminals(self) -> list[InputTerminal]:
        """All input terminals, in insertion order."""
        return [
            c for c in self._components.values() if isinstance(c, InputTerminal)
        ]

    def output_terminals(self) -> list[OutputTerminal]:
        """All output terminals, in insertion order."""
        return [
            c for c in self._components.values() if isinstance(c, OutputTerminal)
        ]

    def fibers(self) -> list[tuple[str, int, str, int]]:
        """Every fiber as ``(src, src_port, dst, dst_port)``, in wiring order."""
        return [
            (src_name, src_port, dst_name, dst_port)
            for (dst_name, dst_port), (src_name, src_port) in self._feeds.items()
        ]

    def topological_order(self) -> tuple[str, ...]:
        """Component names in propagation order.

        Kahn's algorithm, one generation at a time: first every
        component no fiber feeds, in insertion order; then, for each
        component of a generation in turn, the successors it was the
        last feeder of, in the order of their first fiber from it.
        Parallel fibers between two components count together.  The
        power analysis breaks ties between equal losses by this order.

        Raises:
            repro.fabric.components.FabricError: the wiring has a cycle.
        """
        if self._order is None:
            successors: dict[str, Counter[str]] = {
                name: Counter() for name in self._components
            }
            unfed = dict.fromkeys(self._components, 0)
            for (dst_name, _), (src_name, _) in self._feeds.items():
                successors[src_name][dst_name] += 1
                unfed[dst_name] += 1
            generation = [name for name, count in unfed.items() if count == 0]
            order: list[str] = []
            while generation:
                order.extend(generation)
                following = []
                for name in generation:
                    for child, fibers in successors[name].items():
                        unfed[child] -= fibers
                        if unfed[child] == 0:
                            following.append(child)
                generation = following
            if len(order) < len(self._components):
                raise FabricError(f"{self.name}: fabric graph has a cycle")
            self._order = tuple(order)
        return self._order

    # -- simulation --------------------------------------------------------

    def check_wiring(self) -> None:
        """Verify every non-terminal input port is fed; raise otherwise."""
        for name, component in self._components.items():
            for port in range(component.n_inputs):
                if (name, port) not in self._feeds:
                    raise FabricError(f"input port {name}[{port}] is unconnected")

    def propagate(self) -> PropagationResult:
        """Evaluate the fabric with the currently injected signals.

        Raises :class:`repro.fabric.components.FabricError` subclasses on
        any physical conflict (combiner/mux collisions, stray carriers).
        """
        self.check_wiring()
        # Output signals per (component, out_port).
        port_signals: dict[tuple[str, int], list[OpticalSignal]] = {}
        for name in self.topological_order():
            component = self._components[name]
            inputs = []
            for port in range(component.n_inputs):
                src = self._feeds[(name, port)]
                inputs.append(list(port_signals.get(src, [])))
            outputs = component.transfer(inputs)
            for port, bundle in enumerate(outputs):
                port_signals[(name, port)] = bundle
        return PropagationResult(
            received={
                terminal.name: tuple(terminal.received)
                for terminal in self.output_terminals()
            }
        )

    def clear_inputs(self) -> None:
        """Remove all injected signals."""
        for terminal in self.input_terminals():
            terminal.clear()

    def reset_gates(self) -> None:
        """Disable every SOA gate (all-dark fabric)."""
        for component in self._components.values():
            if isinstance(component, SOAGate):
                component.enabled = False
