"""The single-wavelength N x N multicast space switch of Fig. 5.

Each input drives a 1-to-N splitter; each splitter branch passes through
an SOA gate (the crosspoint) into the per-output N-to-1 combiner.  With
``N**2`` gates the switch realizes any multicast assignment of one
wavelength: enabling gate ``(i, j)`` connects input ``i`` to output
``j``, and the combiner conflict rule (one active input at a time) is
exactly the no-two-sources-per-output restriction.

The module exposes both a plane *builder* (an ``a x b`` plane added to
a host fabric, used by every MSW module -- the crossbar of Fig. 4 and
the MSW stages of a three-stage network -- to stack ``k`` planes) and a
self-contained :class:`SpaceCrossbar` with terminals, used directly as
the ``k = 1`` network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.components import (
    Combiner,
    InputTerminal,
    OutputTerminal,
    SOAGate,
    Splitter,
)
from repro.fabric.network import OpticalFabric, PropagationResult
from repro.fabric.signal import OpticalSignal

__all__ = ["SpaceCrossbar", "SpacePlane", "build_space_plane"]


@dataclass(frozen=True)
class SpacePlane:
    """Handles to the components of one space plane inside a host fabric.

    Attributes:
        gate_names: ``gate_names[i][j]`` is the crosspoint from input ``i``
            to output ``j``.
        entries: per-input ``(component_name, input_port)`` to feed.
        exits: per-output ``(component_name, output_port)`` producing the
            plane's output fiber.
    """

    gate_names: tuple[tuple[str, ...], ...]
    entries: tuple[tuple[str, int], ...]
    exits: tuple[tuple[str, int], ...]


def build_space_plane(
    fabric: OpticalFabric, prefix: str, n_in: int, n_out: int
) -> SpacePlane:
    """Add an ``n_in x n_out`` space plane (Fig. 5) to ``fabric``.

    Args:
        fabric: host fabric receiving the components.
        prefix: unique name prefix for this plane's components.
        n_in: number of input fibers (one splitter each).
        n_out: number of output fibers (one combiner each).

    Returns:
        Handles for wiring and gate configuration.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError(f"plane size must be >= 1, got {n_in}x{n_out}")
    splitters = [
        fabric.add(Splitter(f"{prefix}.split{i}", n_out)) for i in range(n_in)
    ]
    combiners = [
        fabric.add(Combiner(f"{prefix}.comb{j}", n_in)) for j in range(n_out)
    ]
    gate_names: list[tuple[str, ...]] = []
    for i in range(n_in):
        row = []
        for j in range(n_out):
            gate = fabric.add(SOAGate(f"{prefix}.gate{i}_{j}"))
            fabric.connect(splitters[i], j, gate, 0)
            fabric.connect(gate, 0, combiners[j], i)
            row.append(gate.name)
        gate_names.append(tuple(row))
    return SpacePlane(
        gate_names=tuple(gate_names),
        entries=tuple((splitter.name, 0) for splitter in splitters),
        exits=tuple((combiner.name, 0) for combiner in combiners),
    )


class SpaceCrossbar:
    """A self-contained single-wavelength multicast crossbar (Fig. 5)."""

    def __init__(self, n_ports: int, name: str = "space"):
        self.n_ports = n_ports
        self.fabric = OpticalFabric(name)
        self.plane = build_space_plane(self.fabric, f"{name}.p", n_ports, n_ports)
        self._inputs = [
            self.fabric.add(InputTerminal(f"{name}.in{i}")) for i in range(n_ports)
        ]
        self._outputs = [
            self.fabric.add(OutputTerminal(f"{name}.out{j}")) for j in range(n_ports)
        ]
        for i in range(n_ports):
            entry_name, entry_port = self.plane.entries[i]
            self.fabric.connect(self._inputs[i], 0, entry_name, entry_port)
        for j in range(n_ports):
            exit_name, exit_port = self.plane.exits[j]
            self.fabric.connect(exit_name, exit_port, self._outputs[j], 0)

    def crosspoint_count(self) -> int:
        """Number of SOA gates; must equal ``N**2``."""
        return self.fabric.crosspoint_count()

    def configure(self, routes: dict[int, set[int] | frozenset[int]]) -> None:
        """Enable gates for ``{input_port: {output_ports}}`` multicast routes.

        Raises ValueError if two routes share an output port (the
        assignment would not be conflict-free).
        """
        claimed: set[int] = set()
        for input_port, output_ports in routes.items():
            overlap = claimed & set(output_ports)
            if overlap:
                raise ValueError(f"output ports used twice: {sorted(overlap)}")
            claimed |= set(output_ports)
        self.fabric.reset_gates()
        for input_port, output_ports in routes.items():
            for output_port in output_ports:
                gate_name = self.plane.gate_names[input_port][output_port]
                gate = self.fabric.component(gate_name)
                gate.enabled = True  # type: ignore[attr-defined]

    def run(self, routes: dict[int, set[int] | frozenset[int]]) -> PropagationResult:
        """Configure, inject one signal per active input, and propagate."""
        self.configure(routes)
        self.fabric.clear_inputs()
        for input_port in routes:
            self._inputs[input_port].inject(
                [OpticalSignal.transmit(input_port, 0)]
            )
        return self.fabric.propagate()

    def delivered(self, routes: dict[int, set[int] | frozenset[int]]) -> dict[int, int]:
        """Run and return the observed ``{output_port: source_port}`` map.

        Raises if any output receives more than one signal.
        """
        result = self.run(routes)
        delivery: dict[int, int] = {}
        for j, terminal in enumerate(self._outputs):
            signals = result.at(terminal.name)
            if len(signals) > 1:
                raise RuntimeError(
                    f"output {j} received {len(signals)} signals"
                )
            if signals:
                delivery[j] = signals[0].source_port
        return delivery
