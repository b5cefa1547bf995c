"""Optical power budget and crosstalk accounting.

Section 2.3 remarks that "though not a direct measure, the number of
crosspoints may also be used to project the crosstalk and power loss
inside a WDM switch".  This module makes the projection direct: given a
built fabric (crossbar or composed multistage network), it computes

* the **worst-case insertion loss** of any input->output light path --
  splitting loss ``10 log10(fanout)`` at splitters, combining loss
  ``10 log10(fanin)`` at passive combiners, plus fixed per-component
  insertion losses (and optional SOA gain, which is negative loss);
* the **crosstalk stage count** -- the maximum number of SOA gates
  cascaded on any path, the standard first-order proxy for accumulated
  crosstalk in gate-based optical switches.

Both are exact longest-path computations over the fabric DAG, so they
reflect the *actual constructed* network, not an idealized formula.
The benchmark ``bench_power.py`` uses them to quantify the flip side of
Table 2: the multistage design saves gates but pays more optical loss
per path (three cascaded modules), a trade-off the paper's crosspoint
metric alone does not show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.fabric.components import Component, InputTerminal, OutputTerminal
from repro.fabric.network import OpticalFabric

__all__ = ["LossBudget", "PowerReport", "analyze_power"]


@dataclass(frozen=True)
class LossBudget:
    """Per-component insertion losses in dB (positive = loss).

    Defaults are typical textbook values for integrated optical
    switching fabrics; adjust to taste -- the comparisons in the
    benchmarks are insensitive to the exact constants.
    """

    splitter_excess_db: float = 0.5
    combiner_excess_db: float = 0.5
    gate_insertion_db: float = 1.0
    gate_gain_db: float = 0.0  # SOAs can amplify; positive gain offsets loss
    converter_insertion_db: float = 2.0
    mux_insertion_db: float = 1.5
    demux_insertion_db: float = 1.5

    def component_loss(self, component: Component) -> float:
        """Loss (dB) contributed by passing through ``component``."""
        kind = component.kind
        if kind == "splitter":
            return 10.0 * math.log10(component.n_outputs) + self.splitter_excess_db
        if kind == "combiner":
            return 10.0 * math.log10(component.n_inputs) + self.combiner_excess_db
        if kind == "soa_gate":
            return self.gate_insertion_db - self.gate_gain_db
        if kind == "wavelength_converter":
            return self.converter_insertion_db
        if kind == "mux":
            return self.mux_insertion_db
        if kind == "demux":
            return self.demux_insertion_db
        return 0.0  # terminals


@dataclass(frozen=True)
class PowerReport:
    """Worst-case optical path metrics of one fabric."""

    fabric_name: str
    worst_loss_db: float
    worst_loss_path: tuple[str, ...]
    max_gate_cascade: int
    max_path_components: int
    budget: LossBudget = field(compare=False, default_factory=LossBudget)

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.fabric_name}: worst path {self.worst_loss_db:.1f} dB over "
            f"{self.max_path_components} components, "
            f"{self.max_gate_cascade} cascaded gates"
        )


def analyze_power(
    fabric: OpticalFabric, budget: LossBudget | None = None
) -> PowerReport:
    """Longest-loss-path analysis of a fabric.

    Computes, over every structural input-terminal -> output-terminal
    path (independent of gate configuration -- light *can* take the
    path when the gates on it are enabled):

    * the maximum total insertion loss;
    * the maximum number of cascaded SOA gates (crosstalk stages);
    * the maximum component count on a path.

    Args:
        fabric: a wired fabric (wiring is validated first).
        budget: per-component losses; defaults to :class:`LossBudget`.

    Returns:
        The :class:`PowerReport`.

    Raises:
        repro.fabric.components.FabricError: unwired inputs or cycles.
        ValueError: the fabric has no input->output path.
    """
    budget = budget or LossBudget()
    fabric.check_wiring()
    # Each component's feeding components, in first-fiber order.
    feeders: dict[str, dict[str, None]] = {}
    for src, _, dst, _ in fabric.fibers():
        feeders.setdefault(dst, {})[src] = None
    # Three independent longest-path DPs: loss, gate count, component count
    # (the max-gates path need not coincide with the max-loss path).
    loss_best: dict[str, tuple[float, str | None]] = {}
    gates_best: dict[str, int] = {}
    count_best: dict[str, int] = {}
    for name in fabric.topological_order():
        component = fabric.component(name)
        loss_here = budget.component_loss(component)
        gate_here = 1 if component.kind == "soa_gate" else 0
        if isinstance(component, InputTerminal):
            loss_best[name] = (loss_here, None)
            gates_best[name] = gate_here
            count_best[name] = 1
            continue
        reachable = [p for p in feeders.get(name, ()) if p in loss_best]
        if not reachable:
            continue  # not reachable from any input terminal
        incoming = max(reachable, key=lambda p: loss_best[p][0])
        loss_best[name] = (loss_best[incoming][0] + loss_here, incoming)
        gates_best[name] = max(gates_best[p] for p in reachable) + gate_here
        count_best[name] = max(count_best[p] for p in reachable) + 1

    terminal_names = [
        name
        for name in loss_best
        if isinstance(fabric.component(name), OutputTerminal)
    ]
    if not terminal_names:
        raise ValueError(f"{fabric.name}: no input->output path found")

    worst_name = max(terminal_names, key=lambda name: loss_best[name][0])
    worst_loss = loss_best[worst_name][0]
    max_gates = max(gates_best[name] for name in terminal_names)
    max_components = max(count_best[name] for name in terminal_names)

    # Reconstruct the worst-loss path for the report.
    path: list[str] = []
    cursor: str | None = worst_name
    while cursor is not None:
        path.append(cursor)
        cursor = loss_best[cursor][1]
    path.reverse()

    return PowerReport(
        fabric_name=fabric.name,
        worst_loss_db=worst_loss,
        worst_loss_path=tuple(path),
        max_gate_cascade=max_gates,
        max_path_components=max_components,
        budget=budget,
    )
