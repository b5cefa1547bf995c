"""Tests for the fabric graph and signal propagation."""

from __future__ import annotations

import pytest

from repro.fabric.components import (
    Combiner,
    FabricError,
    InputTerminal,
    OutputTerminal,
    SOAGate,
    Splitter,
    WavelengthConverter,
)
from repro.fabric.network import OpticalFabric
from repro.fabric.signal import OpticalSignal


def tiny_fabric():
    """in -> gate -> out."""
    fabric = OpticalFabric("tiny")
    source = fabric.add(InputTerminal("in"))
    gate = fabric.add(SOAGate("gate"))
    sink = fabric.add(OutputTerminal("out"))
    fabric.connect(source, 0, gate, 0)
    fabric.connect(gate, 0, sink, 0)
    return fabric, source, gate, sink


class TestWiring:
    def test_duplicate_name_rejected(self):
        fabric = OpticalFabric()
        fabric.add(SOAGate("g"))
        with pytest.raises(ValueError):
            fabric.add(SOAGate("g"))

    def test_bad_ports_rejected(self):
        fabric = OpticalFabric()
        a = fabric.add(SOAGate("a"))
        b = fabric.add(SOAGate("b"))
        with pytest.raises(ValueError):
            fabric.connect(a, 1, b, 0)
        with pytest.raises(ValueError):
            fabric.connect(a, 0, b, 1)

    def test_double_feed_rejected(self):
        fabric = OpticalFabric()
        a = fabric.add(SOAGate("a"))
        b = fabric.add(SOAGate("b"))
        c = fabric.add(SOAGate("c"))
        fabric.connect(a, 0, c, 0)
        with pytest.raises(ValueError):
            fabric.connect(b, 0, c, 0)

    def test_output_fanout_requires_splitter(self):
        fabric = OpticalFabric()
        a = fabric.add(SOAGate("a"))
        b = fabric.add(SOAGate("b"))
        c = fabric.add(SOAGate("c"))
        fabric.connect(a, 0, b, 0)
        with pytest.raises(ValueError, match="Splitter"):
            fabric.connect(a, 0, c, 0)

    def test_unconnected_input_detected(self):
        fabric = OpticalFabric()
        fabric.add(SOAGate("floating"))
        with pytest.raises(FabricError, match="unconnected"):
            fabric.check_wiring()

    def test_cycle_detected(self):
        fabric = OpticalFabric()
        a = fabric.add(SOAGate("a"))
        b = fabric.add(SOAGate("b"))
        fabric.connect(a, 0, b, 0)
        fabric.connect(b, 0, a, 0)
        with pytest.raises(FabricError, match="cycle"):
            fabric.propagate()


class TestTopologicalOrder:
    def test_one_generation_at_a_time(self):
        """Sources in insertion order, then successors generation by
        generation -- not depth first."""
        fabric = OpticalFabric()
        sink_b = fabric.add(OutputTerminal("out_b"))
        sink_a = fabric.add(OutputTerminal("out_a"))
        gate_a = fabric.add(SOAGate("gate_a"))
        gate_b = fabric.add(SOAGate("gate_b"))
        source_b = fabric.add(InputTerminal("in_b"))
        source_a = fabric.add(InputTerminal("in_a"))
        fabric.connect(source_a, 0, gate_a, 0)
        fabric.connect(source_b, 0, gate_b, 0)
        fabric.connect(gate_b, 0, sink_b, 0)
        fabric.connect(gate_a, 0, sink_a, 0)
        assert fabric.topological_order() == (
            "in_b", "in_a", "gate_b", "gate_a", "out_b", "out_a",
        )

    def test_parallel_fibers_release_together(self):
        fabric = OpticalFabric()
        source = fabric.add(InputTerminal("in"))
        splitter = fabric.add(Splitter("split", 2))
        combiner = fabric.add(Combiner("comb", 2))
        sink = fabric.add(OutputTerminal("out"))
        fabric.connect(source, 0, splitter, 0)
        fabric.connect(splitter, 1, combiner, 0)
        fabric.connect(splitter, 0, combiner, 1)
        fabric.connect(combiner, 0, sink, 0)
        assert fabric.topological_order() == ("in", "split", "comb", "out")
        assert fabric.fibers()[1:3] == [
            ("split", 1, "comb", 0),
            ("split", 0, "comb", 1),
        ]

    def test_rewiring_recomputes(self):
        fabric = OpticalFabric()
        source = fabric.add(InputTerminal("in"))
        sink = fabric.add(OutputTerminal("out"))
        gate = fabric.add(SOAGate("gate"))
        fabric.connect(source, 0, gate, 0)
        assert fabric.topological_order() == ("in", "out", "gate")
        fabric.connect(gate, 0, sink, 0)
        assert fabric.topological_order() == ("in", "gate", "out")
        fabric.add(SOAGate("late"))
        assert fabric.topological_order() == ("in", "late", "gate", "out")


class TestPropagation:
    def test_gate_on_delivers(self):
        fabric, source, gate, sink = tiny_fabric()
        source.inject([OpticalSignal.transmit(0, 0)])
        gate.enabled = True
        result = fabric.propagate()
        assert result.at("out") == (OpticalSignal.transmit(0, 0),)

    def test_gate_off_blocks(self):
        fabric, source, gate, sink = tiny_fabric()
        source.inject([OpticalSignal.transmit(0, 0)])
        result = fabric.propagate()
        assert result.at("out") == ()
        assert result.active_terminals() == {}

    def test_split_and_combine(self):
        fabric = OpticalFabric()
        source = fabric.add(InputTerminal("in"))
        splitter = fabric.add(Splitter("split", 2))
        gates = [fabric.add(SOAGate(f"g{i}")) for i in range(2)]
        sinks = [fabric.add(OutputTerminal(f"out{i}")) for i in range(2)]
        fabric.connect(source, 0, splitter, 0)
        for i in range(2):
            fabric.connect(splitter, i, gates[i], 0)
            fabric.connect(gates[i], 0, sinks[i], 0)
        gates[0].enabled = True
        gates[1].enabled = True
        source.inject([OpticalSignal.transmit(0, 0)])
        result = fabric.propagate()
        assert result.at("out0") == result.at("out1") == (
            OpticalSignal.transmit(0, 0),
        )

    def test_combiner_conflict_propagates(self):
        fabric = OpticalFabric()
        sources = [fabric.add(InputTerminal(f"in{i}")) for i in range(2)]
        combiner = fabric.add(Combiner("c", 2))
        sink = fabric.add(OutputTerminal("out"))
        for i in range(2):
            fabric.connect(sources[i], 0, combiner, i)
        fabric.connect(combiner, 0, sink, 0)
        for i, source in enumerate(sources):
            source.inject([OpticalSignal.transmit(i, 0)])
        from repro.fabric.components import CombinerConflictError

        with pytest.raises(CombinerConflictError):
            fabric.propagate()


class TestAccounting:
    def test_census_and_counts(self):
        fabric, *_ = tiny_fabric()
        fabric.add(WavelengthConverter("conv"))
        census = fabric.census()
        assert census["soa_gate"] == 1
        assert census["input_terminal"] == 1
        assert fabric.crosspoint_count() == 1
        assert fabric.converter_count() == 1

    def test_graph_export(self):
        fabric, *_ = tiny_fabric()
        assert [c.name for c in fabric.components()] == ["in", "gate", "out"]
        assert fabric.fibers() == [("in", 0, "gate", 0), ("gate", 0, "out", 0)]
        assert fabric.component("gate").kind == "soa_gate"

    def test_reset_gates(self):
        fabric, source, gate, sink = tiny_fabric()
        gate.enabled = True
        fabric.reset_gates()
        assert not gate.enabled

    def test_terminals_listed_in_insertion_order(self):
        fabric, source, gate, sink = tiny_fabric()
        assert fabric.input_terminals() == [source]
        assert fabric.output_terminals() == [sink]
