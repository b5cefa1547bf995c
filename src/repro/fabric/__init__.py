"""Component-level optical fabric construction and simulation.

Builds the crossbar designs of the paper's Figs. 4-7 out of explicit
optical components -- wavelength demultiplexers/multiplexers, passive
splitters and combiners, SOA gate crosspoints, and wavelength
converters -- wires them into a directed acyclic fabric graph, and
propagates optical signals through the configured fabric.

The fabrics serve two purposes in the reproduction:

* **cost validation**: walking a built fabric and counting its gates and
  converters must reproduce the closed-form costs of Table 1 exactly;
* **behavioural validation**: realizing a legal multicast assignment by
  configuring gates/converters and propagating photons must deliver the
  right signal (source identity *and* wavelength) at every requested
  output endpoint, with no combiner conflicts anywhere -- the physical
  meaning of "nonblocking".
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.fabric.components import (
        Combiner,
        CombinerConflictError,
        Component,
        Demux,
        InputTerminal,
        Mux,
        MuxConflictError,
        OutputTerminal,
        SOAGate,
        Splitter,
        WavelengthConverter,
    )
    from repro.fabric.dot import to_dot
    from repro.fabric.modules import WDMModule, build_wdm_module
    from repro.fabric.network import OpticalFabric, PropagationResult
    from repro.fabric.power import LossBudget, PowerReport, analyze_power
    from repro.fabric.signal import OpticalSignal
    from repro.fabric.space_crossbar import SpaceCrossbar
    from repro.fabric.wdm_crossbar import (
        MAWCrossbar,
        MSDWCrossbar,
        MSWCrossbar,
        WDMCrossbar,
        build_crossbar,
    )

__all__ = [
    "Combiner",
    "CombinerConflictError",
    "Component",
    "Demux",
    "InputTerminal",
    "LossBudget",
    "MAWCrossbar",
    "MSDWCrossbar",
    "MSWCrossbar",
    "Mux",
    "MuxConflictError",
    "OpticalFabric",
    "OpticalSignal",
    "OutputTerminal",
    "PowerReport",
    "PropagationResult",
    "SOAGate",
    "SpaceCrossbar",
    "Splitter",
    "WDMCrossbar",
    "WDMModule",
    "WavelengthConverter",
    "analyze_power",
    "build_crossbar",
    "to_dot",
    "build_wdm_module",
]

__getattr__, __dir__ = attach(__name__)
