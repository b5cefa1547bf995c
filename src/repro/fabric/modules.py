"""Rectangular WDM switching modules, embeddable in a host fabric.

The multistage constructions of Section 3 are built from rectangular
``a x b`` ``k``-wavelength multicast modules, each running under one of
the three models.  This module provides a generic builder that adds such
a module's components to a host :class:`repro.fabric.network.OpticalFabric`
and returns a handle exposing:

* ``entries`` / ``exits`` -- the ``(component, port)`` attachment points
  of the module's ``a`` input and ``b`` output fibers;
* :meth:`WDMModule.route` -- configure one multicast pass through the
  module: from ``(input fiber, wavelength)`` to a set of
  ``(output fiber, wavelength)`` deliveries, enforcing the module
  model's conversion ability (an MSW module cannot change wavelengths;
  an MSDW module converts once per input channel; a MAW module delivers
  on any wavelength via its static output converters).

The square crossbars of Figs. 4-7 (:mod:`repro.fabric.wdm_crossbar`)
and the fabric-backed three-stage network
(:mod:`repro.multistage.fabric_backed`) are both thin wrappers around
these modules, so the same gate/converter structures are exercised by
the crossbar tests and the end-to-end multistage tests.

Component counts per module (validated against
:func:`repro.core.multistage.module_crosspoints` /
``module_converters``):

=======  ================  ==================
model    SOA gates         converters
=======  ================  ==================
MSW      ``k a b``         0
MSDW     ``k**2 a b``      ``a k`` (input side)
MAW      ``k**2 a b``      ``b k`` (output side)
=======  ================  ==================
"""

from __future__ import annotations

from repro.core.models import MulticastModel
from repro.fabric.components import (
    Combiner,
    Demux,
    Mux,
    SOAGate,
    Splitter,
    WavelengthConverter,
)
from repro.fabric.network import OpticalFabric
from repro.fabric.space_crossbar import build_space_plane

__all__ = ["WDMModule", "build_wdm_module"]


class WDMModule:
    """Handle to one rectangular module's components inside a host fabric."""

    def __init__(
        self,
        fabric: OpticalFabric,
        prefix: str,
        model: MulticastModel,
        n_in: int,
        n_out: int,
        k: int,
    ):
        if n_in < 1 or n_out < 1:
            raise ValueError(
                f"module needs n_in >= 1 and n_out >= 1, got {n_in}x{n_out}"
            )
        if k < 1:
            raise ValueError(f"wavelength count k must be >= 1, got {k}")
        self.fabric = fabric
        self.prefix = prefix
        self.model = model
        self.n_in = n_in
        self.n_out = n_out
        self.k = k
        #: (component name, port) feeding each of the module's input fibers
        self.entries: list[tuple[str, int]] = []
        #: (component name, port) producing each of the module's output fibers
        self.exits: list[tuple[str, int]] = []
        self._gates: dict[tuple[int, int, int, int], str] = {}
        self._input_converters: dict[tuple[int, int], WavelengthConverter] = {}
        self._routed_channels: set[tuple[int, int]] = set()
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        if self.model is MulticastModel.MSW:
            self._build_msw()
        else:
            self._build_full_reach()

    def _build_msw(self) -> None:
        """k parallel rectangular space planes between demuxes and muxes."""
        fabric, prefix = self.fabric, self.prefix
        planes = [
            build_space_plane(fabric, f"{prefix}.plane{w}", self.n_in, self.n_out)
            for w in range(self.k)
        ]
        for i in range(self.n_in):
            demux = fabric.add(Demux(f"{prefix}.demux{i}", self.k))
            self.entries.append((demux.name, 0))
            for w in range(self.k):
                entry_name, entry_port = planes[w].entries[i]
                fabric.connect(demux, w, entry_name, entry_port)
        for j in range(self.n_out):
            mux = fabric.add(Mux(f"{prefix}.mux{j}", self.k))
            for w in range(self.k):
                exit_name, exit_port = planes[w].exits[j]
                fabric.connect(exit_name, exit_port, mux, w)
            self.exits.append((mux.name, 0))
        for w, plane in enumerate(planes):
            for i in range(self.n_in):
                for j in range(self.n_out):
                    self._gates[(i, w, j, w)] = plane.gate_names[i][j]

    def _build_full_reach(self) -> None:
        """MSDW/MAW: full (a k) x (b k) gate mesh with converters."""
        fabric, prefix = self.fabric, self.prefix
        a, b, k = self.n_in, self.n_out, self.k
        splitters: dict[tuple[int, int], Splitter] = {}
        for i in range(a):
            demux = fabric.add(Demux(f"{prefix}.demux{i}", k))
            self.entries.append((demux.name, 0))
            for w in range(k):
                splitter = fabric.add(Splitter(f"{prefix}.split{i}_{w}", b * k))
                splitters[(i, w)] = splitter
                if self.model is MulticastModel.MSDW:
                    converter = fabric.add(
                        WavelengthConverter(f"{prefix}.conv_in{i}_{w}")
                    )
                    fabric.connect(demux, w, converter, 0)
                    fabric.connect(converter, 0, splitter, 0)
                    self._input_converters[(i, w)] = converter
                else:
                    fabric.connect(demux, w, splitter, 0)

        combiners: dict[tuple[int, int], Combiner] = {}
        for j in range(b):
            mux = fabric.add(Mux(f"{prefix}.mux{j}", k))
            self.exits.append((mux.name, 0))
            for v in range(k):
                combiner = fabric.add(Combiner(f"{prefix}.comb{j}_{v}", a * k))
                combiners[(j, v)] = combiner
                if self.model is MulticastModel.MAW:
                    converter = fabric.add(
                        WavelengthConverter(f"{prefix}.conv_out{j}_{v}", v)
                    )
                    fabric.connect(combiner, 0, converter, 0)
                    fabric.connect(converter, 0, mux, v)
                else:
                    fabric.connect(combiner, 0, mux, v)

        for i in range(a):
            for w in range(k):
                for j in range(b):
                    for v in range(k):
                        gate = fabric.add(
                            SOAGate(f"{prefix}.gate{i}_{w}__{j}_{v}")
                        )
                        fabric.connect(splitters[(i, w)], j * k + v, gate, 0)
                        fabric.connect(gate, 0, combiners[(j, v)], i * k + w)
                        self._gates[(i, w, j, v)] = gate.name

    # -- configuration -------------------------------------------------------

    def reset(self) -> None:
        """Disable all routes (gates off, MSDW converters transparent)."""
        for gate_name in self._gates.values():
            self.fabric.component(gate_name).enabled = False  # type: ignore[attr-defined]
        for converter in self._input_converters.values():
            converter.target_wavelength = None
        self._routed_channels.clear()

    def route(
        self,
        in_fiber: int,
        in_wavelength: int,
        deliveries: list[tuple[int, int]],
    ) -> None:
        """Configure one multicast pass through the module.

        Args:
            in_fiber: module-local input fiber index.
            in_wavelength: carrier on which the signal arrives.
            deliveries: ``(output fiber, output wavelength)`` pairs; at
                most one per output fiber.

        Raises:
            ValueError: the module's model cannot realize the requested
                wavelength pattern, the input channel is already routed,
                or a delivery list is malformed.
        """
        if not deliveries:
            raise ValueError("a route needs at least one delivery")
        if not 0 <= in_fiber < self.n_in:
            raise ValueError(f"input fiber {in_fiber} outside [0, {self.n_in})")
        if not 0 <= in_wavelength < self.k:
            raise ValueError(
                f"input wavelength {in_wavelength} outside [0, {self.k})"
            )
        fibers = [fiber for fiber, _ in deliveries]
        if len(fibers) != len(set(fibers)):
            raise ValueError("two deliveries on the same output fiber")
        for fiber, wavelength in deliveries:
            if not 0 <= fiber < self.n_out:
                raise ValueError(f"output fiber {fiber} outside [0, {self.n_out})")
            if not 0 <= wavelength < self.k:
                raise ValueError(
                    f"output wavelength {wavelength} outside [0, {self.k})"
                )
        if (in_fiber, in_wavelength) in self._routed_channels:
            raise ValueError(
                f"input channel (fiber {in_fiber}, wavelength {in_wavelength}) "
                "already carries a route"
            )

        out_wavelengths = [wavelength for _, wavelength in deliveries]
        if self.model is MulticastModel.MSW:
            if any(w != in_wavelength for w in out_wavelengths):
                raise ValueError(
                    "an MSW module cannot convert wavelengths: input "
                    f"{in_wavelength}, outputs {out_wavelengths}"
                )
        elif self.model is MulticastModel.MSDW:
            if len(set(out_wavelengths)) != 1:
                raise ValueError(
                    "an MSDW module delivers every branch on one wavelength; "
                    f"got {out_wavelengths}"
                )
            self._input_converters[(in_fiber, in_wavelength)].target_wavelength = (
                out_wavelengths[0]
            )

        for fiber, wavelength in deliveries:
            gate_name = self._gates[(in_fiber, in_wavelength, fiber, wavelength)]
            self.fabric.component(gate_name).enabled = True  # type: ignore[attr-defined]
        self._routed_channels.add((in_fiber, in_wavelength))

    # -- accounting ------------------------------------------------------------

    def gate_count(self) -> int:
        """Number of SOA gates in this module."""
        return len(self._gates)

    def converter_count(self) -> int:
        """Number of converters in this module."""
        if self.model is MulticastModel.MSW:
            return 0
        if self.model is MulticastModel.MSDW:
            return self.n_in * self.k
        return self.n_out * self.k


def build_wdm_module(
    fabric: OpticalFabric,
    prefix: str,
    model: MulticastModel,
    n_in: int,
    n_out: int,
    k: int,
) -> WDMModule:
    """Add a rectangular WDM multicast module to ``fabric`` and return it."""
    return WDMModule(fabric, prefix, model, n_in, n_out, k)
