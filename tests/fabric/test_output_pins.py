"""Power reports and DOT edges of built fabrics, pinned as literals.

``analyze_power`` keeps the first of equally lossy predecessors and
output terminals, so its ``worst_loss_path`` depends on the exact order
in which the fabric is walked: sources in component order, then each
component's successors in wiring order.  The values below were computed
once and written in, so a change to the propagation order or to the
feeder order fails here even where every loss total stays the same.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.models import Construction, MulticastModel
from repro.fabric import SpaceCrossbar, analyze_power, build_crossbar, to_dot
from repro.multistage.fabric_backed import FabricBackedThreeStage


def _fabric(name: str):
    if name == "maw4x3":
        return build_crossbar(MulticastModel.MAW, 4, 3).fabric
    if name == "msdw3x2":
        return build_crossbar(MulticastModel.MSDW, 3, 2).fabric
    if name == "space5":
        return SpaceCrossbar(5).fabric
    construction = {
        "v(2,2,3,2)-msw": Construction.MSW_DOMINANT,
        "v(2,2,3,2)-maw": Construction.MAW_DOMINANT,
    }[name]
    return FabricBackedThreeStage(
        2, 2, 3, 2, construction=construction, model=MulticastModel.MAW
    ).fabric


#: name -> (worst_loss_db, worst_loss_path, max_gate_cascade,
#: max_path_components)
POWER = {
    "maw4x3": (
        28.5836249209525,
        (
            "maw4x3.in0", "maw4x3.xbar.demux0", "maw4x3.xbar.split0_0",
            "maw4x3.xbar.gate0_0__0_0", "maw4x3.xbar.comb0_0",
            "maw4x3.xbar.conv_out0_0", "maw4x3.xbar.mux0", "maw4x3.out0",
        ),
        1,
        8,
    ),
    "msdw3x2": (
        22.563025007672874,
        (
            "msdw3x2.in0", "msdw3x2.xbar.demux0", "msdw3x2.xbar.conv_in0_0",
            "msdw3x2.xbar.split0_0", "msdw3x2.xbar.gate0_0__0_0",
            "msdw3x2.xbar.comb0_0", "msdw3x2.xbar.mux0", "msdw3x2.out0",
        ),
        1,
        8,
    ),
    "space5": (
        15.979400086720375,
        (
            "space.in0", "space.p.split0", "space.p.gate0_0",
            "space.p.comb0", "space.out0",
        ),
        1,
        5,
    ),
    "v(2,2,3,2)-msw": (
        44.60422483423213,
        (
            "port_in0", "in0.demux0", "in0.plane0.split0",
            "in0.plane0.gate0_0", "in0.plane0.comb0", "in0.mux0",
            "mid0.demux0", "mid0.plane0.split0", "mid0.plane0.gate0_0",
            "mid0.plane0.comb0", "mid0.mux0", "out0.demux0",
            "out0.split0_0", "out0.gate0_0__0_0", "out0.comb0_0",
            "out0.conv_out0_0", "out0.mux0", "port_out0",
        ),
        3,
        18,
    ),
    "v(2,2,3,2)-maw": (
        60.64542466079137,
        (
            "port_in0", "in0.demux0", "in0.split0_0", "in0.gate0_0__0_0",
            "in0.comb0_0", "in0.conv_out0_0", "in0.mux0", "mid0.demux0",
            "mid0.split0_0", "mid0.gate0_0__0_0", "mid0.comb0_0",
            "mid0.conv_out0_0", "mid0.mux0", "out0.demux0",
            "out0.split0_0", "out0.gate0_0__0_0", "out0.comb0_0",
            "out0.conv_out0_0", "out0.mux0", "port_out0",
        ),
        3,
        20,
    ),
}


@pytest.mark.parametrize("name", sorted(POWER))
def test_power_report_pinned(name):
    report = analyze_power(_fabric(name))
    assert (
        report.worst_loss_db,
        report.worst_loss_path,
        report.max_gate_cascade,
        report.max_path_components,
    ) == POWER[name]


def test_dot_lines_pinned():
    """The set of DOT lines (nodes and fibers); their order is free."""
    lines = sorted(to_dot(build_crossbar(MulticastModel.MSW, 2, 1).fabric).splitlines())
    assert len(lines) == 36
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "2d3a8b5e287562955cd0f4c3203b1a4643978f675da72ff0e48a9d204230c3b6"
    )
