"""Graphviz DOT export of fabric graphs.

Renders a built fabric as a DOT document -- handy for inspecting the
constructed Figs. 4-7 circuits or a composed three-stage network with
standard tooling (``dot -Tsvg``).  Component kinds get distinct shapes
and enabled gates are highlighted, so a configured fabric shows its
light paths.
"""

from __future__ import annotations

from repro.fabric.components import SOAGate
from repro.fabric.network import OpticalFabric

__all__ = ["to_dot"]

_SHAPES = {
    "input_terminal": ("triangle", "lightblue"),
    "output_terminal": ("invtriangle", "lightblue"),
    "splitter": ("trapezium", "lightgray"),
    "combiner": ("invtrapezium", "lightgray"),
    "soa_gate": ("box", "white"),
    "wavelength_converter": ("diamond", "khaki"),
    "mux": ("house", "lightyellow"),
    "demux": ("invhouse", "lightyellow"),
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def to_dot(fabric: OpticalFabric, *, rankdir: str = "LR") -> str:
    """Render ``fabric`` as a Graphviz DOT string.

    Args:
        fabric: the fabric to render (any wiring state).
        rankdir: graph orientation (``LR`` reads input -> output).
    """
    lines = [
        f"digraph {_quote(fabric.name)} {{",
        f"  rankdir={rankdir};",
        "  node [fontsize=9];",
    ]
    for component in fabric.components():
        shape, fill = _SHAPES.get(component.kind, ("ellipse", "white"))
        attributes = [f"shape={shape}", f'fillcolor="{fill}"', "style=filled"]
        if isinstance(component, SOAGate) and component.enabled:
            attributes.append('color="red"')
            attributes.append("penwidth=2")
        lines.append(
            f"  {_quote(component.name)} [{', '.join(attributes)}];"
        )
    for src, src_port, dst, dst_port in fabric.fibers():
        lines.append(
            f"  {_quote(src)} -> {_quote(dst)} "
            f"[label=\"{src_port}->{dst_port}\", fontsize=7];"
        )
    lines.append("}")
    return "\n".join(lines)
