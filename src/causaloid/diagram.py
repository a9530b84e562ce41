"""Deterministic text rendering of the composition diagrams.

Scenes are layered left to right: circles are vectors, rectangles are
expansion matrices, filled dots are inner-product contractions, and the
hybrid glyph is the registry-mediated product. Wires carry an index name
and cardinality; a scene only validates when both endpoints of every wire
expose that index set. Output is pure string assembly, so the same scene
always renders to identical bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .causaloid import Causaloid
from .errors import MissingEntry, UnknownEntry, UnknownRegion
from .operational import Region

__all__ = [
    "DiagramNode",
    "DiagramWire",
    "DiagramScene",
    "born_scene",
    "expansion_scene",
    "product_scene",
    "emit_diagram",
]

_NODE_KINDS = ("circle", "rectangle", "dot", "hybrid")


@dataclass(frozen=True)
class DiagramNode:
    ident: str
    kind: str
    text: str
    layer: int
    ports: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.kind not in _NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.layer < 0:
            raise ValueError("layers start at zero")


@dataclass(frozen=True)
class DiagramWire:
    source: str
    target: str
    index_name: str
    index_size: int


@dataclass(frozen=True)
class DiagramScene:
    nodes: tuple[DiagramNode, ...]
    wires: tuple[DiagramWire, ...]

    def __post_init__(self):
        idents = [n.ident for n in self.nodes]
        if len(set(idents)) != len(idents):
            raise ValueError("node identifiers must be unique")
        by_id = {n.ident: n for n in self.nodes}
        for w in self.wires:
            for end in (w.source, w.target):
                if end not in by_id:
                    raise ValueError(f"wire endpoint {end!r} is not a node")
                if (w.index_name, w.index_size) not in by_id[end].ports:
                    raise ValueError(
                        f"node {end!r} does not expose index "
                        f"{w.index_name}:{w.index_size}"
                    )


def _entry_or_unknown(causaloid: Causaloid, region: Region):
    try:
        return causaloid.tomographic(region)
    except UnknownRegion:
        raise UnknownEntry(f"the causaloid has no entry for {region}") from None


def born_scene(causaloid: Causaloid, region: Region) -> DiagramScene:
    """Measurement vector paired with a state: circle, dot, circle."""
    entry = _entry_or_unknown(causaloid, region)
    m = entry.omega.size
    ports = (("alpha", m),)
    nodes = (
        DiagramNode("n0", "circle", f"r[{region}]", 0, ports),
        DiagramNode("n1", "dot", "", 1, ports),
        DiagramNode("n2", "circle", f"p[{region}]", 2, ports),
    )
    wires = (
        DiagramWire("n0", "n1", "alpha", m),
        DiagramWire("n1", "n2", "alpha", m),
    )
    return DiagramScene(nodes, wires)


def expansion_scene(causaloid: Causaloid, region: Region) -> DiagramScene:
    """Full-list probability through the expansion matrix: box feeds circle."""
    entry = _entry_or_unknown(causaloid, region)
    g = entry.gamma.size
    m = entry.omega.size
    nodes = (
        DiagramNode("n0", "circle", f"r[{region}]", 0, (("alpha", g),)),
        DiagramNode("n1", "rectangle", f"Lambda[{region}]", 1, (("alpha", g), ("l", m))),
        DiagramNode("n2", "dot", "", 2, (("l", m),)),
        DiagramNode("n3", "circle", f"p[{region}]", 3, (("l", m),)),
    )
    wires = (
        DiagramWire("n0", "n1", "alpha", g),
        DiagramWire("n1", "n2", "l", m),
        DiagramWire("n2", "n3", "l", m),
    )
    return DiagramScene(nodes, wires)


def product_scene(
    causaloid: Causaloid, first: Region, second: Region
) -> DiagramScene:
    """Registry-mediated product of two measurement vectors.

    The regions are drawn in canonical order (least location first), as
    the registry stores the grouping, so either argument order works.
    """
    first, second = sorted((first, second))
    e1 = _entry_or_unknown(causaloid, first)
    e2 = _entry_or_unknown(causaloid, second)
    try:
        pair = causaloid.product_entry((e1.omega, e2.omega))
    except MissingEntry:
        raise UnknownEntry(
            f"the causaloid has no grouping entry for ({first}, {second})"
        ) from None
    m1, m2, k = e1.omega.size, e2.omega.size, pair.omega.size
    nodes = (
        DiagramNode("n0", "circle", f"r[{first}]", 0, (("l1", m1),)),
        DiagramNode("n1", "circle", f"r[{second}]", 0, (("l2", m2),)),
        DiagramNode(
            "n2",
            "hybrid",
            "(x)^Lambda",
            1,
            (("l1", m1), ("l2", m2), ("k", k)),
        ),
        DiagramNode("n3", "dot", "", 2, (("k", k),)),
        DiagramNode("n4", "circle", f"p[{pair.region}]", 3, (("k", k),)),
    )
    wires = (
        DiagramWire("n0", "n2", "l1", m1),
        DiagramWire("n1", "n2", "l2", m2),
        DiagramWire("n2", "n3", "k", k),
        DiagramWire("n3", "n4", "k", k),
    )
    return DiagramScene(nodes, wires)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_DOT_SHAPES = {
    "circle": "circle",
    "rectangle": "box",
    "dot": "point",
    "hybrid": "doublecircle",
}


def _emit_dot(scene: DiagramScene) -> str:
    lines = [
        "digraph scene {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
        '  edge [dir=none, fontname="Helvetica"];',
    ]
    for node in sorted(scene.nodes, key=lambda n: (n.layer, n.ident)):
        shape = _DOT_SHAPES[node.kind]
        extra = ", width=0.1" if node.kind == "dot" else ""
        lines.append(
            f'  {node.ident} [label="{node.text}", shape={shape}{extra}];'
        )
    for w in scene.wires:
        lines.append(
            f'  {w.source} -> {w.target} [label="{w.index_name}:{w.index_size}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


_X_STEP = 150
_Y_STEP = 90
_MARGIN = 60


def _positions(scene: DiagramScene) -> dict[str, tuple[int, int]]:
    layers: dict[int, list[DiagramNode]] = {}
    for node in scene.nodes:
        layers.setdefault(node.layer, []).append(node)
    pos = {}
    max_rows = max(len(v) for v in layers.values())
    for layer, nodes in sorted(layers.items()):
        nodes.sort(key=lambda n: n.ident)
        offset = (max_rows - len(nodes)) * _Y_STEP // 2
        for i, node in enumerate(nodes):
            pos[node.ident] = (
                _MARGIN + layer * _X_STEP,
                _MARGIN + offset + i * _Y_STEP,
            )
    return pos


def _svg_node(node: DiagramNode, x: int, y: int) -> list[str]:
    stroke = 'stroke="currentColor" fill="none" stroke-width="1.5"'
    out = []
    if node.kind == "circle":
        out.append(f'  <circle cx="{x}" cy="{y}" r="24" {stroke}/>')
    elif node.kind == "rectangle":
        out.append(
            f'  <rect x="{x - 34}" y="{y - 20}" width="68" height="40" {stroke}/>'
        )
    elif node.kind == "dot":
        out.append(f'  <circle cx="{x}" cy="{y}" r="4" fill="currentColor"/>')
    else:
        out.append(f'  <circle cx="{x}" cy="{y}" r="24" {stroke}/>')
        out.append(f'  <circle cx="{x}" cy="{y}" r="19" {stroke}/>')
    if node.text:
        out.append(
            f'  <text x="{x}" y="{y + 4}" text-anchor="middle" '
            f'font-size="11">{node.text}</text>'
        )
    return out


def _emit_svg(scene: DiagramScene) -> str:
    pos = _positions(scene)
    width = max(x for x, _ in pos.values()) + _MARGIN
    height = max(y for _, y in pos.values()) + _MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="Helvetica, sans-serif">',
    ]
    for w in scene.wires:
        x1, y1 = pos[w.source]
        x2, y2 = pos[w.target]
        mx, my = (x1 + x2) // 2, (y1 + y2) // 2
        out.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="currentColor" stroke-width="1.5"/>'
        )
        out.append(
            f'  <text x="{mx}" y="{my - 8}" text-anchor="middle" '
            f'font-size="10">{w.index_name}:{w.index_size}</text>'
        )
    for node in sorted(scene.nodes, key=lambda n: (n.layer, n.ident)):
        x, y = pos[node.ident]
        out.extend(_svg_node(node, x, y))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_diagram(scene: DiagramScene, format: str = "dot") -> str:
    """Render a scene to DOT or SVG text; same scene, same bytes."""
    if format == "dot":
        return _emit_dot(scene)
    if format == "svg":
        return _emit_svg(scene)
    raise ValueError(f"unknown diagram format {format!r}")
