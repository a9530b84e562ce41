"""Deterministic text rendering of the composition diagrams.

Scenes are layered left to right: circles are vectors, rectangles are
expansion matrices, filled dots are inner-product contractions, and the
hybrid glyph is the registry-mediated product. Each scene is written as
its layers; a wire joins nodes of adjacent layers that share an index name
and carries that name and cardinality, and a scene only validates when both
endpoints of every wire expose that index and every index of a node meets
a wire. One glyph table draws each node kind in DOT and in SVG. Output is
pure string assembly, so the same scene always renders to identical bytes.
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

_STROKE = 'stroke="currentColor" fill="none" stroke-width="1.5"'
_RING = '<circle cx="{x}" cy="{y}" r="%d" {stroke}/>'

# Each node kind's glyph: its DOT attributes, and the SVG elements drawn
# centred on (x, y), as templates for str.format.
_GLYPHS = {
    "circle": ("shape=circle", (_RING % 24,)),
    "rectangle": ("shape=box", ('<rect x="{left}" y="{top}" width="68" height="40" {stroke}/>',)),
    "dot": ("shape=point, width=0.1", ('<circle cx="{x}" cy="{y}" r="4" fill="currentColor"/>',)),
    "hybrid": ("shape=doublecircle", (_RING % 24, _RING % 19)),
}


@dataclass(frozen=True)
class DiagramNode:
    ident: str
    kind: str
    text: str
    layer: int
    ports: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.kind not in _GLYPHS:
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
        met = {
            (end, w.index_name, w.index_size) for w in self.wires for end in (w.source, w.target)
        }
        for n in self.nodes:
            for name, size in n.ports:
                if (n.ident, name, size) not in met:
                    raise ValueError(f"index {name}:{size} of node {n.ident!r} meets no wire")


def _entry_or_unknown(causaloid: Causaloid, region: Region):
    try:
        return causaloid.tomographic(region)
    except UnknownRegion:
        raise UnknownEntry(f"the causaloid has no entry for {region}") from None


def _layered(*layers) -> DiagramScene:
    """The scene of ``layers``, left to right, each a list of (kind, text, ports).

    Nodes are named n0, n1, ... in order. Each node is wired to every node
    of the next layer that exposes an index of the same name, at the source
    node's size, so the scene check rejects an index whose sizes disagree.
    """
    nodes = []
    for layer, row in enumerate(layers):
        for kind, text, ports in row:
            nodes.append(DiagramNode(f"n{len(nodes)}", kind, text, layer, tuple(ports)))
    wires = tuple(
        DiagramWire(a.ident, b.ident, name, size)
        for a in nodes
        for b in nodes
        if b.layer == a.layer + 1
        for name, size in a.ports
        if name in dict(b.ports)
    )
    return DiagramScene(tuple(nodes), wires)


def born_scene(causaloid: Causaloid, region: Region) -> DiagramScene:
    """Measurement vector paired with a state: circle, dot, circle."""
    alpha = [("alpha", _entry_or_unknown(causaloid, region).omega.size)]
    return _layered(
        [("circle", f"r[{region}]", alpha)],
        [("dot", "", alpha)],
        [("circle", f"p[{region}]", alpha)],
    )


def expansion_scene(causaloid: Causaloid, region: Region) -> DiagramScene:
    """Full-list probability through the expansion matrix: box feeds circle."""
    entry = _entry_or_unknown(causaloid, region)
    full, fiducial = ("alpha", entry.gamma.size), ("l", entry.omega.size)
    return _layered(
        [("circle", f"r[{region}]", [full])],
        [("rectangle", f"Lambda[{region}]", [full, fiducial])],
        [("dot", "", [fiducial])],
        [("circle", f"p[{region}]", [fiducial])],
    )


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
    l1, l2, k = ("l1", e1.omega.size), ("l2", e2.omega.size), ("k", pair.omega.size)
    return _layered(
        [("circle", f"r[{first}]", [l1]), ("circle", f"r[{second}]", [l2])],
        [("hybrid", "(x)^Lambda", [l1, l2, k])],
        [("dot", "", [k])],
        [("circle", f"p[{pair.region}]", [k])],
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit_dot(scene: DiagramScene) -> str:
    lines = [
        "digraph scene {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
        '  edge [dir=none, fontname="Helvetica"];',
    ]
    for node in sorted(scene.nodes, key=lambda n: n.layer):
        lines.append(f'  {node.ident} [label="{node.text}", {_GLYPHS[node.kind][0]}];')
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
        offset = (max_rows - len(nodes)) * _Y_STEP // 2
        for i, node in enumerate(nodes):
            pos[node.ident] = (
                _MARGIN + layer * _X_STEP,
                _MARGIN + offset + i * _Y_STEP,
            )
    return pos


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
    for node in sorted(scene.nodes, key=lambda n: n.layer):
        x, y = pos[node.ident]
        out += [
            "  " + shape.format(x=x, y=y, left=x - 34, top=y - 20, stroke=_STROKE)
            for shape in _GLYPHS[node.kind][1]
        ]
        if node.text:
            out.append(
                f'  <text x="{x}" y="{y + 4}" text-anchor="middle" '
                f'font-size="11">{node.text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_diagram(scene: DiagramScene, format: str = "dot") -> str:
    """Render a scene to DOT or SVG text; same scene, same bytes."""
    if format == "dot":
        return _emit_dot(scene)
    if format == "svg":
        return _emit_svg(scene)
    raise ValueError(f"unknown diagram format {format!r}")
