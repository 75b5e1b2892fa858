"""Every output format of ``redux``: SVG, DOT and schema-1 JSON.

The polygon X(w), its tilings, the poset P(w) and the graph G(w) are
combinatorial objects; this module alone turns them into documents.  It is
the one place where planar coordinates enter: the edge labelled j of X(w) is
a unit step at angle (2j - n - 1) / (n + 1) * 90 degrees from straight down,
so a grid point (the set of labels crossed from the top vertex) lands on the
sum of its labels' steps.
"""

from __future__ import annotations

import json
import math

from .commutation import FlipGraph
from .permcore import Perm, check_perm, identity
from .redwords import format_word
from .tilings import Point, Tiling, TilingPoset, polygon_outline, tile_outline

SCALE = 40.0  # screen units per unit edge
PAD = 20.0  # margin around the drawing
DEGENERATE_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40">'
    '<text x="10" y="25">degenerate polygon (identity permutation)</text>'
    "</svg>\n"
)


def to_json(payload: dict) -> str:
    """``payload`` under schema 1 as indented, key-sorted JSON."""
    return json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True) + "\n"


def _tiles(t: Tiling) -> list:
    return [
        {"labels": list(labels), "anchor": list(anchor)} for labels, anchor in t.key()
    ]


def tiling_payload(t: Tiling) -> dict:
    """A tiling as a schema-1 document; ``enum`` lists these whole."""
    return {"schema": 1, "w": list(t.w), "tiles": _tiles(t)}


def poset_payload(p: TilingPoset) -> dict:
    return {
        "w": list(p.w),
        "elements": [{"tiles": _tiles(elt)} for elt in p.elements],
        "hasse": sorted([i, j] for i, j in p.hasse),
    }


def graph_payload(g: FlipGraph) -> dict:
    """G(w) with each class named by its representative."""
    return {
        "vertices": [format_word(c.representative) for c in g.vertices],
        "edges": [[a, b] for a, b in sorted(g.edges)],
    }


def graph_dot(g: FlipGraph) -> str:
    lines = ["graph G {"]
    for i, c in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{format_word(c.representative)}"];')
    for a, b in sorted(g.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(p: TilingPoset) -> str:
    lines = ["digraph P {", "  rankdir=BT;"]
    for i, elt in enumerate(p.elements):
        profile = ",".join(str(o) for o in elt.shape_profile()) or "empty"
        lines.append(f'  z{i} [label="{profile}"];')
    for i, j in sorted(p.hasse):
        lines.append(f"  z{i} -> z{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _locate(n: int, point: Point) -> tuple[float, float]:
    """Screen coordinates (y down) of a grid point of X(w), w in S_n."""
    angles = [-math.pi / 2 + (math.pi / 2) * (2 * j - n - 1) / (n + 1) for j in point]
    x = sum(math.cos(a) for a in angles)
    y = sum(-math.sin(a) for a in angles)
    return (SCALE * x, SCALE * y)


def _fmt(value: float) -> str:
    out = f"{value + 0:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _svg(frame: list, shapes: list, texts: list) -> str:
    """One SVG document: ``frame`` (points) sets the view box, ``shapes`` are
    (points, fill) polygons, ``texts`` are (a, b, text) labels placed midway
    between the points a and b."""
    x0 = min(x for x, _ in frame) - PAD
    y0 = min(y for _, y in frame) - PAD
    width = max(x for x, _ in frame) - x0 + PAD
    height = max(y for _, y in frame) - y0 + PAD
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for points, fill in shapes:
        path = " ".join(f"{_fmt(x - x0)},{_fmt(y - y0)}" for x, y in points)
        lines.append(
            f'<polygon points="{path}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )
    for (ax, ay), (bx, by), text in texts:
        mx, my = ((ax - x0) + (bx - x0)) / 2, ((ay - y0) + (by - y0)) / 2
        lines.append(f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="10">{text}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def polygon_svg(w: Perm) -> str:
    """X(w) with each boundary edge labelled, left side first."""
    w = check_perm(w)
    n = len(w)
    if w == identity(n):
        return DEGENERATE_SVG
    ring = [_locate(n, pt) for pt in polygon_outline(w)]
    edge_labels = list(range(1, n + 1)) + list(reversed(w))
    texts = list(zip(ring, ring[1:] + ring[:1], edge_labels))
    return _svg(ring, [(ring, "none")], texts)


def tiling_svg(t: Tiling) -> str:
    """The tiles of t, rhombi blue and larger tiles orange, framed by X(w),
    which holds every tile."""
    n = len(t.w)
    if t.w == identity(n):
        return DEGENERATE_SVG
    shapes = []
    for labels, anchor in t.key():
        fill = "#cce5ff" if len(labels) == 2 else "#ffd9b3"
        shapes.append(([_locate(n, pt) for pt in tile_outline(labels, anchor)], fill))
    frame = [_locate(n, pt) for pt in polygon_outline(t.w)]
    return _svg(frame, shapes, [])
