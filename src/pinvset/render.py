"""SVG rendering of 2-D partition trees for visual inspection.

Leaf cells are drawn as squares colored by label; an optional polyline
overlay (for a reference set boundary or barrier level set) is drawn on
top, its vertices read from CSV by ``dataset.read_csv``, in the dialect
of the datasets.  Output is deterministic: fixed float formatting, no
timestamps, leaves in the depth-first order of ``iter_leaves`` (root by
root, each split's children in sign-vector order).
"""

from __future__ import annotations

from typing import Sequence

from .dataset import MalformedRowError, read_csv
from .tree import Label, PartitionTree

FILL = {
    Label.INCLUDED: "#4c72b0",
    Label.EXCLUDED: "#f5f5f5",
    Label.UNKNOWN: "#dd8452",
}
# The drawing's width in pixels; its height keeps the domain's aspect ratio.
WIDTH_PX = 720


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render_tree_svg(tree: PartitionTree, overlay: Sequence[Sequence[float]] | None = None) -> str:
    """Render leaf squares; y grows upward (world coordinates are flipped)."""
    if tree.dim != 2:
        raise ValueError(f"SVG rendering supports dim 2 only, got dim {tree.dim}")
    nodes = tree.nodes
    (xmin, ymin), (xmax, ymax) = tree.root_bounds
    scale = WIDTH_PX / (xmax - xmin)
    height_px = (ymax - ymin) * scale

    def sx(x: float) -> str:
        return _fmt((x - xmin) * scale)

    def sy(y: float) -> str:
        return _fmt((ymax - y) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(WIDTH_PX)}" height="{_fmt(height_px)}" '
        f'viewBox="0 0 {_fmt(WIDTH_PX)} {_fmt(height_px)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH_PX)}" height="{_fmt(height_px)}" '
        'fill="#ffffff"/>',
    ]
    stroke_w = _fmt(max(0.2, scale * 1e-4))
    labels = nodes.label.tolist()  # Python ints: FILL's keys compare cheaply
    for i in tree.iter_leaves():
        lo, hi = nodes.lo[i], nodes.hi[i]
        w = _fmt((hi[0] - lo[0]) * scale)
        h = _fmt((hi[1] - lo[1]) * scale)
        parts.append(
            f'<rect x="{sx(lo[0])}" y="{sy(hi[1])}" width="{w}" '
            f'height="{h}" fill="{FILL[labels[i]]}" stroke="#444444" '
            f'stroke-width="{stroke_w}"/>'
        )
    if overlay:
        points = " ".join(f"{sx(float(p[0]))},{sy(float(p[1]))}" for p in overlay)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#111111" '
            'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def load_overlay(path) -> list[tuple[float, float]]:
    """Polyline vertices from a CSV of ``x,y`` rows, read by
    ``dataset.read_csv`` as a dataset is; a file of other than two columns
    raises ``MalformedRowError``."""
    rows, _, _ = read_csv(path)
    if rows.shape[1] != 2:
        raise MalformedRowError(f"{path}: {rows.shape[1]} columns, expected 2")
    return list(map(tuple, rows.tolist()))
