"""Minimal static SVG scatter plots of an embedding."""

from __future__ import annotations

import numpy as np

_SIZE = 640
_PAD = 30


def _color(k: int, n: int) -> str:
    hue = int(360 * k / max(n, 1))
    return f"hsl({hue}, 70%, 45%)"


def _polygon(cx, cy, radii) -> str:
    """Vertices at the given radii around (cx, cy), evenly spaced from straight up."""
    pts = []
    for i, r in enumerate(radii):
        ang = -np.pi / 2 + i * 2 * np.pi / len(radii)
        pts.append(f"{cx + r * np.cos(ang):.2f},{cy + r * np.sin(ang):.2f}")
    return " ".join(pts)


def render_scatter(coords: np.ndarray, clusters: np.ndarray,
                   medoid_rows=(), anchor_rows=()) -> str:
    """SVG scatter colored by cluster; medoids as stars, anchors as triangles.

    Axis decorations are deliberately omitted: the embedding dimensions
    carry no meaning.
    """
    coords = np.asarray(coords, dtype=float)
    clusters = np.asarray(clusters, dtype=int)
    n_cl = int(clusters.max()) + 1 if clusters.size else 1
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (_SIZE - 2 * _PAD) / span.max()

    def sx(x):
        return _PAD + (x - lo[0]) * scale

    def sy(y):
        return _SIZE - _PAD - (y - lo[1]) * scale

    medoid_rows = set(int(i) for i in medoid_rows)
    anchor_rows = set(int(i) for i in anchor_rows) - medoid_rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for i, (xy, k) in enumerate(zip(coords, clusters)):
        if i in medoid_rows or i in anchor_rows:
            continue
        parts.append(f'<circle cx="{sx(xy[0]):.2f}" cy="{sy(xy[1]):.2f}" r="3" '
                     f'fill="{_color(k, n_cl)}" fill-opacity="0.7"/>')
    for i in sorted(anchor_rows):
        xy, k = coords[i], clusters[i]
        parts.append(f'<polygon points="{_polygon(sx(xy[0]), sy(xy[1]), [6] * 3)}" '
                     f'fill="{_color(k, n_cl)}" stroke="black" stroke-width="0.8"/>')
    for i in sorted(medoid_rows):
        xy, k = coords[i], clusters[i]
        parts.append(f'<polygon points="{_polygon(sx(xy[0]), sy(xy[1]), [9, 0.4 * 9] * 5)}" '
                     f'fill="{_color(k, n_cl)}" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)
