"""Static SVG rendering of vertex sets and vertex functions (planar systems)."""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedDimension
from .ifs import FractalSystem

SVG_WIDTH = 720


def _hull_order(coords: np.ndarray) -> np.ndarray:
    center = coords.mean(axis=0)
    angles = np.arctan2(coords[:, 1] - center[1], coords[:, 0] - center[0])
    return np.argsort(angles, kind="stable")


def _color(t: float) -> str:
    r = int(round(255 * t))
    b = int(round(255 * (1.0 - t)))
    return f"rgb({r},40,{b})"


def render_svg(system: FractalSystem, level: int, values: np.ndarray | None = None) -> str:
    """One polygon outline per level-m symplex; vertices colored by f if given."""
    if system.dim != 2:
        raise UnsupportedDimension("rendering is only defined for planar systems")
    if not 0 <= level <= system.max_level:
        raise ValueError(f"level {level} not built")
    pts = system.points[level]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(max(hi - lo))
    pad = 0.06 * span
    height = int(SVG_WIDTH * ((hi[1] - lo[1]) + 2 * pad) / ((hi[0] - lo[0]) + 2 * pad))

    def sx(x):
        return (x - lo[0] + pad) / (span + 2 * pad) * SVG_WIDTH

    def sy(y):
        return height - (y - lo[1] + pad) / (span + 2 * pad) * SVG_WIDTH

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">',
        f'<rect width="{SVG_WIDTH}" height="{height}" fill="white"/>',
    ]
    for row in system.cells[level]:
        coords = pts[row]
        ordered = coords[_hull_order(coords)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ordered)
        parts.append(
            f'<polygon points="{path}" fill="none" stroke="#444" stroke-width="0.8"/>'
        )
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape != (len(pts),):
            raise ValueError("function values must match the vertex count of the level")
        vmin, vmax = float(values.min()), float(values.max())
        flat = (vmax - vmin) <= 1e-12 * max(1.0, abs(vmin), abs(vmax))
        scale = 1.0 if flat else vmax - vmin
        radius = max(2.0, SVG_WIDTH / 240)
        for (x, y), v in zip(pts, values):
            t = 0.5 if flat else (v - vmin) / scale
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{radius:.1f}" '
                f'fill="{_color(t)}"/>'
            )
        parts.append(
            f'<text x="8" y="{height - 8}" font-size="12" fill="#222">'
            f"min {vmin:.6g} (blue)  max {vmax:.6g} (red)</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
