"""Deterministic SVG rendering of plane arrangements with level labels.

Two inputs are supported: arrangements in R^2 (drawn directly) and
difference-form arrangements in R^3, which are drawn via the isometric
projection onto the plane x1 + x2 + x3 = 0 (every hyperplane contains the
(1,1,1) direction, so each maps to a line).  Region labels show levels and
are placed at the projected witness points, clipped into the viewport.

Rendering is presentation only: geometry is computed from the same exact
Region structures the table commands use, and floats appear only in the
emitted coordinates.  Output is byte-stable across runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .arrangement import Arrangement, Kind, is_nondegenerate
from .regions import enumerate_regions


class RenderUnsupportedError(ValueError):
    """Arrangement cannot be drawn (only R^2, or difference forms in R^3)."""


class _Line(NamedTuple):
    nx: float
    ny: float
    c: float  # nx * x + ny * y = c
    label: str


_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


def _project_3d(vec: Sequence) -> tuple[float, float]:
    """Coordinates of a normal or a point in the plane x1+x2+x3 = 0."""
    a, b, c = (float(x) for x in vec)
    # Orthonormal basis of x1+x2+x3 = 0: u = (1,-1,0)/sqrt2, v = (1,1,-2)/sqrt6.
    return ((a - b) / _SQRT2, (a + b - 2 * c) / _SQRT6)


def _scene(arr: Arrangement, labels: Sequence[str]):
    if arr.dim == 2:
        lines = [
            _Line(float(h.normal[0]), float(h.normal[1]), float(h.offset), lab)
            for h, lab in zip(arr.hyperplanes, labels)
        ]
        project = lambda p: (float(p[0]), float(p[1]))  # noqa: E731
    elif arr.dim == 3 and not is_nondegenerate(arr, Kind.TYPE_A).foreign:
        lines = []
        for h, lab in zip(arr.hyperplanes, labels):
            nx, ny = _project_3d(h.normal)
            lines.append(_Line(nx, ny, float(h.offset), lab))
        project = _project_3d
    else:
        raise RenderUnsupportedError(
            "rendering supports R^2 arrangements, or difference-form arrangements "
            f"in R^3; got dimension {arr.dim} with kind {arr.kind.value}"
        )
    return lines, project


def _intersections(lines: list[_Line]) -> list[tuple[float, float]]:
    pts = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            det = a.nx * b.ny - a.ny * b.nx
            if abs(det) < 1e-9:
                continue
            x = (a.c * b.ny - b.c * a.ny) / det
            y = (a.nx * b.c - b.nx * a.c) / det
            pts.append((x, y))
    return pts


def _foot(line: _Line) -> tuple[float, float]:
    n2 = line.nx * line.nx + line.ny * line.ny
    return (line.c * line.nx / n2, line.c * line.ny / n2)


def _clip(line: _Line, box) -> Optional[tuple[float, float, float, float]]:
    (x0, y0, x1, y1) = box
    px, py = _foot(line)
    dx, dy = -line.ny, line.nx
    tlo, thi = -math.inf, math.inf
    for p, d, lo, hi in ((px, dx, x0, x1), (py, dy, y0, y1)):
        if abs(d) < 1e-12:
            if not lo - 1e-9 <= p <= hi + 1e-9:
                return None
        else:
            t1, t2 = (lo - p) / d, (hi - p) / d
            if t1 > t2:
                t1, t2 = t2, t1
            tlo, thi = max(tlo, t1), min(thi, t2)
    if tlo >= thi:
        return None
    return (px + tlo * dx, py + tlo * dy, px + thi * dx, py + thi * dy)


def _xml_text(text: str) -> str:
    # Not xml.sax.saxutils.escape: importing it would load urllib.request,
    # http and email at the start-up of every command, not only render.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(arr: Arrangement, labels: Optional[Sequence[str]] = None) -> str:
    """Render to SVG text: one line per hyperplane, levels at witness points."""
    if labels is None:
        labels = [f"H{i + 1}" for i in range(len(arr.hyperplanes))]
    lines, project = _scene(arr, labels)
    regions = enumerate_regions(arr)
    witnesses = [(project(r.witness), r.level) for r in regions]

    pts = _intersections(lines)
    if not pts:
        pts = [_foot(line) for line in lines]
    if not pts:
        pts = [w for w, _ in witnesses]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 2.0)
    half = extent * 0.7  # 20% padding on each side of the square viewport
    box = (cx - half, cy - half, cx + half, cy + half)

    size = 640.0
    scale = size / (2 * half)

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return ((x - box[0]) * scale, (box[3] - y) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for line in lines:
        seg = _clip(line, box)
        if seg is None:
            continue
        (ax, ay, bx, by) = seg
        sx0, sy0 = to_screen(ax, ay)
        sx1, sy1 = to_screen(bx, by)
        out.append(
            f'<line class="hyperplane" x1="{sx0:.2f}" y1="{sy0:.2f}" '
            f'x2="{sx1:.2f}" y2="{sy1:.2f}" stroke="black" stroke-width="1.5"/>'
        )
        # hyperplane label near the far end, nudged off the line
        lx = ax + 0.9 * (bx - ax) + 0.03 * extent * line.nx
        ly = ay + 0.9 * (by - ay) + 0.03 * extent * line.ny
        tx, ty = to_screen(lx, ly)
        out.append(
            f'<text class="hyperplane-label" x="{tx:.2f}" y="{ty:.2f}" '
            f'font-size="16" text-anchor="middle" fill="gray">{_xml_text(line.label)}</text>'
        )
    margin = 0.04 * extent
    for (wx, wy), level in witnesses:
        wx = min(max(wx, box[0] + margin), box[2] - margin)
        wy = min(max(wy, box[1] + margin), box[3] - margin)
        tx, ty = to_screen(wx, wy)
        out.append(
            f'<text class="level" x="{tx:.2f}" y="{ty:.2f}" '
            f'font-size="20" text-anchor="middle" fill="black">{level}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
