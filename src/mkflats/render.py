"""Deterministic SVG rendering of regions and distributions.

Output is stable byte-for-byte for identical inputs: elements are emitted in
sorted order with fixed-precision coordinates, and nothing environmental
(locale, terminal, color settings) leaks into the document.  Root directions
are drawn as short segments of length 2*epsilon centered on their vertex,
odd faces carry a "1" mark, face labels sit at the face centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .classifier import GliderHit
from .distributions import ParityDistribution, RootDistribution
from .lattice import (
    DIRECTION_STEPS,
    AxialPoint,
    Region,
    face_corners,
)
from .pauli import PauliLabelling

ALL_LAYERS = frozenset({"faces", "parity", "roots", "labels", "gliders"})
DEFAULT_LAYERS = frozenset({"faces", "parity", "roots", "labels"})

_SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class RenderSpec:
    """Pixel scale, segment half-length (as a fraction of an edge), and the
    set of layers to draw."""

    scale: float = 40.0
    epsilon: float = 0.2
    layers: frozenset[str] = field(default_factory=lambda: DEFAULT_LAYERS)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        bad = set(self.layers) - ALL_LAYERS
        if bad:
            raise ValueError(f"unknown layers {sorted(bad)}")


def _planar(p: AxialPoint) -> tuple[float, float]:
    return (p.a + p.b / 2.0, p.b * _SQRT3_2)


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def render(
    region: Region,
    parity: ParityDistribution | None = None,
    roots: RootDistribution | None = None,
    labels: PauliLabelling | None = None,
    gliders: list[GliderHit] | None = None,
    spec: RenderSpec = RenderSpec(),
) -> str:
    """SVG document for the region and whichever distributions are supplied.

    Every supplied input must cover the region; anything missing is an error,
    never silently skipped.
    """
    faces = sorted(region.faces)
    if not faces:
        raise ValueError("cannot render an empty region")
    verts = sorted(region.vertex_set())
    if parity is not None:
        for f in faces:
            parity[f]
    if roots is not None:
        for v in verts:
            roots[v]
    if labels is not None:
        for f in faces:
            labels[f]
    if "gliders" in spec.layers and gliders is None:
        raise ValueError("gliders layer requested but no glider list supplied")

    xs, ys = zip(*(_planar(v) for v in verts))
    margin = 0.6
    x0, y0 = min(xs) - margin, min(ys) - margin
    width = (max(xs) - min(xs) + 2 * margin) * spec.scale
    height = (max(ys) - min(ys) + 2 * margin) * spec.scale

    def xy(p: AxialPoint) -> tuple[float, float]:
        px, py = _planar(p)
        # SVG y grows downward; flip so increasing b points up.
        return ((px - x0) * spec.scale, height - (py - y0) * spec.scale)

    def centroid(f) -> tuple[float, float]:
        pts = [xy(c) for c in face_corners(f)]
        return (sum(p[0] for p in pts) / 3.0, sum(p[1] for p in pts) / 3.0)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]

    if "faces" in spec.layers:
        out.append('<g id="faces" fill="none" stroke="black" stroke-width="1">')
        for f in faces:
            pts = " ".join(
                f"{_fmt(x)},{_fmt(y)}" for x, y in (xy(c) for c in face_corners(f))
            )
            out.append(f'<polygon points="{pts}"/>')
        out.append("</g>")

    if "parity" in spec.layers and parity is not None:
        out.append(
            '<g id="parity" font-family="sans-serif" '
            f'font-size="{_fmt(0.35 * spec.scale)}" text-anchor="middle">'
        )
        for f in faces:
            if parity[f] == 1:
                cx, cy = centroid(f)
                out.append(
                    f'<text x="{_fmt(cx)}" y="{_fmt(cy + 0.12 * spec.scale)}">1</text>'
                )
        out.append("</g>")

    if "roots" in spec.layers and roots is not None:
        out.append('<g id="roots" stroke="black" stroke-width="2.5">')
        for v in verts:
            da, db = DIRECTION_STEPS[roots[v]]
            ux = (da + db / 2.0) * spec.epsilon
            uy = db * _SQRT3_2 * spec.epsilon
            cx, cy = xy(v)
            out.append(
                f'<line x1="{_fmt(cx - ux * spec.scale)}" '
                f'y1="{_fmt(cy + uy * spec.scale)}" '
                f'x2="{_fmt(cx + ux * spec.scale)}" '
                f'y2="{_fmt(cy - uy * spec.scale)}"/>'
            )
        out.append("</g>")

    if "labels" in spec.layers and labels is not None:
        out.append(
            '<g id="labels" font-family="sans-serif" '
            f'font-size="{_fmt(0.4 * spec.scale)}" text-anchor="middle">'
        )
        for f in faces:
            cx, cy = centroid(f)
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy + 0.14 * spec.scale)}">{labels[f]}</text>'
            )
        out.append("</g>")

    if "gliders" in spec.layers and gliders:
        out.append(
            '<g id="gliders" fill="none" stroke="black" stroke-width="3" '
            'stroke-dasharray="6,3">'
        )
        for hit in sorted(gliders):
            pts = " ".join(
                f"{_fmt(x)},{_fmt(y)}" for x, y in (xy(c) for c in hit.outline())
            )
            out.append(f'<polygon points="{pts}" data-kind="{hit.kind}"/>')
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
