"""SVG rendering of two-dimensional instances.

Draws the n-step forward input sum, the control polytope, the target,
and (optionally) a certificate hyperplane.  All geometry is computed
exactly; coordinates are rounded only when written into the SVG.
An embedded <desc> block carries the exact hull vertices as rational
text so renders stay auditable.
"""

from __future__ import annotations

import json

from .certify import SeparatorCertificate
from .exactnum import rat_to_str
from .geometry import GenPolyhedron, _hull_2d
from .preprocess import LtiSystem, input_sum

VIEW = 640.0
MARGIN = 0.08


class RenderError(Exception):
    pass


def partial_reach_polytope(sys: LtiSystem, n: int) -> GenPolyhedron:
    """Sum of the first n+1 forward input images (exact)."""
    if len(sys.controls.components) != 1 or not sys.controls.components[0].is_polytope:
        raise RenderError("rendering needs a single polytopic control set")
    return input_sum(sys.a, sys.controls.components[0], n + 1)


def _hull_order(p: GenPolyhedron):
    if len(p.vertices) <= 2:
        return list(p.vertices)
    return _hull_2d(list(p.vertices))


def render_partial_reach(sys: LtiSystem, n: int, out_path: str,
                         certificate: SeparatorCertificate | None = None) -> None:
    """certificate, when given, has its hyperplane <x, tau> = sup_value drawn."""
    if sys.dim != 2:
        raise RenderError("rendering is two-dimensional only")
    if certificate is not None and len(certificate.tau) != 2:
        raise RenderError("the certificate's direction is in the span step's coordinates "
                          f"({len(certificate.tau)} of them, not 2): it has no line in the plane")
    reach = partial_reach_polytope(sys, n)
    u = sys.controls.components[0]
    q = sys.target

    polys = {
        "reach": _hull_order(reach),
        "controls": _hull_order(u),
        "target": _hull_order(q),
    }
    xs = [float(v[0]) for poly in polys.values() for v in poly]
    ys = [float(v[1]) for poly in polys.values() for v in poly]
    if certificate is not None:
        xs.append(0.0)
        ys.append(0.0)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = max(maxx - minx, 1e-9)
    spany = max(maxy - miny, 1e-9)
    span = max(spanx, spany)
    pad = span * MARGIN
    minx -= pad
    miny -= pad
    span += 2 * pad
    scale = VIEW / span

    def to_svg(v) -> tuple[float, float]:
        return ((float(v[0]) - minx) * scale, (maxy + pad - float(v[1])) * scale)

    def points_attr(poly) -> str:
        return " ".join(f"{x:.4f},{y:.4f}" for x, y in (to_svg(v) for v in poly))

    desc = {
        "steps": n,
        "reach_vertices": [[rat_to_str(x) for x in v] for v in polys["reach"]],
        "viewport": {"minx": minx, "miny": miny, "scale": scale,
                     "maxy_pad": maxy + pad},
    }
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEW:.0f}" height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
        f"<desc>{json.dumps(desc)}</desc>",
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if len(polys["reach"]) >= 3:
        parts.append(f'<polygon points="{points_attr(polys["reach"])}" '
                     'fill="#9bd49b" fill-opacity="0.55" stroke="#2c7a2c" stroke-width="1.5"/>')
    if len(polys["controls"]) >= 3:
        parts.append(f'<polygon points="{points_attr(polys["controls"])}" '
                     'fill="none" stroke="#2255cc" stroke-width="1.5" stroke-dasharray="6 3"/>')
    if len(polys["target"]) >= 3:
        parts.append(f'<polygon points="{points_attr(polys["target"])}" '
                     'fill="#e8a0a0" fill-opacity="0.6" stroke="#b03030" stroke-width="1.5"/>')
    else:
        for v in polys["target"]:
            x, y = to_svg(v)
            parts.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="4" fill="#b03030"/>')
    # the zero direction certifies an empty target: it has no line
    if certificate is not None and any(certificate.tau):
        tx, ty = map(float, certificate.tau)
        b = float(certificate.sup_value)
        if abs(ty) > 1e-12:
            p1, p2 = ((x, (b - tx * x) / ty) for x in (minx, minx + span))
        else:
            p1, p2 = ((b / tx, y) for y in (miny, miny + span))
        (x1, y1), (x2, y2) = to_svg(p1), to_svg(p2)
        parts.append(f'<line x1="{x1:.4f}" y1="{y1:.4f}" x2="{x2:.4f}" y2="{y2:.4f}" '
                     'stroke="#555555" stroke-width="1.5" stroke-dasharray="10 4"/>')
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
