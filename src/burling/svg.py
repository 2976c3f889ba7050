"""SVG rendering of frame families."""

from __future__ import annotations

from html import escape

from .frames import FrameFamily

SCALE = 10  # pixels per coordinate unit
PAD = 1  # units of margin around the drawing


def render_svg(family: FrameFamily) -> str:
    """An SVG 1.1 document with one unfilled rectangle outline per frame
    and the frame id as a label just inside its left edge.  The y axis is
    flipped so larger tops appear higher on screen."""
    frames = list(family)
    if frames:
        min_l = min(f.l for f in frames)
        max_r = max(f.r for f in frames)
        min_b = min(f.b for f in frames)
        max_t = max(f.t for f in frames)
        width = (max_r - min_l + 2 * PAD) * SCALE
        height = (max_t - min_b + 2 * PAD) * SCALE
    else:
        min_l = max_t = 0
        width = height = 2 * PAD * SCALE

    def sx(x):
        return (x - min_l + PAD) * SCALE

    def sy(y):
        return (max_t - y + PAD) * SCALE

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for f in frames:
        parts.append(
            f'  <rect x="{sx(f.l)}" y="{sy(f.t)}" '
            f'width="{(f.r - f.l) * SCALE}" height="{(f.t - f.b) * SCALE}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
        label_y = (sy(f.t) + sy(f.b)) / 2
        parts.append(
            f'  <text x="{sx(f.l) + 2}" y="{label_y:g}" font-size="8" '
            f'font-family="sans-serif">{escape(str(f.id), quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
