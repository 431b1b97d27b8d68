"""Self-contained SVG line charts: actual prices in green, predicted in red.

Hand-rolled on purpose; the comparison figures are simple enough that a
plotting dependency would be dead weight.
"""

from __future__ import annotations

from html import escape

ACTUAL_COLOR = "green"
PREDICTED_COLOR = "red"

_WIDTH = 900
_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 50


def _ticks(lo: float, hi: float, count: int) -> list[float]:
    span = hi - lo
    return [lo + span * k / (count - 1) for k in range(count)]


def render_price_chart(dates, actual, predicted, title: str) -> str:
    """Two-polyline comparison chart with axes and a legend.

    dates label the x axis; dates, actual and predicted must be equal-length
    sequences of at least one point.
    """
    actual = [float(v) for v in actual]
    predicted = [float(v) for v in predicted]
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: {len(actual)} actual, {len(predicted)} predicted")
    if not actual:
        raise ValueError("nothing to plot")
    labels = [str(d) for d in dates]
    if len(labels) != len(actual):
        raise ValueError(f"length mismatch: {len(labels)} dates, {len(actual)} points")

    lo = min(min(actual), min(predicted))
    hi = max(max(actual), max(predicted))
    pad = (hi - lo) * 0.05 or 1.0
    lo, hi = lo - pad, hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    n = len(actual)

    def x_at(k: int) -> float:
        return _MARGIN_LEFT + (plot_w * k / (n - 1) if n > 1 else plot_w / 2)

    def y_at(v: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (v - lo) / (hi - lo))

    def points(series: list[float]) -> str:
        return " ".join(f"{x_at(k):.2f},{y_at(v):.2f}" for k, v in enumerate(series))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">'
        f"{escape(title, quote=False)}</text>",
    ]

    # axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    for value in _ticks(lo, hi, 5):
        y = y_at(value)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end">{value:.2f}</text>'
        )
    label_count = min(6, n)
    for j in range(label_count):
        k = round(j * (n - 1) / (label_count - 1)) if label_count > 1 else 0
        x = x_at(k)
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>')
        label = escape(labels[k], quote=False)
        parts.append(f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle">{label}</text>')

    curves = (("actual", ACTUAL_COLOR, actual), ("predicted", PREDICTED_COLOR, predicted))
    for _, color, series in curves:
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points(series)}"/>'
        )

    # legend, one entry a row
    lx = _MARGIN_LEFT + 12
    for row, (name, color, _) in enumerate(curves):
        ly = _MARGIN_TOP + 8 + 18 * row
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
