"""Dependency-free SVG line charts.

Textual output with fixed formatting so identical inputs produce identical
bytes; tests assert structure, not pixels.
"""

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")

WIDTH = 900
HEIGHT = 480
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60


def _ticks(lo: float, hi: float, count: int = 5):
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(v: float) -> str:
    return format(v, ".6g")


def line_chart(series, title: str, x_label: str, y_label: str, x_tick_labels=None) -> list:
    """Lines of an SVG of ``series`` = [(label, values), ...] on an implicit x axis.

    ``x_tick_labels`` optionally maps x positions to strings (dates, epoch
    numbers); about six are sampled evenly.
    """
    if not series or any(len(vals) == 0 for _, vals in series):
        raise ValueError("line_chart needs at least one non-empty series")
    n = max(len(vals) for _, vals in series)
    y_lo = min(min(vals) for _, vals in series)
    y_hi = max(max(vals) for _, vals in series)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(i: int) -> float:
        return MARGIN_LEFT + (plot_w * i / max(n - 1, 1))

    def py(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    for v in _ticks(y_lo + pad, y_hi - pad):
        y = py(v)
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )

    tick_count = min(6, n)
    positions = sorted({int(round(i * (n - 1) / max(tick_count - 1, 1))) for i in range(tick_count)})
    for i in positions:
        x = px(i)
        label = x_tick_labels[i] if x_tick_labels else str(i)
        out.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    # axes
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {HEIGHT / 2:.1f})">{y_label}</text>'
    )

    for k, (label, vals) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(i):.2f},{py(float(v)):.2f}" for i, v in enumerate(vals))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        lx = MARGIN_LEFT + 15
        ly = MARGIN_TOP + 16 * (k + 1)
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    out.append("</svg>")
    return out
