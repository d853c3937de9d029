"""Text-templated SVG charts (no plotting dependency).

The scale chart plots fit time against training-set size, one polyline per
model, with a log-scaled time axis.
"""

from __future__ import annotations

import html
import math

from .errors import DataError
from .evaluation import ScaleResult

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
)

_TITLE = "Fit time vs training size"
_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 30, 50


def scale_chart_svg(results: list[ScaleResult]) -> str:
    """Render scale-bench results as a standalone SVG document."""
    if not results:
        raise DataError("no scale results to plot")
    models: list[str] = []
    for r in results:
        if r.model not in models:
            models.append(r.model)
    sizes = sorted({r.n_samples for r in results})
    times = [max(r.fit_time, 1e-6) for r in results]

    x_min, x_max = min(sizes), max(sizes)
    log_lo = math.floor(math.log10(min(times)))
    log_hi = math.ceil(math.log10(max(times)))
    if log_hi == log_lo:
        log_hi += 1

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def x_pos(n: int) -> float:
        if x_max == x_min:
            return _MARGIN_L + plot_w / 2
        return _MARGIN_L + plot_w * (n - x_min) / (x_max - x_min)

    def y_pos(t: float) -> float:
        frac = (math.log10(max(t, 1e-6)) - log_lo) / (log_hi - log_lo)
        return _MARGIN_T + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14">{_TITLE}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]

    for exp in range(log_lo, log_hi + 1):
        y = y_pos(10.0**exp)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L - 52}" y="{_MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 {_MARGIN_L - 52} {_MARGIN_T + plot_h / 2:.1f})">'
        "fit time (s, log)</text>"
    )

    for n in sizes:
        x = x_pos(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333" stroke-width="1"/>'
        )
        label = f"{n // 1000}k" if n >= 1000 and n % 1000 == 0 else str(n)
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">training samples</text>'
    )

    for mi, model in enumerate(models):
        color = _PALETTE[mi % len(_PALETTE)]
        pts = sorted(
            ((r.n_samples, r.fit_time) for r in results if r.model == model), key=lambda p: p[0]
        )
        coords = " ".join(f"{x_pos(n):.1f},{y_pos(t):.1f}" for n, t in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for n, t in pts:
            parts.append(
                f'<circle cx="{x_pos(n):.1f}" cy="{y_pos(t):.1f}" r="3" fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 18 * mi
        lx = _MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12">'
            f"{html.escape(model, quote=False)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts)
