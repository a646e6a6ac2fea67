"""Static SVG line charts: median trajectories with interquartile bands.

One chart shows a single (config, metric, split) cell of the summary: the
median of the metric against sample size, one line plus one shaded
q25-q75 band per event rate.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .engine import SummaryRecord
from .errors import EmptyCell

_WIDTH, _HEIGHT = 760, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 150, 36, 52

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: The number of steps ``_nice_ticks`` aims to split a span into.
_TICK_STEPS = 5


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    raw = (hi - lo) / _TICK_STEPS
    mag = 10 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    # tick k sits at k * step, so a step below half an ulp of lo cannot
    # stall the list.  At most _TICK_STEPS + 1 multiples of step >= raw
    # lie in [lo, hi]; the slack, far below any visible distance, may admit
    # one more.  Each tick is rounded to one decimal past step's own (2.5
    # has two), and ticks that round to one float are given once.
    digits = 1 - math.floor(math.log10(step))
    slack = 1e-9 * step
    first = math.ceil(lo / step)
    ticks = {round(k * step, digits) for k in range(first, first + _TICK_STEPS + 2)}
    return sorted(tick for tick in ticks if lo - slack <= tick <= hi + slack)


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` escaped.

    ``xml.sax.saxutils.escape`` does the same, but importing it loads
    ``urllib.request`` and ``ssl``, several MiB for three replacements.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels for distinct ticks at the fewest significant digits, 6 or
    more, that tell them all apart; 17 digits tell any two doubles apart.

    A subnormal tick is labelled with its shortest round-trip form, as its
    exact value at 6 digits shows the coarse spacing of subnormals, not the
    tick (2.49997e-321 for the double nearest 2.5e-321).
    """
    for digits in range(6, 18):
        labels = [repr(t) if 0 < abs(t) < sys.float_info.min else f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def emit_chart(
    summaries: Sequence[SummaryRecord],
    config_id: str,
    metric: str,
    split: str,
) -> str:
    """Render the selected summary cell as a standalone SVG document.

    A row whose q25, median or q75 is NaN or infinite is refused with
    ``ValueError`` naming its n and rate, and so are values spanning more
    than a float can hold.
    """
    cell = [
        r for r in summaries
        if r.config_id == config_id and r.metric == metric and r.split == split
    ]
    if not cell:
        raise EmptyCell(
            f"no summary rows for config={config_id!r} metric={metric!r} split={split!r}"
        )
    for r in cell:
        if not all(map(math.isfinite, (r.q25, r.median, r.q75))):
            raise ValueError(
                f"summary row at n={r.n}, rate={r.event_rate:g} has a non-finite "
                "q25, median or q75, which a chart cannot place"
            )
    by_rate: dict[float, list[SummaryRecord]] = {}
    for r in cell:
        by_rate.setdefault(r.event_rate, []).append(r)
    for rows in by_rate.values():
        rows.sort(key=lambda r: r.n)

    xs = sorted({r.n for r in cell})
    x_lo, x_hi = min(xs), max(xs)
    y_values = [v for r in cell for v in (r.q25, r.q75, r.median)]
    y_lo, y_hi = min(y_values), max(y_values)
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(
            f"summary values from {min(y_values):g} to {max(y_values):g} span too wide a range to chart"
        )

    def px(n: float) -> float:
        return _scale(n, x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)

    def py(v: float) -> float:
        return _scale(v, y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14">'
        f"config {_escape(config_id)}: {_escape(metric)} ({_escape(split)} split)</text>",
    ]

    axis_y = _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for n in xs:
        x = px(n)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 18}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{n}</text>'
        )
    ticks = _nice_ticks(y_lo, y_hi)
    for tick, label in zip(ticks, _tick_labels(ticks)):
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 3:.1f}" font-family="sans-serif" font-size="10" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 12}" '
        'font-family="sans-serif" font-size="12" text-anchor="middle">sample size</text>'
    )

    for i, rate in enumerate(sorted(by_rate)):
        rows = by_rate[rate]
        color = _PALETTE[i % len(_PALETTE)]
        upper = " ".join(f"{px(r.n):.1f},{py(r.q75):.1f}" for r in rows)
        lower = " ".join(f"{px(r.n):.1f},{py(r.q25):.1f}" for r in reversed(rows))
        parts.append(
            f'<polygon class="band" points="{upper} {lower}" fill="{color}" '
            'fill-opacity="0.15" stroke="none"/>'
        )
        median_pts = " ".join(f"{px(r.n):.1f},{py(r.median):.1f}" for r in rows)
        parts.append(
            f'<polyline class="median" points="{median_pts}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        legend_y = _MARGIN_T + 18 * i + 10
        legend_x = _WIDTH - _MARGIN_R + 16
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 24}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">rate {rate:g}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
