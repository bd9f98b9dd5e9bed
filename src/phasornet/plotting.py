"""Deterministic SVG emission for metrics curves and spike rasters.

SVG is written by hand (no plotting library) so identical input produces
byte-identical output.
"""

import csv

import numpy as np

from .errors import DataFormatError
from .spikemap import CSV_HEADER, read_raster_csv

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45

_PALETTE = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
            "#16a085", "#7f8c8d", "#2c3e50", "#f39c12", "#990066"]


def _fmt(x):
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _axes(x_label, y_label, title):
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">{y_label}</text>',
        f'<text x="{(x0 + x1) // 2}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    return parts


def _scale(vals, lo_px, hi_px):
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def to_px(v):
        return lo_px + (v - lo) / span * (hi_px - lo_px)

    return to_px, lo, hi


def _svg(parts):
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def _read_csv(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    if not rows:
        raise DataFormatError("empty CSV, not even a header", path=path)
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataFormatError(
                f"row has {len(row)} fields, header has {len(header)}",
                path=path, offset=i + 2)
    return header, body


def plot_metrics_svg(csv_path, out_path):
    """epoch,train_err,test_err,loss -> error-rate-vs-epoch line plot;
    returns the number of rows."""
    header, body = _read_csv(csv_path)
    parts = _axes("epoch", "error rate", "classification error")
    if body:
        try:
            epochs = [float(r[header.index("epoch")]) for r in body]
            series = []
            for name in ("train_err", "test_err"):
                if name in header:
                    series.append((name, [float(r[header.index(name)]) for r in body]))
        except (ValueError, IndexError) as e:
            raise DataFormatError(f"malformed metrics row: {e}", path=csv_path)
        to_x, _, _ = _scale(epochs, MARGIN_L, WIDTH - MARGIN_R)
        all_y = [v for _, ys in series for v in ys if v == v]  # drop NaN
        if all_y:
            to_y, _, _ = _scale(all_y, HEIGHT - MARGIN_B, MARGIN_T)
            for si, (name, ys) in enumerate(series):
                pts = " ".join(
                    f"{_fmt(to_x(e))},{_fmt(to_y(y))}"
                    for e, y in zip(epochs, ys) if y == y)
                if pts:
                    parts.append(
                        f'<polyline points="{pts}" fill="none" '
                        f'stroke="{_PALETTE[si]}" stroke-width="1.5"/>')
                    parts.append(
                        f'<text x="{WIDTH - MARGIN_R - 90}" y="{MARGIN_T + 16 * (si + 1)}" '
                        f'font-size="12" fill="{_PALETTE[si]}">{name}</text>')
    with open(out_path, "w") as f:
        f.write(_svg(parts))
    return len(body)


def plot_raster_svg(csv_path, out_path):
    """layer,neuron,time_ms -> spike raster scatter, one row per neuron;
    returns the number of spikes."""
    raster = read_raster_csv(csv_path)
    parts = _axes("time (ms)", "neuron", "spike raster")
    if raster.time.size:
        # stack layers vertically: rows grouped by layer, neuron order within
        _, layer_idx = np.unique(raster.layer, return_inverse=True)
        units, row_idx = np.unique(np.stack([raster.layer, raster.neuron], axis=1),
                                   axis=0, return_inverse=True)
        times = raster.time.tolist()
        to_x, _, _ = _scale(times, MARGIN_L, WIDTH - MARGIN_R)
        to_y, _, _ = _scale([0, max(len(units) - 1, 1)], HEIGHT - MARGIN_B, MARGIN_T)
        for t, row, li in zip(times, row_idx.tolist(), layer_idx.tolist()):
            parts.append(
                f'<circle cx="{_fmt(to_x(t))}" cy="{_fmt(to_y(row))}" '
                f'r="1.4" fill="{_PALETTE[li % len(_PALETTE)]}"/>')
    with open(out_path, "w") as f:
        f.write(_svg(parts))
    return raster.time.size


def plot_csv(csv_path, out_path):
    """Dispatch on the CSV header; returns the number of data rows plotted."""
    with open(csv_path, newline="") as f:
        header = next(csv.reader(f), None)
    if header is not None and header[:3] == CSV_HEADER:
        return plot_raster_svg(csv_path, out_path)
    return plot_metrics_svg(csv_path, out_path)
