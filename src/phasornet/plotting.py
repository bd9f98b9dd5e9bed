"""Deterministic SVG emission for CSV columns and spike rasters.

SVG is written by hand (no plotting library) so identical input produces
byte-identical output.
"""

import csv
import os
from xml.sax.saxutils import escape

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


def plot_columns_svg(csv_path, out_path):
    """Every column after the first as a line against the first, with the
    axes labelled from the header and NaN or infinite points dropped;
    returns the number of rows."""
    header, body = _read_csv(csv_path)
    if len(header) < 2:
        raise DataFormatError("a plot needs an x column and a y column", path=csv_path)
    try:
        cols = np.array(body, dtype=np.float64).reshape(len(body), len(header)).T
    except ValueError as e:
        raise DataFormatError(f"malformed row: {e}", path=csv_path)
    parts = _axes(escape(header[0]), escape(", ".join(header[1:])),
                  escape(os.path.basename(csv_path)))
    x, ys = cols[0], cols[1:]
    keep = np.isfinite(x) & np.isfinite(ys)  # (series, rows)
    if keep.any():
        to_x, _, _ = _scale(x[keep.any(axis=0)].tolist(), MARGIN_L, WIDTH - MARGIN_R)
        to_y, _, _ = _scale(ys[keep].tolist(), HEIGHT - MARGIN_B, MARGIN_T)
        for si, (name, y, k) in enumerate(zip(header[1:], ys, keep)):
            if not k.any():
                continue
            color = _PALETTE[si % len(_PALETTE)]
            pts = " ".join(f"{_fmt(to_x(a))},{_fmt(to_y(b))}"
                           for a, b in zip(x[k].tolist(), y[k].tolist()))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{WIDTH - MARGIN_R - 90}" y="{MARGIN_T + 16 * (si + 1)}" '
                         f'font-size="12" fill="{color}">{escape(name)}</text>')
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
    try:
        with open(csv_path, newline="") as f:
            header = next(csv.reader(f), None)
        if header is not None and header[:3] == CSV_HEADER:
            return plot_raster_svg(csv_path, out_path)
        return plot_columns_svg(csv_path, out_path)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"not UTF-8 text: {e}", path=csv_path) from None
