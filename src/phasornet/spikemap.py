"""Ideal spike-timing backend: phases rendered as periodic spike events.

Every phase angle maps to a time within an ongoing cycle, t = theta * T/2pi.
Layer l's units first spike in cycle l (one layer of propagation per cycle)
and every cycle thereafter; the network is phase-locked to the input, so the
ideal backend has no jitter and serves as the exact reference for the
circuit-level simulator.
"""

import csv
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError
from .phasor_net import forward

TWO_PI = 2.0 * np.pi
CSV_HEADER = ["layer", "neuron", "time_ms"]
SpikeEvent = namedtuple("SpikeEvent", "layer neuron time")  # time in ms


@dataclass
class SpikeRaster:
    """Spikes as three columns, ordered by (time, layer, neuron)."""

    layer: np.ndarray  # int64
    neuron: np.ndarray  # int64
    time: np.ndarray  # float64 ms, non-decreasing
    period: float  # cycle period T, ms
    n_cycles: int

    def __post_init__(self):
        self.layer = np.ascontiguousarray(self.layer, dtype=np.int64)
        self.neuron = np.ascontiguousarray(self.neuron, dtype=np.int64)
        self.time = np.ascontiguousarray(self.time, dtype=np.float64)

    @classmethod
    def sorted(cls, layer, neuron, time, period, n_cycles):
        """A raster of unordered columns, put in (time, layer, neuron) order."""
        order = np.lexsort((neuron, layer, time))
        return cls(layer[order], neuron[order], time[order], period, n_cycles)

    @property
    def events(self):
        """One SpikeEvent per spike, built on each access, for perfbench/ only.
        It stays until the next benchmark change ports perfbench to the columns."""
        return [SpikeEvent(*e) for e in
                zip(self.layer.tolist(), self.neuron.tolist(), self.time.tolist())]


def phase_to_time(theta, period):
    """t = theta * T / 2pi, theta normalized into [0, 2pi)."""
    if not (period > 0 and np.isfinite(period)):
        raise ValidationError(f"cycle period must be positive and finite, got {period}")
    theta = np.asarray(theta, dtype=np.float64) % TWO_PI
    return theta * period / TWO_PI


def time_to_phase(t, period):
    """theta = 2pi * (t mod T) / T."""
    if not (period > 0 and np.isfinite(period)):
        raise ValidationError(f"cycle period must be positive and finite, got {period}")
    return TWO_PI * (np.asarray(t, dtype=np.float64) % period) / period


def synapse_delay(weights, period):
    """Complex weights -> (magnitudes, delays): |W| and phase(W) scaled into [0, T)."""
    return np.abs(weights).astype(np.float64), phase_to_time(np.angle(weights), period)


def unroll(net, x, period, n_cycles):
    """Render a forward pass as a spike raster.

    Input units (layer 0) spike every cycle at their phase times; layer l's
    units first spike in cycle l, then every cycle (phase-locked steady
    state). Masked-off units never spike.
    """
    depth = len(net.layers)
    if n_cycles < depth + 1:
        raise ValidationError(
            f"need at least depth+1 = {depth + 1} cycles for the output layer to emit"
        )
    trace = forward(net, x)
    x = np.asarray(x).reshape(-1)
    states = [(x, np.abs(x) > 0.0)] + [(h.reshape(-1), m.reshape(-1))
                                        for h, m in zip(trace.h, trace.masks)]
    layers, neurons, times = [], [], []
    for layer, (h, active) in enumerate(states):
        units = np.flatnonzero(active)
        offsets = phase_to_time(np.angle(h[units]), period)  # checks the period first
        bases = np.arange(layer, n_cycles) * period
        layers.append(np.full(units.size * bases.size, layer, dtype=np.int64))
        neurons.append(np.tile(units, bases.size))
        times.append(np.repeat(bases, units.size) + np.tile(offsets, bases.size))
    return SpikeRaster.sorted(np.concatenate(layers), np.concatenate(neurons),
                              np.concatenate(times), period, n_cycles)


def raster_phases(raster, layer, n_units, cycle):
    """Recover unit phases from one cycle of a raster (nan where silent)."""
    phases = np.full(n_units, np.nan)
    lo, hi = cycle * raster.period, (cycle + 1) * raster.period
    t = raster.time
    sel = (raster.layer == layer) & (lo <= t) & (t < hi)
    phases[raster.neuron[sel]] = time_to_phase(t[sel], raster.period)
    return phases


def write_raster_csv(raster, path):
    """CSV export: header layer,neuron,time_ms; >= 9 significant digits."""
    n = raster.time.size
    rows = [None] * (3 * n)  # layer, neuron, time of each spike in turn
    rows[0::3], rows[1::3], rows[2::3] = (
        raster.layer.tolist(), raster.neuron.tolist(), raster.time.tolist())
    with open(path, "w", newline="") as f:  # \r\n line ends, as csv.writer writes
        f.write(",".join(CSV_HEADER) + "\r\n" + ("%d,%d,%.12g\r\n" * n) % tuple(rows))


def read_raster_csv(path):
    """A raster CSV back as columns, in the file's order. The file holds no
    period or cycle count, so both read as 0; decode the raster after
    dataclasses.replace(raster, period=T, n_cycles=n)."""
    with open(path, newline="") as f:
        header = next(csv.reader([f.readline()]), [])
        if header != CSV_HEADER:
            raise ValidationError(f"unexpected raster header: {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: empty raster
                layer, neuron, time = np.loadtxt(
                    f, delimiter=",", comments=None, ndmin=1, unpack=True,
                    dtype=[("layer", np.int64), ("neuron", np.int64), ("time", np.float64)])
        except ValueError as e:
            raise DataFormatError(f"malformed raster row: {e}", path=path,
                                  offset=_first_bad_line(path)) from None
    return SpikeRaster(layer, neuron, time, period=0.0, n_cycles=0)


def _first_bad_line(path):
    """1-based line number of the first body row that is not int,int,float,
    or None when every row is."""
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if lineno == 1 or not row:  # header; loadtxt skips blank lines
                continue
            try:
                int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError):
                return lineno
            if len(row) != 3:
                return lineno
