"""Per-spike loop form of the circuit decoder's rule, tests only.

The circuit decodes with predict()'s rule over each output unit's circular-mean
spike phase in the window. This module computes that rule explicitly: it scans
every spike of the raster, sums one unit phasor per spike per unit, and scores
each active unit by mean_{j != i} (1 - cos(theta_i - theta_j)) over the other
active units. A sole active unit wins.
"""

import cmath
import math

import numpy as np


def window_sums(raster, n_outputs, output_layer, now, window_cycles=3):
    """Per-unit sums of spike phasors and spike counts in [now - window, now]."""
    lo = now - window_cycles * raster.period
    sums = [0j] * n_outputs
    counts = [0] * n_outputs
    for layer, neuron, t in zip(raster.layer.tolist(), raster.neuron.tolist(),
                                raster.time.tolist()):
        if layer == output_layer and lo <= t <= now:
            sums[neuron] += cmath.exp(2j * math.pi * (t % raster.period) / raster.period)
            counts[neuron] += 1
    return sums, counts


def window_scores(raster, n_outputs, output_layer, now, window_cycles=3):
    """Per-unit scores (-inf for a unit silent in [now - window, now]) and
    resultant lengths |sum of phasors| / spike count (nan when silent)."""
    sums, counts = window_sums(raster, n_outputs, output_layer, now, window_cycles)
    resultants = [abs(sums[i]) / counts[i] if counts[i] else math.nan
                  for i in range(n_outputs)]
    return phasor_scores(sums), resultants


def output_spike_phases(raster, n_outputs, output_layer, now):
    """Each output unit's circular-mean spike phase over the 3-cycle decode
    window, the phases the decoder compares; nan for a silent unit."""
    sums, counts = window_sums(raster, n_outputs, output_layer, now)
    return np.array([cmath.phase(s) if c else math.nan for s, c in zip(sums, counts)])


def phasor_scores(phasors):
    """predict()'s per-unit scores, -inf for a zero (inactive) phasor."""
    active = [i for i, z in enumerate(phasors) if z != 0]
    theta = {i: cmath.phase(phasors[i]) for i in active}
    scores = [-math.inf] * len(phasors)
    for i in active:
        others = [j for j in active if j != i]
        scores[i] = (sum(1.0 - math.cos(theta[i] - theta[j]) for j in others) / len(others)
                     if others else 1.0)
    return scores
