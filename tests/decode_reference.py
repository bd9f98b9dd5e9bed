"""Per-spike loop decoder for the circuit backend, tests only.

This is circuit.decode_output's original form: it scans every spike of the
raster for each call and rebuilds the other units' spike times per unit. The
searchsorted decoder in phasornet.circuit is checked against it.
"""

import numpy as np


def decode_output(raster, n_outputs, output_layer, now, window_cycles=3):
    """Class = output unit furthest out of phase with the rest, or None."""
    lo = now - window_cycles * raster.period
    unit_times = [[] for _ in range(n_outputs)]
    for layer, neuron, t in zip(raster.layer.tolist(), raster.neuron.tolist(),
                                raster.time.tolist()):
        if layer == output_layer and lo <= t <= now:
            unit_times[neuron].append(t)

    scores = np.full(n_outputs, -np.inf)
    for i in range(n_outputs):
        if not unit_times[i]:
            continue
        others = np.sort(np.concatenate(
            [np.asarray(unit_times[j]) for j in range(n_outputs)
             if j != i and unit_times[j]] or [np.zeros(0)]))
        if others.size == 0:
            scores[i] = np.inf  # sole spiking unit wins by default
            continue
        terms = []
        for t in unit_times[i]:
            later = others[others >= t]
            earlier = others[others <= t]
            dists = []
            if later.size:
                dists.append(later[0] - t)
            if earlier.size:
                dists.append(t - earlier[-1])
            if dists:
                terms.append(0.5 * sum(dists) if len(dists) == 2 else dists[0])
        if terms:
            scores[i] = float(np.mean(terms))
    if np.all(scores == -np.inf):
        return None
    return int(np.argmax(scores))


def decode_over_time(raster, n_outputs, output_layer, times, window_cycles=3):
    """decode_output at each sample time; -1 where nothing spiked yet."""
    out = np.empty(len(times), dtype=np.int64)
    for i, t in enumerate(times):
        d = decode_output(raster, n_outputs, output_layer, t, window_cycles)
        out[i] = -1 if d is None else d
    return out
