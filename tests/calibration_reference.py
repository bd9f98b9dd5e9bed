"""Full-scan threshold calibration, tests only.

The scan runs every candidate on every image and keeps the first candidate
with the highest agreement. calibrate_threshold stops early where no later
run can change that result, and is checked against this loop.
"""

import numpy as np

from phasornet.circuit import decode_output, observe_amplitude, run
from phasornet.phasor_net import forward, predict_batch
from phasornet.training import encode_batch


def full_scan(net, circuit, images, n_candidates, n_cycles):
    """(threshold, agreement, images agreed per candidate) of the full scan."""
    amp = observe_amplitude(circuit, images[0], n_cycles)
    candidates = amp * np.logspace(np.log10(0.03), np.log10(0.3), n_candidates)
    x = encode_batch(net, np.stack([np.asarray(im).reshape(-1) for im in images]))
    wants = predict_batch(forward(net, x).output.reshape(len(images), -1)).tolist()
    scores = []
    for thr in candidates:
        scores.append(sum(
            want == decode_output(run(circuit, [(image, n_cycles)], v_threshold=float(thr)).raster,
                                  circuit.n_outputs, len(net.layers),
                                  now=n_cycles * circuit.params.period)
            for image, want in zip(images, wants)))
    best = int(np.argmax(scores))  # the first of the highest
    return float(candidates[best]), scores[best] / len(images), scores
