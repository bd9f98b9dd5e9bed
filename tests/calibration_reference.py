"""Full-scan threshold calibration by circuit runs, and the observed
amplitude it scales its candidates by, tests only.

The scan runs every candidate on every image and keeps the first candidate
with the highest circuit agreement, as calibrate_threshold did before it
scored candidates on the circuit's steady state. The circuit must decode
the net's class at least as often at calibrate_threshold's result as at
this scan's.
"""

import numpy as np

from phasornet.circuit import decode_output, run
from phasornet.errors import NumericError
from phasornet.phasor_net import forward, predict_batch
from phasornet.training import encode_batch


def observe_amplitude(circuit, image, n_cycles=None):
    """Subthreshold V_m oscillation amplitude of the first hidden layer,
    measured with an unreachably high threshold (nothing spikes): the median
    of its nonzero vm_max, start-up transient included."""
    p = circuit.params
    if n_cycles is None:
        n_cycles = p.n_cycles
    result = run(circuit, [(image, n_cycles)], v_threshold=1e30)
    first = circuit.layer_offsets[0]
    size = circuit.layer_sizes[0]
    amps = result.vm_max[first:first + size]
    amps = amps[amps > 0]
    if amps.size == 0:
        raise NumericError("no subthreshold activity observed; check the circuit")
    return float(np.median(amps))


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
