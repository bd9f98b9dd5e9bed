"""PhasorNetwork.create's original weight recipe, tests only.

Each weight was drawn as two float64 Gaussians summed into a complex128 array
and cast to the model dtype. create now writes the same draws straight into
the dtype array and must reproduce these weights bit for bit.
"""

import numpy as np


def reference_weights(input_shape, layer_specs, seed=0, dtype=np.complex64):
    rng = np.random.default_rng(seed)
    weights = []
    shape = tuple(input_shape)
    for spec in layer_specs:
        wshape, _, shape = spec.shapes(shape)
        std = 1.0 / np.sqrt(np.prod(wshape[1:]))
        w = rng.normal(0.0, std, wshape) + 1j * rng.normal(0.0, std, wshape)
        weights.append(w.astype(dtype))
    return weights
