"""Whole-array Adam update, tests only.

This is optim.Adam.step's original form: one numpy expression per moment and
per parameter, each making full-size temporaries. The blocked in-place step
in phasornet.optim must reproduce it bit for bit.
"""

import numpy as np


def adam_step(params, grads, m, v, t, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """One update of t-1 -> t, in place on params, m and v."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        g = _as_real(np.asarray(g, dtype=np.asarray(p).dtype))
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        pr = _as_real(p)
        pr -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + eps)


def _as_real(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return arr.view(arr.real.dtype)
    return arr
