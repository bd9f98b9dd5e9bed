"""Convolution kernels: numba-jitted loops with pure-numpy fallbacks.

Set PHASORNET_DISABLE_NUMBA=1 to force the numpy path (also used automatically
when numba is not importable). Both paths implement identical arithmetic.
"""

import os

import numpy as np

DISABLE_ENV = "PHASORNET_DISABLE_NUMBA"


def numba_disabled_by_env():
    return os.environ.get(DISABLE_ENV, "").strip().lower() in ("1", "true", "yes")


NUMBA_AVAILABLE = False
if not numba_disabled_by_env():
    try:
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:
        pass

if not NUMBA_AVAILABLE:

    def njit(*args, **kwargs):
        # no-op decorator so jitted defs below stay importable
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# Valid-padding 3x3 cross-correlation, complex multiply-accumulate.
# Shapes: x (B, C, H, W), kernels (F, C, 3, 3), bias (F,) -> (B, F, H-2, W-2)
# ---------------------------------------------------------------------------


def conv2d_forward_numpy(x, kernels, bias):
    b, c, h, w = x.shape
    f = kernels.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    # win: (B, C, OH, OW, 3, 3) -> (B, OH, OW, C*9)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, h - 2, w - 2, c * 9)
    out = np.tensordot(cols, kernels.reshape(f, c * 9), axes=([3], [1]))
    out = out + bias
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


@njit(cache=True)
def conv2d_forward_numba(x, kernels, bias):
    b, c, h, w = x.shape
    f = kernels.shape[0]
    oh, ow = h - 2, w - 2
    out = np.empty((b, f, oh, ow), dtype=x.dtype)
    for n in range(b):
        for k in range(f):
            for i in range(oh):
                for j in range(ow):
                    acc = bias[k]
                    for ch in range(c):
                        for p in range(3):
                            for q in range(3):
                                acc += kernels[k, ch, p, q] * x[n, ch, i + p, j + q]
                    out[n, k, i, j] = acc
    return out


def conv2d_backward_kernels_numpy(x, delta):
    # gk[f,c,p,q] = sum_{b,i,j} delta[b,f,i,j] * conj(x[b,c,i+p,j+q])
    b, c, h, w = x.shape
    oh, ow = h - 2, w - 2
    win = np.lib.stride_tricks.sliding_window_view(x, (oh, ow), axis=(2, 3))
    # win: (B, C, 3, 3, OH, OW)
    return np.tensordot(delta, np.conj(win), axes=([0, 2, 3], [0, 4, 5]))


@njit(cache=True)
def conv2d_backward_kernels_numba(x, delta):
    b, c, h, w = x.shape
    f = delta.shape[1]
    oh, ow = h - 2, w - 2
    gk = np.zeros((f, c, 3, 3), dtype=x.dtype)
    for n in range(b):
        for k in range(f):
            for i in range(oh):
                for j in range(ow):
                    d = delta[n, k, i, j]
                    for ch in range(c):
                        for p in range(3):
                            for q in range(3):
                                gk[k, ch, p, q] += d * np.conj(x[n, ch, i + p, j + q])
    return gk


def conv2d_backward_input_numpy(delta, kernels):
    # full correlation of zero-padded delta with conj, spatially flipped,
    # channel-transposed kernels; reuses the forward kernel
    b, f, oh, ow = delta.shape
    pad = np.zeros((b, f, oh + 4, ow + 4), dtype=delta.dtype)
    pad[:, :, 2:-2, 2:-2] = delta
    kt = np.ascontiguousarray(np.conj(kernels[:, :, ::-1, ::-1]).transpose(1, 0, 2, 3))
    zero_bias = np.zeros(kt.shape[0], dtype=delta.dtype)
    return conv2d_forward_numpy(pad, kt, zero_bias)


@njit(cache=True)
def conv2d_backward_input_numba(delta, kernels):
    b, f, oh, ow = delta.shape
    c = kernels.shape[1]
    h, w = oh + 2, ow + 2
    gx = np.zeros((b, c, h, w), dtype=delta.dtype)
    for n in range(b):
        for k in range(f):
            for i in range(oh):
                for j in range(ow):
                    d = delta[n, k, i, j]
                    for ch in range(c):
                        for p in range(3):
                            for q in range(3):
                                gx[n, ch, i + p, j + q] += np.conj(kernels[k, ch, p, q]) * d
    return gx


# Default dispatch: the im2col+BLAS numpy code wins for the forward pass and
# the kernel gradient at training batch sizes, while the jitted scatter loop
# wins for the input gradient.
conv2d_forward = conv2d_forward_numpy
conv2d_backward_kernels = conv2d_backward_kernels_numpy
if NUMBA_AVAILABLE:
    conv2d_backward_input = conv2d_backward_input_numba
else:
    conv2d_backward_input = conv2d_backward_input_numpy
