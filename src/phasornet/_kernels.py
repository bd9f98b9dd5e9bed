"""Convolution kernels: valid-padding 3x3 cross-correlation by im2col + BLAS.

Shapes: x (B, C, H, W), kernels (F, C, 3, 3), bias (F,) -> (B, F, OH, OW)
with OH, OW = H-2, W-2. im2col lays the input out once as columns
(B, C*9, OH*OW); row c*9 + 3p + q of column i*OW + j holds x[b, c, i+p, j+q].
The forward pass multiplies the kernels into them, and the circuit reads its
conv synapses off the im2col map of an index image. The backward pass reuses
those columns for the kernel gradient, and scatters column cotangents back
onto the input (col2im) for the input gradient, a few examples at a time.
"""

import numpy as np

# Convolution is numpy only. perfbench/run.py still reports this constant,
# so it stays until the benchmark's next change.
NUMBA_AVAILABLE = False

# col2im computes the column cotangents of this many bytes' worth of examples
# at a time (at least one), so the (B, C*9, OH*OW) array never exists whole
COL2IM_GROUP_BYTES = 2 << 20


def im2col(x):
    """The (B, C*9, OH*OW) columns of x (B, C, H, W), a copy."""
    b, c, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (h - 2, w - 2), axis=(2, 3))
    # win: (B, C, 3, 3, OH, OW); the reshape copies it into columns
    return win.reshape(b, c * 9, (h - 2) * (w - 2))


def conv2d_forward(x, kernels, bias):
    """Returns (out, cols): the correlation and the im2col columns of x."""
    b, c, h, w = x.shape
    f = kernels.shape[0]
    cols = im2col(x)
    out = np.matmul(kernels.reshape(f, c * 9), cols)
    out += bias[:, None]
    return out.reshape(b, f, h - 2, w - 2), cols


def conv2d_backward_kernels(cols, delta):
    """gk[f,c,p,q] = sum_{b,i,j} delta[b,f,i,j] * conj(x[b,c,i+p,j+q]),
    one GEMM per example against the forward pass's columns of x."""
    b, f, oh, ow = delta.shape
    # conj(conj(delta) @ cols^T) conjugates the small operand, not the columns
    dc = np.conj(delta.reshape(b, f, oh * ow))
    gk = np.conj(np.matmul(dc, cols.transpose(0, 2, 1)).sum(axis=0))
    return gk.reshape(f, cols.shape[1] // 9, 3, 3)


def conv2d_backward_input(delta, kernels):
    """gx[b,c,i+p,j+q] += conj(kernels[f,c,p,q]) * delta[b,f,i,j] (col2im)."""
    b, f, oh, ow = delta.shape
    c = kernels.shape[1]
    kc = np.conj(kernels.reshape(f, c * 9)).T
    d = delta.reshape(b, f, oh * ow)
    gx = np.zeros((b, c, oh + 2, ow + 2), dtype=np.result_type(kc, d))
    group = max(1, COL2IM_GROUP_BYTES // (c * 9 * oh * ow * gx.itemsize))
    buf = np.empty((min(group, b), c * 9, oh * ow), dtype=gx.dtype)
    for start in range(0, b, group):
        part = d[start:start + group]
        dcols = np.matmul(kc, part, out=buf[:len(part)]).reshape(-1, c, 3, 3, oh, ow)
        g = gx[start:start + group]
        for p in range(3):
            for q in range(3):
                g[:, :, p:p + oh, q:q + ow] += dcols[:, :, p, q]
    return gx
