"""Complex scalar/tensor arithmetic and the two structural linear operations.

Complex values are numpy complex scalars/arrays (complex64 for training,
complex128 where tight tolerances are needed, e.g. gradient checking). A
"tensor" here is just a numpy array of complex dtype; real and imaginary
parts are the two carried reals.

Phase convention: two-argument arctangent, range (-pi, pi]. Phase comparisons
elsewhere in the package go through cos/sin, never raw angle subtraction.
"""

import numpy as np

from . import _kernels
from .errors import DimensionError


def cmul(a, b):
    """Complex product (a.re*b.re - a.im*b.im, a.re*b.im + a.im*b.re)."""
    return np.multiply(a, b)


def magnitude(z):
    """sqrt(re^2 + im^2), elementwise."""
    return np.abs(z)


def phase(z):
    """Two-argument arctangent of (im, re), in (-pi, pi]."""
    return np.arctan2(np.imag(z), np.real(z))


def from_polar(r, theta):
    """r * e^{i theta} as a complex array."""
    return r * np.exp(1j * np.asarray(theta, dtype=np.float64))


def matvec(w, h, b):
    """out_i = sum_j W_ij h_j + b_i in complex arithmetic.

    w: (M, N), h: (N,) or batched (B, N), b: (M,).
    """
    w = np.asarray(w)
    h = np.asarray(h)
    b = np.asarray(b)
    if w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"matvec expects 2-d W and 1-d b, got W{w.shape}, b{b.shape}")
    m, n = w.shape
    if h.shape[-1] != n or b.shape[0] != m:
        raise DimensionError(
            f"matvec shapes do not conform: W{w.shape}, h{h.shape}, b{b.shape}"
        )
    return h @ w.T + b


def conv2d_valid(x, kernels, bias, return_cols=False):
    """Valid-padding stride-1 cross-correlation with 3x3 kernels.

    x: (C, H, W) or batched (B, C, H, W); kernels: (F, C, 3, 3); bias: (F,).
    Returns (..., F, H-2, W-2). With return_cols, also returns the im2col
    columns of x (batched even for a single x) that the backward pass
    reuses; see _kernels.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or kernels.ndim != 4 or kernels.shape[2:] != (3, 3):
        raise DimensionError(
            f"conv2d_valid expects x(B,C,H,W) and kernels(F,C,3,3), got {x.shape}, {kernels.shape}"
        )
    if x.shape[1] != kernels.shape[1]:
        raise DimensionError(
            f"channel mismatch: input has {x.shape[1]} channels, kernels expect {kernels.shape[1]}"
        )
    if bias.shape != (kernels.shape[0],):
        raise DimensionError(f"bias shape {bias.shape} != ({kernels.shape[0]},)")
    if x.shape[2] < 3 or x.shape[3] < 3:
        raise DimensionError(f"spatial extent too small for 3x3 kernel: {x.shape}")
    out, cols = _kernels.conv2d_forward(x, np.ascontiguousarray(kernels), bias)
    if single:
        out = out[0]
    return (out, cols) if return_cols else out
