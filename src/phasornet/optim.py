"""Adam over the real and imaginary components of complex parameters.

Each complex array is treated as interleaved (re, im) reals; first and second
moments are kept per real component, so training dynamics match a real-valued
framework operating on parameter pairs.

The update runs in place, block by block over the flat real view of each
parameter, so the working set of a block stays in cache and no full-size
temporary is made. Within a block it performs the same floating-point
operations in the same order as the textbook whole-array expression, so the
results do not depend on the block size.
"""

import numpy as np

from .errors import NumericError, check_positive

# Real components per update block: the block's six float32 arrays (gradient,
# m, v, parameter and two scratch buffers) take 1.5 MB, inside a 4 MB L2.
BLOCK = 65536
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates; denominator guard


class Adam:
    def __init__(self, params, lr=0.001):
        check_positive("learning rate", lr)
        self.lr = float(lr)
        self.t = 0
        reals = [self._as_real(p) for p in params]
        self.m = [np.zeros(r.shape, dtype=r.dtype) for r in reals]
        self.v = [np.zeros(r.shape, dtype=r.dtype) for r in reals]
        # two block-sized scratch rows, viewed as each parameter's real dtype
        self._scratch = np.empty((2, BLOCK), dtype=np.float64)

    @staticmethod
    def _as_real(arr):
        """View a complex array as its interleaved real components."""
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            return arr.view(arr.real.dtype)
        return arr

    def step(self, params, grads):
        """Bias-corrected Adam update, in place on each parameter array.

        Every gradient is checked before anything is written: a non-finite
        component raises NumericError and leaves parameters, moments and t
        as they were.
        """
        if len(params) != len(self.m) or len(grads) != len(params):
            raise ValueError("parameter/gradient count mismatch")
        flat = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = self._as_real(np.asarray(g, dtype=np.asarray(p).dtype)).reshape(-1)
            if not np.all(np.isfinite(g)):
                bad = int(np.flatnonzero(~np.isfinite(g))[0])
                raise NumericError(
                    f"non-finite gradient in parameter {i} at component {bad}"
                )
            pr = self._as_real(p)
            if not pr.flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous")
            flat.append((pr.reshape(-1), g, self.m[i].reshape(-1),
                         self.v[i].reshape(-1)))
        self.t += 1
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for pr, g, m, v in flat:
            scratch = self._scratch.view(m.dtype)
            for lo in range(0, g.size, BLOCK):
                hi = min(lo + BLOCK, g.size)
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                s1, s2 = scratch[0, :hi - lo], scratch[1, :hi - lo]
                # m = b1*m + (1-b1)*g
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=s1)
                mb += s1
                # v = b2*v + (1-b2)*g*g
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=s1)
                s1 *= gb
                vb += s1
                # p -= lr*(m/b1t) / (sqrt(v/b2t) + eps)
                np.divide(vb, b2t, out=s1)
                np.sqrt(s1, out=s1)
                s1 += eps
                np.divide(mb, b1t, out=s2)
                s2 *= lr
                s2 /= s1
                pr[lo:hi] -= s2
