import os
import subprocess
import sys

import numpy as np
import pytest

from phasornet import _kernels as K


def rand_complex(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex128)


needs_numba = pytest.mark.skipif(not K.NUMBA_AVAILABLE,
                                 reason="numba unavailable or disabled")


class TestPathAgreement:
    """The jitted loops and the vectorized numpy code must match closely."""

    @needs_numba
    def test_forward(self):
        rng = np.random.default_rng(0)
        x = rand_complex(rng, (2, 3, 7, 6))
        k = rand_complex(rng, (4, 3, 3, 3))
        b = rand_complex(rng, (4,))
        a = K.conv2d_forward_numpy(x, k, b)
        c = K.conv2d_forward_numba(x, k, b)
        np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12)

    @needs_numba
    def test_backward_kernels(self):
        rng = np.random.default_rng(1)
        x = rand_complex(rng, (2, 2, 6, 6))
        d = rand_complex(rng, (2, 3, 4, 4))
        a = K.conv2d_backward_kernels_numpy(x, d)
        c = K.conv2d_backward_kernels_numba(x, d)
        np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12)

    @needs_numba
    def test_backward_input(self):
        rng = np.random.default_rng(2)
        d = rand_complex(rng, (2, 3, 4, 5))
        k = rand_complex(rng, (3, 2, 3, 3))
        a = K.conv2d_backward_input_numpy(d, k)
        c = K.conv2d_backward_input_numba(d, k)
        np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12)

    @needs_numba
    def test_complex64_inputs(self):
        rng = np.random.default_rng(3)
        x = rand_complex(rng, (1, 1, 5, 5)).astype(np.complex64)
        k = rand_complex(rng, (2, 1, 3, 3)).astype(np.complex64)
        b = rand_complex(rng, (2,)).astype(np.complex64)
        a = K.conv2d_forward_numpy(x, k, b)
        c = K.conv2d_forward_numba(x, k, b)
        assert c.dtype == np.complex64
        np.testing.assert_allclose(a, c, rtol=1e-5, atol=1e-5)


class TestBackwardInputOracle:
    def test_matches_scatter_loop(self):
        rng = np.random.default_rng(4)
        d = rand_complex(rng, (1, 2, 3, 3))
        k = rand_complex(rng, (2, 2, 3, 3))
        want = np.zeros((1, 2, 5, 5), dtype=np.complex128)
        for f in range(2):
            for i in range(3):
                for j in range(3):
                    for c in range(2):
                        for p in range(3):
                            for q in range(3):
                                want[0, c, i + p, j + q] += (
                                    np.conj(k[f, c, p, q]) * d[0, f, i, j])
        got = K.conv2d_backward_input_numpy(d, k)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestEnvFlag:
    def test_parser(self, monkeypatch):
        for val, want in [("1", True), ("true", True), ("YES", True),
                          ("0", False), ("", False), ("no", False)]:
            monkeypatch.setenv(K.DISABLE_ENV, val)
            assert K.numba_disabled_by_env() is want
        monkeypatch.delenv(K.DISABLE_ENV)
        assert K.numba_disabled_by_env() is False

    def test_flag_forces_numpy_path(self):
        code = (
            "import phasornet._kernels as K; "
            "assert not K.NUMBA_AVAILABLE; "
            "assert K.conv2d_backward_input is K.conv2d_backward_input_numpy"
        )
        env = dict(os.environ, **{K.DISABLE_ENV: "1"})
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_dispatch_matches_availability(self):
        # forward and kernel-gradient default to the BLAS-backed numpy code
        # (faster at training batch sizes); input gradient prefers numba
        assert K.conv2d_forward is K.conv2d_forward_numpy
        assert K.conv2d_backward_kernels is K.conv2d_backward_kernels_numpy
        if K.NUMBA_AVAILABLE:
            assert K.conv2d_backward_input is K.conv2d_backward_input_numba
        else:
            assert K.conv2d_backward_input is K.conv2d_backward_input_numpy
