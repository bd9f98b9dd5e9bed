import numpy as np
import pytest

from phasornet import _kernels as K


def rand_complex(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex128)


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
        got = K.conv2d_backward_input(d, k)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBackwardKernelsOracle:
    def test_matches_accumulation_loop(self):
        rng = np.random.default_rng(5)
        x = rand_complex(rng, (2, 3, 5, 6))
        d = rand_complex(rng, (2, 2, 3, 4))
        want = np.zeros((2, 3, 3, 3), dtype=np.complex128)
        for b in range(2):
            for f in range(2):
                for i in range(3):
                    for j in range(4):
                        for c in range(3):
                            for p in range(3):
                                for q in range(3):
                                    want[f, c, p, q] += (
                                        d[b, f, i, j] * np.conj(x[b, c, i + p, j + q]))
        _, cols = K.conv2d_forward(x, rand_complex(rng, (2, 3, 3, 3)),
                                   np.zeros(2, dtype=np.complex128))
        got = K.conv2d_backward_kernels(cols, d)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestGroupedCol2im:
    """col2im at conv2 shapes of the conv preset (6 -> 16 channels, 26x26
    input), where a group is 8 complex64 or 4 complex128 examples: batches 1
    and 11 are not multiples of either."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("batch", [1, 11, 64])
    def test_matches_per_tap_oracle(self, batch, dtype):
        rng = np.random.default_rng(batch)
        d = rand_complex(rng, (batch, 16, 24, 24)).astype(dtype)
        k = rand_complex(rng, (16, 6, 3, 3)).astype(dtype)
        want = np.zeros((batch, 6, 26, 26), dtype=np.complex128)
        for p in range(3):
            for q in range(3):
                want[:, :, p:p + 24, q:q + 24] += np.einsum(
                    "fc,bfij->bcij", np.conj(k[:, :, p, q]).astype(np.complex128), d)
        got = K.conv2d_backward_input(d, k)
        assert got.dtype == dtype
        tol = 1e-4 if dtype == np.complex64 else 1e-12
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("batch", [1, 11, 64])
    def test_groups_equal_the_whole_batch(self, batch, dtype, monkeypatch):
        rng = np.random.default_rng(batch + 1)
        d = rand_complex(rng, (batch, 16, 24, 24)).astype(dtype)
        k = rand_complex(rng, (16, 6, 3, 3)).astype(dtype)
        grouped = K.conv2d_backward_input(d, k)
        monkeypatch.setattr(K, "COL2IM_GROUP_BYTES", 1 << 40)  # one group
        np.testing.assert_array_equal(grouped, K.conv2d_backward_input(d, k))
