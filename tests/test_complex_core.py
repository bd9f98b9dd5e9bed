import numpy as np
import pytest

from phasornet.complex_core import conv2d_valid, matvec
from phasornet.errors import DimensionError
from phasornet.spikemap import phase_to_time, synapse_delay


class TestPhaseConvention:
    """np.angle's (-pi, pi] phases, as the spike-time maps read them."""

    def test_range(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        mag, delay = synapse_delay(z, 10.0)
        assert np.all(delay >= 0.0) and np.all(delay < 10.0)
        # the lower half-plane's negative phases wrap to the cycle's second half
        np.testing.assert_array_equal(delay >= 5.0, z.imag < 0)
        np.testing.assert_allclose(mag * np.exp(2j * np.pi * delay / 10.0), z,
                                   rtol=1e-12, atol=1e-12)

    def test_negative_real_axis(self):
        # phase pi, the top of the range, is half a cycle
        assert phase_to_time(np.angle(-1.0 + 0.0j), 10.0) == pytest.approx(5.0)
        assert synapse_delay(np.array([-1.0 + 0.0j]), 10.0)[1][0] == pytest.approx(5.0)


class TestMatvec:
    def test_identity(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=5) + 1j * rng.normal(size=5)
        out = matvec(np.eye(5, dtype=complex), h, np.zeros(5, dtype=complex))
        np.testing.assert_array_equal(out, h)

    def test_phase_shifter(self):
        w = np.array([[np.exp(0.4j)]])
        h = np.array([np.exp(1.1j)])
        out = matvec(w, h, np.zeros(1, dtype=complex))
        assert abs(out[0] - np.exp(1.5j)) < 1e-12

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        want = np.zeros(3, dtype=complex)
        for i in range(3):
            acc = b[i]
            for j in range(4):
                acc = acc + w[i, j] * h[j]
            want[i] = acc
        np.testing.assert_allclose(matvec(w, h, b), want, rtol=1e-10, atol=1e-10)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\)"):
            matvec(np.zeros((3, 4), dtype=complex), np.zeros(5, dtype=complex),
                   np.zeros(3, dtype=complex))


class TestConv2dValid:
    def test_zero_kernel_gives_bias(self):
        x = np.ones((1, 3, 3), dtype=np.complex128)
        k = np.zeros((1, 1, 3, 3), dtype=np.complex128)
        beta = np.array([0.25 - 0.5j])
        out = conv2d_valid(x[None], k, beta)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == beta[0]

    def test_delta_kernel_crops_center(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 6, 7)) + 1j * rng.normal(size=(1, 6, 7))
        k = np.zeros((1, 1, 3, 3), dtype=np.complex128)
        k[0, 0, 1, 1] = 1.0
        out = conv2d_valid(x[None], k, np.zeros(1, dtype=np.complex128))
        np.testing.assert_allclose(out[0, 0], x[0, 1:-1, 1:-1], rtol=1e-12)

    def test_against_quadruple_loop(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3)) + 1j * rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        want = np.zeros((3, 3, 3), dtype=complex)
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    acc = b[f]
                    for c in range(2):
                        for p in range(3):
                            for q in range(3):
                                acc = acc + k[f, c, p, q] * x[c, i + p, j + q]
                    want[f, i, j] = acc
        np.testing.assert_allclose(conv2d_valid(x[None], k, b)[0], want, rtol=1e-10, atol=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel"):
            conv2d_valid(np.zeros((1, 2, 5, 5), dtype=complex),
                         np.zeros((1, 3, 3, 3), dtype=complex),
                         np.zeros(1, dtype=complex))

    def test_too_small_input(self):
        with pytest.raises(DimensionError, match="spatial"):
            conv2d_valid(np.zeros((1, 1, 2, 5), dtype=complex),
                         np.zeros((1, 1, 3, 3), dtype=complex),
                         np.zeros(1, dtype=complex))

    def test_single_example_without_batch_axis_is_refused(self):
        with pytest.raises(DimensionError, match=r"x\(B,C,H,W\)"):
            conv2d_valid(np.zeros((1, 5, 5), dtype=complex),
                         np.zeros((1, 1, 3, 3), dtype=complex),
                         np.zeros(1, dtype=complex))
