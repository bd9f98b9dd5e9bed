import numpy as np
import pytest

from phasornet.errors import DimensionError, ValidationError
from phasornet.phasor_net import (
    LayerSpec,
    PhasorNetwork,
    _activation_pullback,
    backward,
    encode_target_phases,
    forward,
    input_phases,
    loss_mse,
    make_phase_shifts,
    predict,
    predict_batch,
    tpam_activation,
)

from phasornet import cli
from phasornet.training import encode_batch

from conftest import small_fc_net
from create_reference import reference_weights
from phasor_reference import activation_jacobian, loss_cosine, loss_phase_gradient


class TestCreate:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("arch,shape", [("conv", (1, 28, 28)), ("conv", (3, 32, 32)),
                                            ("fc-mnist", (1, 28, 28))])
    def test_weights_match_the_complex128_recipe(self, arch, shape, dtype):
        for seed in (0, 9):
            cfg = dict(cli.DEFAULTS, arch=arch, seed=seed, phase_shift=False)
            net = cli._build_net(cfg, shape, dtype=dtype)
            want = reference_weights(net.input_shape, net.layers, seed=seed, dtype=dtype)
            for w, ref in zip(net.weights, want, strict=True):
                assert w.dtype == dtype
                np.testing.assert_array_equal(w, ref)
            for b in net.biases:
                assert b.dtype == dtype and not b.any()


class TestLayerSpecShapes:
    def test_dense_and_conv_shapes(self):
        dense = LayerSpec("dense", fan_in=12, fan_out=5)
        assert dense.shapes((3, 2, 2)) == ((5, 12), (5,), (5,))
        conv = LayerSpec("conv3x3", in_channels=2, out_channels=4)
        assert conv.shapes((2, 7, 5)) == ((4, 2, 3, 3), (4,), (4, 5, 3))

    @pytest.mark.parametrize("spec,in_shape,match", [
        (LayerSpec("dense", fan_in=12, fan_out=5), (13,), "fan_in 12"),
        (LayerSpec("conv3x3", in_channels=2, out_channels=4), (3, 7, 7), "2 channels"),
        (LayerSpec("conv3x3", in_channels=2, out_channels=4), (98,), r"\(C,H,W\)"),
        (LayerSpec("conv3x3", in_channels=2, out_channels=4), (2, 2, 7), r"H, W >= 3"),
        (LayerSpec("dense", fan_in=4, fan_out=5), (-2, -2), "no units"),
    ], ids=["dense_fan_in", "conv_channels", "conv_not_chw", "conv_too_small",
            "negative_size"])
    def test_nonconforming_input(self, spec, in_shape, match):
        with pytest.raises(DimensionError, match=match):
            spec.shapes(in_shape)
        with pytest.raises(DimensionError, match=match):
            PhasorNetwork.create(in_shape, [spec])

    @pytest.mark.parametrize("fields", [
        {"kind": "pool"}, {"kind": "dense", "fan_in": 4.0},
        {"kind": "dense", "fan_out": -1}, {"kind": "conv3x3", "in_channels": True},
    ])
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ValidationError):
            LayerSpec(**fields)


class TestEncodeInput:
    def test_endpoints(self):
        # p=1 -> phase 0, p=0 -> phase pi
        np.testing.assert_array_equal(input_phases(np.array([[1.0, 0.0]]), np.zeros(2)),
                                      [[0.0, np.pi]])

    def test_midpoint(self):
        assert input_phases(np.array([[0.5]]), np.zeros(1))[0, 0] == np.pi / 2

    def test_unit_magnitude(self):
        rng = np.random.default_rng(0)
        net = PhasorNetwork.create((100,), [LayerSpec("dense", fan_in=100, fan_out=2)],
                                   dtype=np.complex128, use_phase_shifts=True)
        x = encode_batch(net, rng.uniform(0, 1, (3, 100)))
        np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            input_phases(np.array([[1.2]]), np.zeros(1))
        with pytest.raises(ValidationError):
            input_phases(np.array([[-0.1]]), np.zeros(1))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            input_phases(np.array([[0.5, np.nan]]), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_network_rejects_a_non_finite_shift(self, bad):
        net = PhasorNetwork.create((4,), [LayerSpec("dense", fan_in=4, fan_out=2)], seed=0)
        shifts = np.zeros(4)
        shifts[2] = bad
        with pytest.raises(ValidationError, match="phase shifts must be finite, got .* at input 2"):
            PhasorNetwork(net.input_shape, net.layers, net.weights, net.biases,
                          phase_shifts=shifts)

    def test_rejects_a_shift_count_that_does_not_match(self):
        with pytest.raises(DimensionError, match="3 phase shifts do not match 4 pixels"):
            input_phases(np.zeros((2, 2, 2)), np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    @pytest.mark.parametrize("shifts", [False, True], ids=["no_shifts", "shifts"])
    def test_encode_batch_rounds_once(self, kind, dtype, shifts):
        # e^(i theta) of the exact float64 phase, rounded once to the model's
        # dtype; without shifts, e^(i pi (1 - p)) itself
        if kind == "dense":
            shape, specs = (64,), [LayerSpec("dense", fan_in=64, fan_out=10)]
        else:
            shape, specs = (1, 28, 28), [LayerSpec("conv3x3", in_channels=1, out_channels=2)]
        net = PhasorNetwork.create(shape, specs, seed=3, dtype=dtype, use_phase_shifts=shifts)
        p = np.random.default_rng(4).uniform(size=(5,) + shape)
        want = np.exp(1j * np.pi * (1 - p)).astype(dtype)
        if shifts:
            s = net.phase_shifts.reshape(shape)
            want = np.exp(1j * (np.pi * (1 - p) + s)).astype(dtype)
        got = encode_batch(net, p)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


class TestPhaseShifts:
    def test_zero_shift_is_identity(self):
        p = np.random.default_rng(1).uniform(0, 1, (2, 16))
        np.testing.assert_array_equal(input_phases(p, np.zeros(16)), np.pi * (1.0 - p))

    def test_pi_shift_flips(self):
        theta = input_phases(np.array([[1.0]]), np.array([np.pi]))
        assert theta[0, 0] == np.pi
        assert abs(np.exp(1j * theta[0, 0]) + 1.0) < 1e-12

    def test_reproducible_from_seed(self):
        np.testing.assert_array_equal(make_phase_shifts(32, 5), make_phase_shifts(32, 5))
        assert not np.array_equal(make_phase_shifts(32, 5), make_phase_shifts(32, 6))


class TestEncodeTarget:
    def test_two_classes(self):
        np.testing.assert_array_equal(encode_target_phases([0, 1], 2),
                                      [[np.pi, 0.0], [0.0, np.pi]])

    def test_ten_classes(self):
        phases = encode_target_phases([3], 10)[0]
        assert phases[3] == np.pi
        assert np.all(np.delete(phases, 3) == 0.0)

    def test_gap_is_pi(self):
        for c, phases in enumerate(encode_target_phases(np.arange(10), 10)):
            others = np.delete(phases, c)
            np.testing.assert_allclose(np.abs(phases[c] - others), np.pi)

    def test_out_of_range(self):
        for labels in ([10], [0, 11], [-1]):
            with pytest.raises(ValidationError):
                encode_target_phases(np.array(labels), 10)


class TestActivation:
    def test_normalizes(self):
        out = tpam_activation(np.complex128(3 + 4j), 0.0)[0]
        assert abs(out - (0.6 + 0.8j)) < 1e-12

    def test_below_threshold_zero(self):
        assert tpam_activation(np.complex128(0.3), 0.5)[0] == 0.0

    def test_identity_on_unit_circle(self):
        rng = np.random.default_rng(2)
        z = np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
        np.testing.assert_allclose(tpam_activation(z, 0.0)[0], z, rtol=1e-12)

    def test_zero_input_goes_to_else_branch(self):
        assert tpam_activation(np.complex128(0.0), 0.0)[0] == 0.0

    def test_output_magnitude_binary(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=200) + 1j * rng.normal(size=200)
        out = tpam_activation(z, 0.7)[0]
        mags = np.abs(out)
        assert np.all((mags == 0.0) | (np.abs(mags - 1.0) < 1e-15))

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=50) + 1j * rng.normal(size=50)
        for lam in (0.5, 2.0, 8.0):
            a = tpam_activation(z, 0.0)[0]
            b = tpam_activation(lam * z, 0.0)[0]
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_nan_propagates_and_is_inactive(self):
        h, mask, _ = tpam_activation(np.array([np.nan + 0j, 2.0]), 0.0)
        assert np.isnan(h[0]) and not mask[0]
        assert h[1] == 1.0 and mask[1]


class TestActivationJacobian:
    def test_real_axis(self):
        np.testing.assert_allclose(activation_jacobian(1 + 0j), [[0, 0], [0, 1]])

    def test_imag_axis(self):
        np.testing.assert_allclose(activation_jacobian(0 + 1j), [[1, 0], [0, 0]])

    def test_combined_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.normal(size=2)
            if np.hypot(a, b) < 0.1:
                continue
            j = activation_jacobian(a + 1j * b)
            combined = (j[0, 0] + j[1, 0]) + 1j * (j[0, 1] + j[1, 1])
            want = ((b * b - a * b) + 1j * (a * a - a * b)) / (a * a + b * b) ** 1.5
            assert abs(combined - want) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        eps = 1e-7
        for _ in range(25):
            z = rng.normal() + 1j * rng.normal()
            if abs(z) < 0.1:
                continue
            jac = activation_jacobian(z)
            f = lambda w: w / abs(w)
            fd = np.empty((2, 2))
            fd[0, 0] = (f(z + eps).real - f(z - eps).real) / (2 * eps)
            fd[1, 0] = (f(z + eps).imag - f(z - eps).imag) / (2 * eps)
            fd[0, 1] = (f(z + 1j * eps).real - f(z - 1j * eps).real) / (2 * eps)
            fd[1, 1] = (f(z + 1j * eps).imag - f(z - 1j * eps).imag) / (2 * eps)
            np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-7)

    def test_singular_at_zero(self):
        with pytest.raises(ValidationError):
            activation_jacobian(0j)


class TestActivationPullback:
    """The in-place tangent projection backward() uses, against the real 2x2
    Jacobian applied unit by unit."""

    @pytest.mark.parametrize("shape", [(40,), (3, 4, 5, 6)])
    def test_matches_jacobian_oracle(self, shape):
        rng = np.random.default_rng(21)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h, mask, inv = tpam_activation(z, 0.8)
        assert mask.any() and not mask.all()
        got = _activation_pullback(g, h, inv)
        for idx in zip(*np.nonzero(mask)):
            want = activation_jacobian(z[idx]).T @ [g[idx].real, g[idx].imag]
            np.testing.assert_allclose([got[idx].real, got[idx].imag], want,
                                       rtol=1e-12, atol=1e-12)
        assert np.all(got[~mask] == 0)

    def test_complex64_stays_complex64(self):
        rng = np.random.default_rng(22)
        z = (rng.normal(size=30) + 1j * rng.normal(size=30)).astype(np.complex64)
        g = (rng.normal(size=30) + 1j * rng.normal(size=30)).astype(np.complex64)
        h, _, inv = tpam_activation(z, 0.5)
        assert _activation_pullback(g, h, inv).dtype == np.complex64


class TestLoss:
    def test_perfect_alignment(self):
        phases = np.array([np.pi, 0.0, 0.0])
        out = np.exp(1j * phases)
        assert loss_cosine(phases, phases) == pytest.approx(0.0)
        assert loss_mse(out, phases) == pytest.approx(0.0, abs=1e-12)

    def test_fully_antialigned(self):
        target = np.zeros(4)
        output = np.full(4, np.pi)
        assert loss_cosine(output, target) == pytest.approx(8.0)

    def test_forms_agree(self):
        rng = np.random.default_rng(7)
        out_phases = rng.uniform(-np.pi, np.pi, (100, 10))
        tgt = rng.uniform(-np.pi, np.pi, (100, 10))
        lc = loss_cosine(out_phases, tgt)
        lm = loss_mse(np.exp(1j * out_phases), tgt)
        np.testing.assert_allclose(lc, lm, atol=1e-6)

    def test_inactive_output_contributes_half(self):
        output = np.array([0.0 + 0j, 1.0 + 0j])
        target = np.array([0.0, 0.0])
        assert loss_mse(output, target) == pytest.approx(0.5)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        phases = rng.uniform(-np.pi, np.pi, (500, 6))
        tgt = rng.uniform(-np.pi, np.pi, (500, 6))
        l = loss_cosine(phases, tgt)
        assert np.all(l >= 0.0) and np.all(l <= 12.0)

    def test_phase_gradient(self):
        assert loss_phase_gradient(0.3, 0.3) == pytest.approx(0.0)
        assert loss_phase_gradient(np.pi / 2, 0.0) == pytest.approx(1.0)
        assert loss_phase_gradient(np.pi, 0.0) == pytest.approx(0.0, abs=1e-12)


class TestForward:
    def test_identity_net_preserves_phases(self):
        specs = [LayerSpec("dense", fan_in=4, fan_out=4)]
        net = PhasorNetwork(
            (4,), specs, [np.eye(4, dtype=np.complex128)],
            [np.zeros(4, dtype=np.complex128)])
        rng = np.random.default_rng(9)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        out = forward(net, x).output
        np.testing.assert_allclose(np.angle(out), np.angle(x), atol=1e-12)

    def test_single_phase_shifter_unit(self):
        phi, theta = 0.7, 1.9
        specs = [LayerSpec("dense", fan_in=1, fan_out=1)]
        net = PhasorNetwork((1,), specs,
                            [np.array([[np.exp(1j * phi)]])],
                            [np.zeros(1, dtype=np.complex128)])
        out = forward(net, np.array([np.exp(1j * theta)])).output
        assert abs(out[0] - np.exp(1j * (theta + phi))) < 1e-12

    def test_against_straight_line_evaluator(self):
        # independent re-implementation: plain loops, no shared code paths
        specs = [LayerSpec("dense", fan_in=4, fan_out=3),
                 LayerSpec("dense", fan_in=3, fan_out=2)]
        net = PhasorNetwork.create((4,), specs, seed=11, dtype=np.complex128)
        rng = np.random.default_rng(12)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        h = x.copy()
        for w, b in zip(net.weights, net.biases):
            z = np.empty(w.shape[0], dtype=complex)
            for i in range(w.shape[0]):
                acc = complex(b[i])
                for j in range(w.shape[1]):
                    acc += complex(w[i, j]) * complex(h[j])
                z[i] = acc
            h = np.array([zi / abs(zi) if abs(zi) > 0 else 0.0 for zi in z])
        got = forward(net, x).output
        np.testing.assert_allclose(got, h, rtol=1e-10, atol=1e-12)

    def test_trace_magnitudes_binary(self):
        net = small_fc_net(n_in=16, hidden=8, seed=13, dtype=np.complex128)
        rng = np.random.default_rng(13)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        trace = forward(net, x)
        for h, m in zip(trace.h, trace.masks):
            np.testing.assert_array_equal(np.abs(h)[m] == 0.0, False)
            assert np.all(np.abs(np.abs(h[m]) - 1.0) < 1e-6)
            assert np.all(np.abs(h[~m]) == 0.0)

    def test_shape_mismatch(self):
        net = small_fc_net(n_in=16, hidden=8, seed=14)
        with pytest.raises(DimensionError):
            forward(net, np.ones(15, dtype=np.complex64))


def _finite_diff_check(net, x, target_phases, rel_tol=1e-6, abs_floor=1e-8, step=1e-5):
    trace = forward(net, x)
    grads = backward(net, trace, target_phases)

    def total():  # backward differentiates the batch-mean loss
        return float(np.mean(loss_mse(forward(net, x).output, target_phases)))

    for l, (w, gw) in enumerate(zip(net.weights, grads.weights)):
        flat = w.reshape(-1)
        gflat = np.asarray(gw).reshape(-1)
        for idx in range(flat.size):
            base = flat[idx]
            for direction, part in ((1.0, gflat[idx].real), (1j, gflat[idx].imag)):
                flat[idx] = base + direction * step
                lp = total()
                flat[idx] = base - direction * step
                lm = total()
                flat[idx] = base
                fd = (lp - lm) / (2 * step)
                assert abs(fd - part) <= abs_floor + rel_tol * abs(fd), (
                    f"layer {l} index {idx}: fd={fd} analytic={part}")
    for l, (b, gb) in enumerate(zip(net.biases, grads.biases)):
        flat = b.reshape(-1)
        gflat = np.asarray(gb).reshape(-1)
        for idx in range(flat.size):
            base = flat[idx]
            for direction, part in ((1.0, gflat[idx].real), (1j, gflat[idx].imag)):
                flat[idx] = base + direction * step
                lp = total()
                flat[idx] = base - direction * step
                lm = total()
                flat[idx] = base
                fd = (lp - lm) / (2 * step)
                assert abs(fd - part) <= abs_floor + rel_tol * abs(fd)


class TestBackward:
    def test_gradient_matches_finite_differences_dense(self):
        specs = [LayerSpec("dense", fan_in=6, fan_out=5),
                 LayerSpec("dense", fan_in=5, fan_out=4),
                 LayerSpec("dense", fan_in=4, fan_out=2)]
        net = PhasorNetwork.create((6,), specs, seed=21, dtype=np.complex128)
        rng = np.random.default_rng(21)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        _finite_diff_check(net, x, encode_target_phases([1], 2)[0])

    def test_gradient_matches_finite_differences_conv_conv(self):
        # a conv layer after a conv layer is the one place the conv input
        # gradient (col2im) runs; check it single and batched
        specs = [LayerSpec("conv3x3", in_channels=2, out_channels=2),
                 LayerSpec("conv3x3", in_channels=2, out_channels=3),
                 LayerSpec("dense", fan_in=3 * 4 * 4, fan_out=2)]
        net = PhasorNetwork.create((2, 8, 8), specs, seed=25, dtype=np.complex128)
        rng = np.random.default_rng(25)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 2, 8, 8)))
        _finite_diff_check(net, x[0], encode_target_phases([0], 2)[0])
        _finite_diff_check(net, x, encode_target_phases(np.array([1, 0, 1]), 2))

    def test_zero_gradient_at_target(self):
        # identity single layer, input already equals the target encoding
        specs = [LayerSpec("dense", fan_in=2, fan_out=2)]
        net = PhasorNetwork((2,), specs, [np.eye(2, dtype=np.complex128)],
                            [np.zeros(2, dtype=np.complex128)])
        tgt = encode_target_phases([0], 2)[0]
        x = np.exp(1j * tgt)
        trace = forward(net, x)
        grads = backward(net, trace, tgt)
        assert np.all(np.abs(grads.weights[0]) < 1e-10)
        assert np.all(np.abs(grads.biases[0]) < 1e-10)

    def test_masked_units_block_gradient_exactly(self):
        # hidden unit 1 is forced below threshold; everything feeding it
        # must receive exactly zero gradient
        specs = [LayerSpec("dense", fan_in=3, fan_out=2, theta=0.5),
                 LayerSpec("dense", fan_in=2, fan_out=2)]
        net = PhasorNetwork.create((3,), specs, seed=22, dtype=np.complex128)
        net.weights[0][1, :] *= 1e-3  # unit 1 pre-activation below theta
        rng = np.random.default_rng(22)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        trace = forward(net, x)
        assert trace.masks[0][0] and not trace.masks[0][1]
        grads = backward(net, trace, encode_target_phases([0], 2)[0])
        np.testing.assert_array_equal(grads.weights[0][1, :], 0.0)
        np.testing.assert_array_equal(grads.biases[0][1], 0.0)

    def test_dead_unit_weight_perturbation_leaves_loss_unchanged(self):
        specs = [LayerSpec("dense", fan_in=3, fan_out=2, theta=0.5),
                 LayerSpec("dense", fan_in=2, fan_out=2)]
        net = PhasorNetwork.create((3,), specs, seed=23, dtype=np.complex128)
        net.weights[0][1, :] *= 1e-3
        rng = np.random.default_rng(23)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        tgt = encode_target_phases([1], 2)[0]
        base = float(loss_mse(forward(net, x).output, tgt))
        net.weights[0][1, 0] += 1e-4  # stays below threshold: mask unchanged
        after = float(loss_mse(forward(net, x).output, tgt))
        assert after == base


class TestPredict:
    def test_unique_out_of_phase_unit(self):
        out = np.exp(1j * np.array([np.pi, 0.0, 0.0, 0.0]))
        assert predict(out) == 0

    def test_argmax_expression(self):
        phases = np.array([0.1, 0.0, 3.1])
        out = np.exp(1j * phases)
        # direct evaluation of the scoring rule
        scores = []
        for i in range(3):
            others = np.delete(phases, i)
            scores.append(np.mean(1 - np.cos(phases[i] - others)))
        assert predict(out) == int(np.argmax(scores)) == 2

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(25)
        phases = rng.uniform(0, 2 * np.pi, 10)
        out = np.exp(1j * phases)
        p0 = predict(out)
        for delta in (0.3, 1.7, np.pi):
            assert predict(out * np.exp(1j * delta)) == p0

    def test_all_inactive_gives_none(self):
        assert predict(np.zeros(10, dtype=complex)) is None

    def test_inactive_units_excluded(self):
        out = np.exp(1j * np.array([0.0, np.pi, 0.0]))
        out[1] = 0.0  # the out-of-phase unit is silent
        assert predict(out) in (0, 2)


class TestPredictBatch:
    @staticmethod
    def _rule(row):
        # the scoring rule evaluated directly over the active units
        idx = np.flatnonzero(np.abs(row) > 0.0)
        if idx.size == 0:
            return -1
        if idx.size == 1:
            return int(idx[0])
        th = np.angle(row[idx])
        scores = [np.mean(1 - np.cos(th[i] - np.delete(th, i))) for i in range(idx.size)]
        return int(idx[int(np.argmax(scores))])

    def test_matches_predict_per_row(self):
        rng = np.random.default_rng(26)
        out = np.exp(1j * rng.uniform(0, 2 * np.pi, (60, 10)))
        out[rng.uniform(size=out.shape) < 0.3] = 0.0
        out[:5] = 0.0  # no active unit
        out[5:10] = 0.0
        lone = rng.integers(0, 10, 5)
        out[np.arange(5, 10), lone] = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        got = predict_batch(out)
        want = [-1 if p is None else p for p in map(predict, out)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, [self._rule(row) for row in out])
        np.testing.assert_array_equal(got[:5], -1)
        np.testing.assert_array_equal(got[5:10], lone)
