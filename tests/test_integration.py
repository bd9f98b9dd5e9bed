"""End-to-end behavior on the synthetic prototype task.

The real datasets are exercised (when present) by the acceptance suite; these
tests prove the full train / ideal-spike / circuit pipeline holds together at
desk scale.
"""

import numpy as np
import pytest

from conftest import small_fc_net, synthetic_dataset
from phasornet import cli
from phasornet.circuit import (
    build_circuit,
    calibrate_threshold,
    decode_output,
    decode_over_time,
    fidelity,
    run,
)
from phasornet.data import Dataset
from phasornet.errors import ValidationError
from phasornet.phasor_net import LayerSpec, PhasorNetwork, forward, predict
from phasornet.spikemap import raster_phases, unroll
from phasornet.training import encode_batch, evaluate, train


@pytest.fixture(scope="module")
def circuit_setup(trained_net, synth_split):
    _, test = synth_split
    circuit = build_circuit(trained_net)
    images = [test.images[i] for i in range(8)]
    thr, _ = calibrate_threshold(trained_net, circuit, images[:3])
    return trained_net, circuit, images, thr


class TestTraining:
    def test_training_beats_chance(self, trained_net, synth_split):
        _, test = synth_split
        err = evaluate(trained_net, test)
        assert err < 0.25

    def test_fresh_net_is_near_chance(self, synth_split):
        _, test = synth_split
        err = evaluate(small_fc_net(seed=99), test)
        assert err > 0.6

    def test_evaluate_batch_does_not_change_the_error(self, trained_net, synth_split):
        _, test = synth_split
        conv = cli._build_net(dict(cli.DEFAULTS, arch="conv", seed=5, phase_shift=False),
                              test.input_shape)
        for net in (trained_net, conv):
            errs = {evaluate(net, test, batch_size=b) for b in (64, 256, 7)}
            assert len(errs) == 1
            assert errs == {evaluate(net, test)}

    def test_nothing_to_evaluate(self, trained_net, synth_split):
        _, test = synth_split
        empty = Dataset(test.images[:0], test.labels[:0])
        with pytest.raises(ValidationError, match="nothing to evaluate"):
            evaluate(trained_net, empty)
        with pytest.raises(ValidationError, match="nothing to evaluate"):
            evaluate(trained_net, empty, batch_size=1)

    def test_loss_decreases(self, synth_split):
        trainset, test = synth_split
        net = small_fc_net(seed=21)
        history = train(net, trainset, test_set=None, epochs=4,
                        batch_size=32, seed=21)
        losses = [h["loss"] for h in history]
        assert losses[-1] < losses[0]

    def test_best_so_far_error_improves(self, synth_split):
        trainset, test = synth_split
        net = small_fc_net(seed=22)
        history = train(net, trainset, test_set=test, epochs=5,
                        batch_size=32, seed=22)
        errs = [h["test_err"] for h in history]
        assert min(errs) < errs[0]

    def test_phase_shifts_do_not_hurt(self, synth_split, trained_net):
        trainset, test = synth_split
        shifted = small_fc_net(seed=7)
        shifted.phase_shifts = np.random.default_rng(3).uniform(
            0, 2 * np.pi, 64)
        train(shifted, trainset, test_set=None, epochs=25, batch_size=32,
              lr=0.005, seed=7)
        plain_err = evaluate(trained_net, test)
        shifted_err = evaluate(shifted, test)
        assert abs(shifted_err - plain_err) < 0.15


class TestIdealSpikes:
    def test_round_trip_matches_phasor_prediction(self, trained_net, synth_split):
        """Phase -> spike time -> phase must not change a single prediction."""
        _, test = synth_split
        net = trained_net
        x = encode_batch(net, test.images[:50])
        n_match = 0
        for i in range(50):
            trace = forward(net, x[i])
            raster = unroll(net, x[i], period=10.0, n_cycles=5)
            phases = raster_phases(raster, len(net.layers), net.n_outputs, cycle=4)
            units = np.where(np.isnan(phases), 0.0, np.exp(1j * phases))
            n_match += predict(units.astype(np.complex128)) == predict(trace.output)
        assert n_match == 50


class TestCircuit:
    def test_agreement_at_least_80_percent(self, circuit_setup):
        net, circuit, images, thr = circuit_setup
        agree = 0
        for image in images:
            result = run(circuit, [(image, 15)], v_threshold=thr)
            got = decode_output(result.raster, 10, len(net.layers), now=150.0)
            x = encode_batch(net, np.asarray(image)[None])[0]
            want = predict(forward(net, x).output)
            agree += got == want
        assert agree / len(images) >= 0.8

    def test_agreement_survives_finer_dt(self, circuit_setup):
        from phasornet.circuit import CircuitParams

        net, circuit, images, thr = circuit_setup
        fine = build_circuit(net, CircuitParams(dt=0.0125))

        def agreement(circ):
            n = 0
            for image in images[:4]:
                result = run(circ, [(image, 15)], v_threshold=thr)
                got = decode_output(result.raster, 10, len(net.layers), now=150.0)
                x = encode_batch(net, np.asarray(image)[None])[0]
                n += got == predict(forward(net, x).output)
            return n

        assert agreement(fine) >= agreement(circuit)

    def test_settles_within_ten_cycles(self, circuit_setup):
        net, circuit, images, thr = circuit_setup
        locked = 0
        for image in images:
            result = run(circuit, [(image, 15)], v_threshold=thr)
            times = np.arange(10, 16) * 10.0
            decoded = decode_over_time(result.raster, 10, len(net.layers), times)
            locked += decoded[-1] >= 0 and np.all(decoded == decoded[-1])
        assert locked / len(images) >= 0.8


@pytest.fixture(scope="module")
def conv_circuit_runs():
    """A 1x8x8 -> conv 4 -> conv 8 -> dense 10 net trained on the synthetic
    task, its calibrated circuit, and a 15-cycle run on each of 12 held-out
    images: (net, [(image, result)])."""
    ds = synthetic_dataset(n_per_class=24, side=8, seed=7)
    n_test = 12
    held_out = ds.images[:n_test]
    specs = [LayerSpec("conv3x3", in_channels=1, out_channels=4),
             LayerSpec("conv3x3", in_channels=4, out_channels=8),
             LayerSpec("dense", fan_in=8 * 4 * 4, fan_out=10)]
    net = PhasorNetwork.create((1, 8, 8), specs, seed=7)
    train(net, Dataset(ds.images[n_test:], ds.labels[n_test:]), test_set=None,
          epochs=40, batch_size=32, lr=0.005, seed=7)
    circuit = build_circuit(net)
    thr, _ = calibrate_threshold(net, circuit, list(held_out[:3]))
    return net, [(image, run(circuit, [(image, 15)], v_threshold=thr)) for image in held_out]


class TestConvCircuit:
    def test_agreement_at_least_80_percent(self, conv_circuit_runs):
        net, runs = conv_circuit_runs
        agree = 0
        for image, result in runs:
            got = decode_output(result.raster, 10, len(net.layers), now=150.0)
            want = predict(forward(net, encode_batch(net, image[None])[0]).output)
            agree += got == want
        assert agree / len(runs) >= 0.8

    def test_settles_within_ten_cycles(self, conv_circuit_runs):
        net, runs = conv_circuit_runs
        locked = 0
        for _, result in runs:
            times = np.arange(10, 16) * 10.0
            decoded = decode_over_time(result.raster, 10, len(net.layers), times)
            locked += decoded[-1] >= 0 and np.all(decoded == decoded[-1])
        assert locked / len(runs) >= 0.8

    def test_spike_phases_follow_the_activations(self, conv_circuit_runs):
        # Per layer, over the 12 images: last-cycle spike phases against the
        # activations' phases. On this net with seeds 1-7 at dt = 0.1 the
        # mean residuals reach 0.042 / 0.128 / 0.062 rad and the share of
        # active units that spike is >= 0.997 on every layer (seed 7: 0.040 /
        # 0.120 / 0.062 rad). Every unit is active at theta = 0, so no share
        # of inactive units is defined.
        net, runs = conv_circuit_runs
        fids = [fidelity(net, result.raster, image) for image, result in runs]
        residual = np.mean([f.residual for f in fids], axis=0)
        assert np.all(residual < [0.06, 0.18, 0.09]), residual
        assert np.all(np.mean([f.active_spiking for f in fids], axis=0) >= 0.99)
        assert np.all(np.isnan([f.inactive_spiking for f in fids]))
