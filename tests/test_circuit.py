import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phasornet.circuit import (
    CircuitParams,
    build_circuit,
    calibrate_threshold,
    decode_output,
    decode_over_time,
    fidelity,
    observe_amplitude,
    run,
    soma_response,
    steady_state,
    stimulus_phase_offsets,
)
from phasornet import _circuit_kernels as ck
from phasornet import circuit as circuit_mod
from phasornet._circuit_kernels import BLOCK, GRID_EPS, fire
from phasornet.errors import NumericError, ValidationError
from phasornet.phasor_net import (
    LayerSpec,
    PhasorNetwork,
    forward,
    input_phases,
    preactivation,
    predict,
)
from phasornet.spikemap import (SpikeRaster, phase_to_time, raster_phases, synapse_delay,
                               unroll)
from phasornet.training import encode_batch

import calibration_reference
import decode_reference
import step_reference
from conftest import small_fc_net


def tiny_net(seed=0):
    specs = [
        LayerSpec("dense", fan_in=16, fan_out=12),
        LayerSpec("dense", fan_in=12, fan_out=10),
    ]
    return PhasorNetwork.create((16,), specs, seed=seed, dtype=np.complex64)


def tiny_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(size=16).astype(np.float32) for _ in range(n)]


@pytest.fixture(scope="module")
def calibrated():
    """A briefly trained tiny net plus a calibrated circuit for it.

    Training gives the output units well-separated phases; a random net can
    produce near-tied phase patterns that make spike decoding fragile.
    """
    from conftest import synthetic_dataset
    from phasornet.training import train

    ds = synthetic_dataset(n_per_class=30, side=4, seed=9)
    net = tiny_net(seed=5)
    train(net, ds, test_set=None, epochs=6, batch_size=32, seed=5)
    circuit = build_circuit(net)
    images = [np.asarray(img).reshape(-1) for img in ds.images[:6]]
    thr, agree = calibrate_threshold(net, circuit, images[:3])
    return net, circuit, images, thr, agree


class TestParams:
    def test_default_derivations(self):
        p = CircuitParams()
        assert p.g_l == pytest.approx(np.pi * 10.0 / 10.0)
        assert p.g_c == pytest.approx(60.0 * np.pi)
        assert p.tau_d == pytest.approx(8.0)
        assert p.omega == pytest.approx(2 * np.pi / p.period)

    def test_derived_constants_are_not_settable(self):
        assert [f.name for f in dataclasses.fields(CircuitParams)] == [
            "period", "dt", "n_cycles"]
        p = CircuitParams(period=20.0)
        assert (p.g_l, p.g_c, p.tau_d) == (np.pi * 10.0 / 20.0, 60.0 * np.pi * 10.0 / 20.0, 16.0)
        assert (p.c_m, p.w_spike) == (10.0, 0.3)
        for name in ("c_m", "l_res", "tau_s"):
            with pytest.raises(TypeError):
                CircuitParams(**{name: 1.0})

    def test_frozen_params_share_constants(self):
        net = tiny_net(seed=0)
        a = build_circuit(net, CircuitParams())
        b = build_circuit(net, CircuitParams(dt=0.1))
        assert a.params == b.params and a.params is not b.params
        shared = ck.constants(a.params, 1500)
        assert all(x is y for x, y in zip(shared, ck.constants(b.params, 1500)))
        assert not any(x.flags.writeable for x in shared)
        other = ck.constants(CircuitParams(dt=0.05), 1500)
        assert not any(x is y for x, y in zip(shared, other))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.params.dt = 0.05

    def test_default_dt_is_a_hundredth_of_the_period(self):
        assert CircuitParams().dt == 0.1
        # 67.19948779563593 / (67.19948779563593 / 100) rounds to below 100
        for period in (10.0, 5.0, 2.5, 67.19948779563593, 1e-3):
            assert CircuitParams(period=period).dt == period / 100

    def test_resonance_tracks_period(self):
        p = CircuitParams(period=25.0)
        assert p.omega == pytest.approx(2 * np.pi / 25.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CircuitParams(dt=0.0)
        with pytest.raises(ValidationError):
            CircuitParams(dt=0.2)  # period/dt = 50 < 100
        for n_cycles in (0, -2, 2.5, True):
            with pytest.raises(ValidationError):
                CircuitParams(n_cycles=n_cycles)


class TestBuild:
    def test_dense_synapse_count(self):
        net = tiny_net(seed=1)
        # knock out a few weights and biases to check the nonzero rule
        net.weights[0][0, :] = 0
        net.biases[1][:] = 0
        circuit = build_circuit(net)
        want = sum(int(np.count_nonzero(w)) for w in net.weights)
        want += sum(int(np.count_nonzero(b)) for b in net.biases)
        assert circuit.n_synapses == want
        assert circuit.n_neurons == 12 + 10
        assert circuit.n_gen == 17  # 16 inputs + reference generator

    def test_conv_synapse_count(self):
        specs = [
            LayerSpec("conv3x3", in_channels=1, out_channels=2),
            LayerSpec("dense", fan_in=2 * 4 * 4, fan_out=3),
        ]
        net = PhasorNetwork.create((1, 6, 6), specs, seed=2, dtype=np.complex64)
        # fresh nets have zero biases; give them values so bias synapses exist
        net.biases[0][:] = 0.1 + 0.1j
        net.biases[1][:] = 0.1 - 0.1j
        circuit = build_circuit(net)
        conv_units = 2 * 4 * 4
        want = conv_units * 9          # 9 taps per output unit, 1 input channel
        want += conv_units             # one bias synapse per conv output unit
        want += 3 * conv_units + 3     # dense weights + biases
        assert circuit.n_synapses == want

    def test_delays_match_weight_phases(self):
        net = tiny_net(seed=3)
        circuit = build_circuit(net)
        assert np.all(circuit.syn_delay >= 0.0)
        assert np.all(circuit.syn_delay < circuit.params.period)
        mags, delays = synapse_delay(net.weights[0].reshape(-1), 10.0)
        # every first-layer weight must appear with its magnitude and delay
        first = circuit.syn_owner < 12
        got = set(zip(np.round(circuit.syn_w[first], 6),
                      np.round(circuit.syn_delay[first], 6)))
        nz = net.biases[0][net.biases[0] != 0]
        bias_m, bias_d = synapse_delay(nz, 10.0)
        want = set(zip(np.round(np.concatenate([mags, bias_m]), 6),
                       np.round(np.concatenate([delays, bias_d]), 6)))
        assert got == want

    def test_csr_consistency(self):
        # synapses in sending order: each one's weight is the coefficient from
        # its out_ptr source to its owner, and within a source and the layer
        # it feeds, grid phases, then owners ascend
        dense = tiny_net(seed=4)
        dense.biases[1][::3] = 0.2 - 0.1j
        specs = [LayerSpec("conv3x3", in_channels=2, out_channels=3),
                 LayerSpec("conv3x3", in_channels=3, out_channels=4),
                 LayerSpec("dense", fan_in=4 * 2 * 3, fan_out=5)]
        conv = PhasorNetwork.create((2, 6, 7), specs, seed=4, dtype=np.complex64)
        conv.weights[0][0, 1, 2, 0] = 0  # zeroed taps, and a whole zeroed kernel
        conv.weights[1][2] = 0
        conv.weights[1][:, 0, 1, :] = 0
        for b in conv.biases:
            b[:] = 0.1 + 0.05j
        conv.biases[1][1] = 0
        for net in (dense, conv):
            self._check_synapse_table(net)

    @staticmethod
    def _check_synapse_table(net):
        circuit = build_circuit(net)
        shapes = net.activation_shapes()
        assert circuit.out_ptr[0] == 0
        assert circuit.out_ptr[-1] == circuit.n_synapses
        src = np.repeat(np.arange(circuit.out_ptr.size - 1), np.diff(circuit.out_ptr))
        owner = circuit.syn_owner
        layer = circuit.neuron_layer[owner] - 1
        local = owner - np.asarray(circuit.layer_offsets)[layer]
        ref = circuit.n_gen - 1  # the reference generator drives the biases
        coeff = []
        for s, l, i in zip(src, layer, local):
            w, b = net.weights[l], net.biases[l]
            f, pos = divmod(i, circuit.layer_sizes[l] // b.size)
            if s == ref:
                coeff.append(b[f])
                continue
            assert (l == 0) == (s < ref)
            s_local = s if l == 0 else s - circuit.n_gen - circuit.layer_offsets[l - 1]
            if w.ndim == 2:
                coeff.append(w[i, s_local])
                continue
            # conv owner (f, i, j) reads input (c, h, w) through tap (h - i, w - j)
            _, height, width = shapes[l]
            oi, oj = divmod(pos, shapes[l + 1][2])
            c, rest = divmod(s_local, height * width)
            ih, iw = divmod(rest, width)
            p, q = ih - oi, iw - oj
            assert 0 <= p < 3 and 0 <= q < 3
            coeff.append(w[f, c, p, q])
        want_w, want_delay = synapse_delay(np.array(coeff), circuit.params.period)
        np.testing.assert_array_equal(circuit.syn_w, want_w)
        np.testing.assert_array_equal(circuit.syn_delay, want_delay)
        phase = ck.grid_phase(circuit.syn_delay, circuit.params.dt)
        np.testing.assert_array_equal(np.lexsort((owner, phase, layer, src)),
                                      np.arange(circuit.n_synapses))
        # each (source, owner) pair names one tap, so with every coefficient
        # nonzero, the count says each nonzero tap appears exactly once
        assert np.all(np.array(coeff) != 0)
        want = sum(int(np.count_nonzero(w)) * (size // w.shape[0])
                   for w, size in zip(net.weights, circuit.layer_sizes))
        want += sum(int(np.count_nonzero(b)) * (size // b.size)
                    for b, size in zip(net.biases, circuit.layer_sizes))
        assert circuit.n_synapses == want

    def test_stimulus_offsets(self):
        net = tiny_net(seed=5)
        circuit = build_circuit(net)
        offsets = stimulus_phase_offsets(circuit, tiny_images(1)[0])
        assert offsets.shape == (17,)
        assert offsets[-1] == 0.0  # reference generator fires at cycle start
        assert np.all(offsets >= 0.0) and np.all(offsets < 10.0)
        theta = input_phases(tiny_images(1)[0][None], circuit.phase_shifts)[0]
        np.testing.assert_array_equal(offsets[:-1], phase_to_time(theta, 10.0))

    def test_stimulus_offsets_are_the_exact_phase_times(self):
        # generators spike at the float64 phases pi*(1 - p) + s that the
        # phasor net encodes, not at the angle of a rounded phasor, in any dtype
        net = PhasorNetwork.create((16,), [LayerSpec("dense", fan_in=16, fan_out=10)],
                                   seed=5, dtype=np.complex128, use_phase_shifts=True)
        image = tiny_images(1)[0]
        theta = np.pi * (1.0 - image.astype(np.float64)) + net.phase_shifts
        np.testing.assert_array_equal(stimulus_phase_offsets(build_circuit(net), image),
                                      np.append(phase_to_time(theta, 10.0), 0.0))


class TestSynapseResonance:
    def _trace(self, dt, n_cycles=2):
        """Single synapse kicked once at t = 0: its voltage after each step,
        read from the kernel's reset table, whose real part at age n is
        v(0) - v(n) = -v(n)."""
        p = CircuitParams(dt=dt)
        n_steps = int(round(n_cycles * p.period / dt))
        return p, -ck.reset_table(p, n_steps + 1)[1:n_steps + 1].real

    def test_amplitude_two_percent(self):
        # vs(t) = -(w_spike / (c_m * omega)) sin(omega t): check the first peak
        p, trace = self._trace(dt=0.025, n_cycles=1)
        steps_per_cycle = int(round(p.period / p.dt))
        first_half = np.abs(trace[:steps_per_cycle // 2])
        want = p.w_spike / (p.c_m * p.omega)
        assert first_half.max() == pytest.approx(want, rel=0.02)

    def test_period_within_one_dt(self):
        # time between the first two troughs is one full period
        p, trace = self._trace(dt=0.025, n_cycles=2)
        steps_per_cycle = int(round(p.period / p.dt))
        i1 = int(np.argmin(trace[:steps_per_cycle]))
        i2 = steps_per_cycle + int(np.argmin(trace[steps_per_cycle:2 * steps_per_cycle]))
        measured = (i2 - i1) * p.dt
        assert abs(measured - p.period) <= p.dt

    def test_closed_form_is_exact(self):
        # the exact step map has no discretisation error: the trace is the
        # sinusoid at every dt, and the synapse returns to itself each cycle,
        # both in the reset table and under the step map's synapse block
        for dt in (0.025, 0.1):
            p, trace = self._trace(dt=dt, n_cycles=2)
            t = np.arange(1, trace.size + 1) * p.dt
            amp = p.w_spike / (p.c_m * p.omega)
            np.testing.assert_allclose(trace, -amp * np.sin(p.omega * t), rtol=0, atol=1e-9 * amp)
            cycle = int(round(p.period / p.dt))
            table = ck.reset_table(p, 2 * cycle + 1)
            np.testing.assert_allclose(table[cycle:2 * cycle + 1], table[:cycle + 1],
                                       rtol=0, atol=1e-12 * p.w_spike)
            block = ck.step_powers(p, cycle)[:, :2, :2]
            np.testing.assert_allclose(block[-1], np.eye(2), rtol=0, atol=1e-12)
            kicked = block[:, :, 1] * p.w_spike  # (v, w) of a synapse reset at age 0
            np.testing.assert_allclose(-kicked[:, 0] + 1j * (p.w_spike - kicked[:, 1]),
                                       table[:cycle + 1], rtol=0, atol=1e-12 * p.w_spike)

    def test_sinusoid_shape(self):
        p, trace = self._trace(dt=0.0125, n_cycles=1)
        t = np.arange(1, trace.size + 1) * p.dt
        want = -(p.w_spike / (p.c_m * p.omega)) * np.sin(p.omega * t)
        np.testing.assert_allclose(trace, want, atol=0.03 * np.abs(want).max())


class TestRun:
    def test_requires_threshold(self):
        net = tiny_net(seed=6)
        circuit = build_circuit(net)
        with pytest.raises(ValidationError, match="threshold"):
            run(circuit, [(tiny_images(1)[0], 3)])

    @pytest.mark.parametrize("v_threshold", [0.0, -0.01, float("nan")])
    def test_threshold_must_be_positive(self, v_threshold):
        # the block firing rule relies on an upcrossing never being below 0
        circuit = build_circuit(tiny_net(seed=6))
        with pytest.raises(ValidationError, match="positive"):
            run(circuit, [(tiny_images(1)[0], 3)], v_threshold=v_threshold)

    @pytest.mark.parametrize("dt, n_images", [(0.025, 1), (0.03, 2)],
                             ids=["one_stimulus", "switch_dt0.03"])
    def test_generator_volley_in_raster(self, dt, n_images):
        circuit = build_circuit(tiny_net(seed=6), CircuitParams(dt=dt))
        images = tiny_images(n_images)
        result = run(circuit, [(im, 3) for im in images], v_threshold=1e30)
        gen = result.raster.layer == 0
        assert np.count_nonzero(gen) == 16 * 3 * n_images  # every input unit, every cycle
        assert np.all(result.raster.time[gen] < result.total_time)
        # each input unit fires at its stimulus's offset in every cycle
        neuron, time = result.raster.neuron[gen], result.raster.time[gen]
        for unit in range(16):
            want = np.concatenate([
                (t0 + np.arange(3) * circuit.params.period)
                + stimulus_phase_offsets(circuit, im)[unit]
                for t0, im in zip([0.0, 3 * circuit.params.period], images)])
            np.testing.assert_array_equal(time[neuron == unit], want)

    def test_subthreshold_run_has_no_soma_spikes(self):
        net = tiny_net(seed=6)
        circuit = build_circuit(net)
        result = run(circuit, [(tiny_images(1)[0], 4)], v_threshold=1e30)
        assert np.all(result.raster.layer == 0)
        # the first hidden layer oscillates; deeper layers get no input since
        # nothing upstream ever crosses the (unreachable) threshold
        assert np.all(result.vm_max[:12] > 0.0)
        assert np.all(result.vm_max[12:] == 0.0)

    def test_deterministic(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        r1 = run(circuit, [(images[0], 8)], v_threshold=thr)
        r2 = run(circuit, [(images[0], 8)], v_threshold=thr)
        for col in ("layer", "neuron", "time"):
            np.testing.assert_array_equal(getattr(r1.raster, col), getattr(r2.raster, col))

    def test_deliveries_match_raster_and_csr(self):
        net = tiny_net(seed=0)
        net.biases[0][:3] = 0.5 + 0.5j  # bias synapses on the reference generator
        circuit = build_circuit(net)
        result = run(circuit, [(tiny_images(1)[0], 4)], v_threshold=0.005)
        assert np.any(result.raster.layer > 0), "no neuron spiked"
        last = (len(result.trace_times) - 1) * circuit.params.dt
        assert result.deliveries == delivery_count(circuit, result.raster, last)

    def test_voltage_recording(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        nid = circuit.layer_offsets[-1]  # first output unit
        result = run(circuit, [(images[0], 5)], v_threshold=thr,
                     record_neurons=[nid])
        dt = circuit.params.dt
        assert result.trace_vm.shape == (int(round(5 * 10.0 / dt)), 1)
        assert np.all(np.isfinite(result.trace_vm))
        assert result.trace_times[0] == pytest.approx(dt)

    def test_empty_stimulus_list(self):
        circuit = build_circuit(tiny_net(seed=0))
        with pytest.raises(ValidationError, match="at least one"):
            run(circuit, [], v_threshold=1e30)

    @pytest.mark.parametrize("which", ["past_end", "negative"])
    def test_out_of_range_recorded_neuron(self, which):
        circuit = build_circuit(tiny_net(seed=0))
        nid = circuit.n_neurons + 3 if which == "past_end" else -1
        with pytest.raises(ValidationError, match="recorded neuron"):
            run(circuit, [(tiny_images(1)[0], 2)], v_threshold=1e30,
                record_neurons=[0, nid])

    def test_trace_times_follow_the_kernel_steps(self):
        # dt = 0.03 does not divide a 4-cycle stimulus (1333.33 steps); the run
        # keeps one clock across the switch, 2667 steps of 0.03 ms
        circuit = build_circuit(tiny_net(seed=0), CircuitParams(dt=0.03))
        images = tiny_images(2)
        result = run(circuit, [(images[0], 4), (images[1], 4)], v_threshold=1e30,
                     record_neurons=[0])
        assert result.trace_times.shape == (2667,) == result.trace_vm.shape[:1]
        np.testing.assert_allclose(result.trace_times, np.arange(1, 2668) * 0.03,
                                   rtol=0, atol=1e-9)
        assert result.total_time == 80.0

    def test_blowup_raises_numeric_error(self):
        # the exact step map is stable; weights near the float range make
        # V_m overflow, which the kernel's non-finite check catches
        circuit = build_circuit(tiny_net(seed=7))
        circuit = dataclasses.replace(circuit, syn_w=np.full(circuit.n_synapses, 1e308))
        with pytest.raises(NumericError, match="blew up"):
            run(circuit, [(tiny_images(1)[0], 5)], v_threshold=0.01)


def delivery_count(circuit, raster, last_step_time):
    """Deliveries a run made, from its raster and the outgoing CSR: a spike
    from source s at time t reaches each outgoing synapse k at t + delay[k],
    delivered when that is at most the last step time. The reference
    generator (biases) fires at each cycle start and is not in the raster."""
    period = circuit.params.period
    first = np.concatenate([[0], circuit.n_gen + np.asarray(circuit.layer_offsets)])
    n_cycles = int(round((last_step_time + circuit.params.dt) / period))
    sources = np.concatenate([first[raster.layer] + raster.neuron,
                              np.full(n_cycles, circuit.n_gen - 1)])
    times = np.concatenate([raster.time, np.arange(n_cycles) * period])
    total = 0
    for src, t in zip(sources, times):
        out = circuit.out_syn[circuit.out_ptr[src]:circuit.out_ptr[src + 1]]
        arrivals = t + circuit.syn_delay[out]
        total += int(np.count_nonzero(arrivals <= last_step_time + GRID_EPS))
    return total


class TestKernelMatchesStepReference:
    """The block kernel against the explicit step + heap loop of
    tests/step_reference.py, which steps each synapse and soma by its own
    exact map."""

    def _check(self, net, circuit, stimuli, v_threshold, record=()):
        result = run(circuit, stimuli, v_threshold=v_threshold, record_neurons=record)
        want = step_reference.run(circuit, stimuli, v_threshold, record_neurons=record)
        soma = result.raster.layer > 0
        assert want.raster.time.size > 0, "no soma spiked; the case checks nothing"
        np.testing.assert_array_equal(result.raster.layer[soma], want.raster.layer)
        np.testing.assert_array_equal(result.raster.neuron[soma], want.raster.neuron)
        np.testing.assert_allclose(result.raster.time[soma], want.raster.time,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.vm_max, want.vm_max, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.trace_vm, want.trace_vm, rtol=0, atol=1e-12)
        assert result.deliveries == want.deliveries
        depth = len(net.layers)
        got_class = decode_output(result.raster, circuit.n_outputs, depth,
                                  now=result.total_time)
        assert got_class is not None
        assert got_class == decode_output(want.raster, circuit.n_outputs, depth,
                                          now=result.total_time)
        return result

    def test_dense_tiny_net(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        self._check(net, circuit, [(images[0], 6)], thr)

    def test_two_segment_stimulus(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        self._check(net, circuit, [(images[0], 4), (images[1], 4)], thr)

    def test_stimuli_off_the_step_grid(self, calibrated):
        # at dt = 0.03 neither switch (40 ms, 90 ms) falls on a grid step
        net, _, images, _, _ = calibrated
        circuit = build_circuit(net, CircuitParams(dt=0.03))
        thr = 0.1 * observe_amplitude(circuit, images[0], n_cycles=4)
        self._check(net, circuit, [(images[0], 4), (images[1], 5), (images[2], 3)], thr)

    def test_conv_net_with_biases(self):
        specs = [
            LayerSpec("conv3x3", in_channels=1, out_channels=2),
            LayerSpec("dense", fan_in=2 * 4 * 4, fan_out=4),
        ]
        net = PhasorNetwork.create((1, 6, 6), specs, seed=2, dtype=np.complex64)
        net.biases[0][:] = 0.1 + 0.1j
        net.biases[1][:] = 0.1 - 0.1j
        # zero-phase weights: zero-delay synapses, delivered on the next step
        net.weights[1][:, :8] = np.abs(net.weights[1][:, :8])
        circuit = build_circuit(net)
        image = np.random.default_rng(3).uniform(size=36)
        thr = 0.1 * observe_amplitude(circuit, image, n_cycles=4)
        self._check(net, circuit, [(image, 6)], thr)

    def test_switch_delivers_a_synapse_twice_in_one_step(self, calibrated):
        # Input 0's phase is shifted so that its spike sits just before the
        # cycle end for the first image and just after the start for the
        # second: the first image's last volley, carried over the switch,
        # and the second image's first volley reach its synapses together.
        net, circuit, images, thr, _ = calibrated
        circuit = build_circuit(net)
        circuit.phase_shifts = np.zeros(16)
        circuit.phase_shifts[0] = 1.5 * np.pi
        first, second = images[0].copy(), images[1].copy()
        first[0], second[0] = 0.5001, 0.4999
        self._check(net, circuit, [(first, 3), (second, 4)], thr)

    def test_step_count_off_the_block_grid(self, calibrated):
        # 4 cycles of 10 ms at dt = 0.03: 1333 steps, a fractional number per
        # cycle, and a last block that is cut short
        net, _, images, _, _ = calibrated
        circuit = build_circuit(net, CircuitParams(dt=0.03))
        steps = int(round(4 * 10.0 / 0.03))
        assert steps % BLOCK != 0
        thr = 0.1 * observe_amplitude(circuit, images[0], n_cycles=4)
        self._check(net, circuit, [(images[0], 4)], thr)

    def test_recorded_traces(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        record = [0, circuit.layer_offsets[-1], circuit.n_neurons - 1, 0]  # one twice
        result = self._check(net, circuit, [(images[0], 5)], thr, record)
        assert result.trace_vm.shape == (int(round(5 * 10.0 / circuit.params.dt)), 4)

    def test_two_hidden_layers_in_one_block(self):
        # zero-delay synapses between hidden layers: a block's layer-1 spikes
        # make layer-2 spikes within the same block
        specs = [LayerSpec("dense", fan_in=16, fan_out=12),
                 LayerSpec("dense", fan_in=12, fan_out=12),
                 LayerSpec("dense", fan_in=12, fan_out=10)]
        net = PhasorNetwork.create((16,), specs, seed=4, dtype=np.complex64)
        net.weights[1] = np.abs(net.weights[1])
        net.biases[0][:4] = 0.3 + 0.3j
        circuit = build_circuit(net)
        image = tiny_images(1, seed=4)[0]
        thr = 0.1 * observe_amplitude(circuit, image, n_cycles=4)
        result = self._check(net, circuit, [(image, 6)], thr)
        steps = np.ceil(result.raster.time / circuit.params.dt).astype(np.int64) - 1
        layer = result.raster.layer
        blocks = [set(steps[layer == l] // BLOCK) for l in (1, 2, 3)]
        assert blocks[0] & blocks[1] & blocks[2], "no block holds spikes of all three layers"

    def test_zero_delay_delivery_across_a_block_edge(self):
        # Shift every input phase so that a layer-1 spike lands on the last
        # step of a block; its zero-delay synapses deliver on the first step
        # of the next block.
        net = tiny_net(seed=5)
        net.weights[1] = np.abs(net.weights[1])
        circuit = build_circuit(net)
        dt, period = circuit.params.dt, circuit.params.period
        image = tiny_images(1, seed=5)[0]
        thr = 0.1 * observe_amplitude(circuit, image, n_cycles=4)
        first = run(circuit, [(image, 6)], v_threshold=thr).raster
        t1 = first.time[first.layer == 1][0]
        target = (int(t1 / dt) // BLOCK + 1) * BLOCK - 0.5  # mid-step of a block's last step
        circuit.phase_shifts = np.full(16, 2 * np.pi * (target * dt - t1) / period)
        result = self._check(net, circuit, [(image, 6)], thr)
        spikes = result.raster.time[result.raster.layer == 1]
        on_edge = (np.ceil(spikes / dt).astype(np.int64) - 1) % BLOCK == BLOCK - 1
        assert on_edge.any(), "no layer-1 spike on a block's last step"

    @staticmethod
    def passes(monkeypatch):
        """Record (chunk steps, run steps, layer, chunk, first row, end row)
        of every pass the kernel makes."""
        seen = []
        original = ck.Integrator._pass

        def spy(self, l, chunk, r0, r1, *rest):
            seen.append((self.chunk, self.total, l, chunk, r0, r1))
            return original(self, l, chunk, r0, r1, *rest)

        monkeypatch.setattr(ck.Integrator, "_pass", spy)
        return seen

    def test_layers_in_row_slices(self, calibrated, monkeypatch):
        # a budget of four rows of one block: the 12- and 10-neuron layers
        # are integrated in three slices each, over a stimulus switch
        net, circuit, images, thr, _ = calibrated
        monkeypatch.setattr(ck, "BUDGET", 4 * BLOCK)
        seen = self.passes(monkeypatch)
        self._check(net, circuit, [(images[0], 4), (images[1], 3)], thr)
        slices = {(l, r0, r1) for _, _, l, _, r0, r1 in seen}
        assert slices == {(0, 0, 4), (0, 4, 8), (0, 8, 12), (1, 0, 4), (1, 4, 8), (1, 8, 10)}
        assert {width for width, *_ in seen} == {BLOCK}

    def test_spike_ages_chain_within_a_chunk(self, calibrated, monkeypatch):
        # a budget of four blocks and a run of six (15 cycles of 100 steps):
        # two equal chunks of three blocks. A neuron that fires twice in one
        # chunk sends its second spike's deliveries with ages counted from
        # its first's
        net, circuit, images, thr, _ = calibrated
        monkeypatch.setattr(ck, "BUDGET", 4 * BLOCK * max(circuit.layer_sizes))
        seen = self.passes(monkeypatch)
        result = self._check(net, circuit, [(images[0], 15)], thr)
        assert {(width, chunk) for width, _, _, chunk, _, _ in seen} == \
            {(3 * BLOCK, 0), (3 * BLOCK, 1)}
        soma = result.raster.layer == 1
        steps = np.ceil(result.raster.time[soma] / circuit.params.dt).astype(np.int64) - 1
        _, per_chunk = np.unique(np.c_[result.raster.neuron[soma], steps // (3 * BLOCK)],
                                 axis=0, return_counts=True)
        assert per_chunk.max() >= 2, "no layer-1 neuron fired twice in one chunk"

    def test_run_shorter_than_one_chunk(self, calibrated, monkeypatch):
        # 400 steps, 1.56 blocks: one chunk of two blocks, which the run ends
        # inside
        net, circuit, images, thr, _ = calibrated
        seen = self.passes(monkeypatch)
        self._check(net, circuit, [(images[0], 4)], thr)
        assert {(width, total, chunk) for width, total, _, chunk, _, _ in seen} == \
            {(2 * BLOCK, 400, 0)}
        assert ck.BUDGET >= 2 * BLOCK * max(circuit.layer_sizes)  # so the run sets the chunk


class TestNullDeliveries:
    """A delivery whose reset adds nothing, as its reset-table entry is 0, is
    counted but never queued."""

    @pytest.mark.parametrize("params, steps_per_period", [
        (CircuitParams(dt=0.1), 100),
        (CircuitParams(dt=0.025), 400),
        (CircuitParams(period=67.19948779563593), 100),  # period/dt rounds below 100
        (CircuitParams(dt=0.03), None),  # no whole number of steps per period
    ], ids=["dt0.1", "dt0.025", "period67.2", "dt0.03"])
    def test_reset_table_is_zero_at_whole_periods_only(self, params, steps_per_period):
        never = 1201
        table = ck.reset_table(params, never)
        age = np.arange(never)
        null = age == 0 if steps_per_period is None else age % steps_per_period == 0
        np.testing.assert_array_equal(table[:never] == 0, null)
        assert np.all(table[never:] != 0)  # first kicks of synapses never reset

    def test_null_deliveries_are_counted_not_queued(self, calibrated, monkeypatch):
        net, circuit, images, thr, _ = calibrated
        ages = []
        original = ck.Integrator._pass

        def spy(self, l, chunk, r0, r1, got, *rest):
            ages.append(got[2])
            return original(self, l, chunk, r0, r1, got, *rest)

        monkeypatch.setattr(ck.Integrator, "_pass", spy)
        stimuli = [(images[0], 8)]
        result = run(circuit, stimuli, v_threshold=thr)
        age = np.concatenate(ages)
        steps_per_period = round(circuit.params.period / circuit.params.dt)
        never = len(result.trace_times) + 1  # the age of a synapse's first kick is at least this
        null = (age % steps_per_period == 0) & (age < never)
        assert not null.any(), f"{np.count_nonzero(null)} null deliveries reached a pass"
        assert age.size < result.deliveries
        assert result.deliveries == step_reference.run(circuit, stimuli, thr).deliveries


@st.composite
def band_cases(draw):
    """(params, delays, (sent_prev, t_prev), (sent, t), m, n_steps): a period
    of P whole steps, synapse delays (zero and below GRID_EPS among them),
    two soma spikes m * P steps apart, give or take a drift below one step,
    and a run that ends up to a period after the second. A spike fired on
    step `sent` lies at sent * dt + frac * dt, frac in (0, 1], as _pass puts
    it, often within GRID_EPS / dt steps of its step's start, and its
    deliveries land on step sent + 1 or later; delays often place arrivals on
    or next to a grid time."""
    near = st.sampled_from([0.0, GRID_EPS, -GRID_EPS, 1e-13, -1e-13, 1e-7, -1e-7])
    period = draw(st.sampled_from([10.0, 2.5, 67.19948779563593, 0.1, 1e-3]))
    steps = draw(st.sampled_from([100, 101]) | st.integers(100, 400))
    params = CircuitParams(period=period, dt=period / steps)
    assume(ck.steps_per_period(params) == steps)
    dt, eps = params.dt, GRID_EPS / params.dt
    cells = draw(st.lists(st.integers(0, steps - 1), max_size=30))
    delays = [(k + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))) * dt + draw(near)
              for k in cells]
    delays += draw(st.lists(st.sampled_from([0.0, 1e-13, 0.5 * GRID_EPS, 0.999999 * GRID_EPS]),
                            min_size=1 if not delays else 0, max_size=3))
    frac = st.sampled_from([1e-12, 1e-5, 0.5 * eps, eps, 2 * eps, 0.5, 1.0 - eps, 1.0]) \
        | st.floats(0.0, 1.0, exclude_min=True)
    m = draw(st.integers(1, 3))
    sent_prev, frac_prev = draw(st.integers(0, 3 * steps)), draw(frac)
    frac_now = draw(frac)
    # the second spike on the step m * P after the first's, or on the
    # neighbouring step that keeps the drift below one step
    sent = sent_prev + m * steps + draw(st.sampled_from([0, 1 if frac_now < frac_prev else -1]))
    # a band spike's drift stays 2 margins short of a step, the kernel's
    # margin being MARGIN + GRID_EPS / dt
    assume(abs(sent + frac_now - sent_prev - frac_prev - m * steps) < 1.0 - 2 * (ck.MARGIN + eps))
    return (params, np.clip(delays, 0.0, period * (1 - 1e-12)),
            (sent_prev, sent_prev * dt + dt * frac_prev), (sent, sent * dt + dt * frac_now),
            m, sent + draw(st.integers(2, steps + 4)))


class TestBandRule:
    """A spike m whole periods after its run's previous one, give or take a
    drift below one step, computes only the grid-phase slices its drift can
    move, widened by GRID_EPS / dt steps for the send-step clamp; every other
    delivery, clamped to the step after its spike, lands exactly m * P steps
    after the synapse's last, a null one."""

    @settings(max_examples=300, deadline=None)
    @given(band_cases())
    def test_deliveries_outside_the_band_land_whole_periods_on(self, case):
        params, delays, (sent_prev, t_prev), (sent, t), m, n_steps = case
        net = PhasorNetwork.create((1,), [LayerSpec("dense", fan_in=1, fan_out=len(delays))],
                                   seed=0, dtype=np.complex128)
        net.weights[0][:, 0] = np.exp(2j * np.pi * delays / params.period)
        circuit = build_circuit(net, params)
        kernel = ck.Integrator(circuit, 1.0, n_steps, np.zeros((1, circuit.n_gen)))
        runs, t, t_prev = np.array([0]), np.array([t]), np.array([t_prev])
        assert kernel._band(t, t_prev) is not None
        pos, per, past = kernel._computed(runs, t, t_prev)
        assert per.tolist() == [pos.size]
        out = np.setdiff1d(np.arange(circuit.out_ptr[0], circuit.out_ptr[1]), pos)
        d = circuit.syn_delay[out]
        steps = kernel._arrival(t + d, sent + 1.0)
        np.testing.assert_array_equal(steps - kernel._arrival(t_prev + d, sent_prev + 1.0),
                                      m * ck.steps_per_period(params))
        assert past == np.count_nonzero(steps >= n_steps)  # not deliveries

    @staticmethod
    def computed_run(monkeypatch, circuit, stimuli, thr, full):
        """run(), and the deliveries it computed; full: every spike computes
        its whole run."""
        computed = []
        original = ck.Integrator._queue

        def spy(self, layer, steps, syn, age):
            computed.append(steps.size)
            return original(self, layer, steps, syn, age)

        with monkeypatch.context() as m:
            m.setattr(ck.Integrator, "_queue", spy)
            if full:
                m.setattr(ck.Integrator, "_band", lambda self, t, t_prev: None)
            return run(circuit, stimuli, v_threshold=thr), sum(computed)

    def _check(self, monkeypatch, circuit, stimuli, thr, skips=True):
        band, n_band = self.computed_run(monkeypatch, circuit, stimuli, thr, False)
        full, n_full = self.computed_run(monkeypatch, circuit, stimuli, thr, True)
        assert (band.raster.layer > 0).any(), "no soma spiked; the case checks nothing"
        for name in ("layer", "neuron", "time"):
            np.testing.assert_array_equal(getattr(band.raster, name), getattr(full.raster, name))
        np.testing.assert_array_equal(band.vm_max, full.vm_max)
        assert band.deliveries == full.deliveries
        assert n_band < n_full if skips else n_band == n_full

    def test_dense_tiny_net(self, calibrated, monkeypatch):
        _, circuit, images, thr, _ = calibrated
        self._check(monkeypatch, circuit, [(images[0], 8)], thr)

    def test_stimulus_switch(self, calibrated, monkeypatch):
        _, circuit, images, thr, _ = calibrated
        self._check(monkeypatch, circuit, [(images[0], 3), (images[1], 4)], thr)

    def test_conv_net_with_biases(self, monkeypatch):
        specs = [LayerSpec("conv3x3", in_channels=1, out_channels=2),
                 LayerSpec("dense", fan_in=2 * 4 * 4, fan_out=4)]
        net = PhasorNetwork.create((1, 6, 6), specs, seed=2, dtype=np.complex64)
        net.biases[0][:] = 0.1 + 0.1j
        net.biases[1][:] = 0.1 - 0.1j
        circuit = build_circuit(net)
        image = np.random.default_rng(3).uniform(size=36)
        thr = 0.1 * observe_amplitude(circuit, image, n_cycles=4)
        self._check(monkeypatch, circuit, [(image, 8)], thr)

    def test_period_not_whole_steps(self, calibrated, monkeypatch):
        # at dt = 0.03 no spike is a band spike: every one computes its run
        net, _, images, _, _ = calibrated
        circuit = build_circuit(net, CircuitParams(dt=0.03))
        thr = 0.1 * observe_amplitude(circuit, images[0], n_cycles=4)
        self._check(monkeypatch, circuit, [(images[0], 3), (images[1], 4)], thr, skips=False)


class TestPassSchedule:
    """How a run is cut into passes moves no spike: one pass per layer, two
    chunks and row slices give the same spikes and deliveries."""

    def test_rasters_do_not_depend_on_the_schedule(self, calibrated, monkeypatch):
        net, circuit, images, thr, _ = calibrated
        quiet, widths = [], set()
        original = ck.Integrator._pass

        def spy(self, l, chunk, r0, r1, got, *rest):
            quiet.append(got[0].size == 0)
            widths.add((self.chunk, r1 - r0))
            return original(self, l, chunk, r0, r1, got, *rest)

        monkeypatch.setattr(ck.Integrator, "_pass", spy)
        stimuli = [(images[0], 15)]  # 1500 steps, 6 blocks
        results, schedules = [], []
        for budget in (ck.BUDGET, 4 * BLOCK * max(circuit.layer_sizes), 4 * BLOCK):
            monkeypatch.setattr(ck, "BUDGET", budget)
            widths.clear()
            results.append(run(circuit, stimuli, v_threshold=thr))
            schedules.append(sorted(widths))
        # one pass per layer, two chunks of 3 blocks, slices of 4 rows of a block
        assert schedules == [[(6 * BLOCK, 10), (6 * BLOCK, 12)],
                             [(3 * BLOCK, 10), (3 * BLOCK, 12)],
                             [(BLOCK, 2), (BLOCK, 4)]]
        assert any(quiet), "every pass got a delivery; the quiet path never ran"
        want = results[0]
        assert (want.raster.layer > 0).any(), "no soma spiked; the case checks nothing"
        for got in results[1:]:
            np.testing.assert_array_equal(got.raster.layer, want.raster.layer)
            np.testing.assert_array_equal(got.raster.neuron, want.raster.neuron)
            np.testing.assert_allclose(got.raster.time, want.raster.time, rtol=0, atol=1e-12)
            assert got.deliveries == want.deliveries


class TestSendPlan:
    """build_circuit builds the kernel's send plan once. The synapse arrays
    and the plan are read-only, and dataclasses.replace builds a new plan."""

    def test_run_builds_no_plan(self, calibrated, monkeypatch):
        net, _, images, thr, _ = calibrated
        circuit = build_circuit(net)
        want = run(circuit, [(images[0], 5)], v_threshold=thr)

        def no_grid_phase(*args):
            raise AssertionError("a run computed grid phases")

        monkeypatch.setattr(ck, "grid_phase", no_grid_phase)
        got = run(circuit, [(images[0], 5)], v_threshold=thr)
        np.testing.assert_array_equal(got.raster.time, want.raster.time)

    @pytest.mark.parametrize("name", ["syn_w", "syn_delay", "syn_owner", "run_ptr", "phase_key"])
    def test_synapses_and_plan_are_read_only(self, name):
        circuit = build_circuit(tiny_net(seed=0))
        with pytest.raises(ValueError, match="read-only"):
            getattr(circuit, name)[0] = 0

    def test_replace_builds_its_own_plan(self, calibrated):
        # noisy delays reorder each run's grid phases; the new circuit puts
        # its synapses back in sending order and builds its own plan, and
        # runs as the step reference does on the same synapses
        net, circuit, images, thr, _ = calibrated
        period = circuit.params.period
        noise = np.random.default_rng(0).normal(0.0, 0.02 * period, circuit.n_synapses)
        delay = (circuit.syn_delay + noise) % period
        noisy = dataclasses.replace(circuit, syn_delay=delay)
        assert delay.flags.writeable  # the caller's array is left as it was
        assert not (noisy.syn_delay.flags.writeable or noisy.phase_key.flags.writeable)
        assert sorted(zip(noisy.syn_w, noisy.syn_delay, noisy.syn_owner)) == \
            sorted(zip(circuit.syn_w, delay, circuit.syn_owner))
        np.testing.assert_array_equal(noisy.run_ptr, circuit.run_ptr)
        assert np.all(np.diff(noisy.phase_key) >= 0)
        assert not np.array_equal(noisy.syn_owner, circuit.syn_owner)
        TestKernelMatchesStepReference()._check(net, noisy, [(images[0], 8)], thr)

    @settings(max_examples=100, deadline=None)
    @given(band_cases(), st.sampled_from([2 ** 14, 2 ** 21]))
    def test_band_search_covers_the_key_rounding(self, case, empty):
        # the band rule's case with `empty` generators that send nothing
        # ahead of the input, so the input's run is run `empty`, whose
        # float32 keys 2 run + grid phase are rounded to 2**-9 or 2**-1
        # steps, and 64 more synapses, one in every 64th of a step, so that
        # some lie within a rounding of either end of the band
        params, delays, (sent_prev, t_prev), (sent, t), m, n_steps = case
        delays = np.concatenate((delays, (np.arange(64) + 0.5) / 64 * params.dt))
        net = PhasorNetwork.create((1,), [LayerSpec("dense", fan_in=1, fan_out=len(delays))],
                                   seed=0, dtype=np.complex128)
        net.weights[0][:, 0] = np.exp(2j * np.pi * delays / params.period)
        circuit = build_circuit(net, params)
        circuit = dataclasses.replace(circuit, n_gen=circuit.n_gen + empty, out_ptr=np.concatenate(
            (np.zeros(empty, dtype=np.int64), circuit.out_ptr)))
        kernel = ck.Integrator(circuit, 1.0, n_steps, np.zeros((1, circuit.n_gen)))
        runs, t, t_prev = np.array([empty]), np.array([t]), np.array([t_prev])
        assert kernel._band(t, t_prev) is not None
        pos, per, past = kernel._computed(runs, t, t_prev)
        out = np.setdiff1d(np.arange(circuit.out_ptr[empty], circuit.out_ptr[empty + 1]), pos)
        d = circuit.syn_delay[out]
        steps = kernel._arrival(t + d, sent + 1.0)
        np.testing.assert_array_equal(steps - kernel._arrival(t_prev + d, sent_prev + 1.0),
                                      m * ck.steps_per_period(params))
        assert past == np.count_nonzero(steps >= n_steps)


V_TH = 0.5
LEVELS = [-1.0, -1e-12, 0.0, 0.2, np.nextafter(V_TH, 0.0), V_TH, 0.7, 1.5]


@st.composite
def vm_runs(draw, n_rows):
    """(vm (rows, steps) over two or more blocks, vm before the first step,
    armed on entry). Each row is a sequence of constant runs, so it holds
    long stretches above v_th, repeated upcrossings with no dip below 0, and
    samples exactly on v_th."""
    rows = []
    for _ in range(n_rows):
        runs = draw(st.lists(st.tuples(st.sampled_from(LEVELS), st.integers(1, 40)),
                             min_size=1, max_size=40))
        row = np.repeat([v for v, _ in runs], [n for _, n in runs])
        length = draw(st.integers(BLOCK + 1, 3 * BLOCK))
        rows.append(np.resize(row, length) if row.size else np.zeros(length))
    length = min(r.size for r in rows)
    vm = np.stack([r[:length] for r in rows])
    vm_prev = np.array(draw(st.lists(st.sampled_from(LEVELS), min_size=n_rows,
                                     max_size=n_rows)))
    armed = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    return vm, vm_prev, armed


class TestFiringRule:
    """The kernel's block-wise threshold rule against the reference's per-step rule."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(vm_runs))
    def test_fires_where_the_step_rule_fires(self, case):
        vm, vm_prev, armed = case
        refr = (~armed).astype(np.uint8)
        want, old = [], vm_prev.copy()
        for k in range(vm.shape[1]):
            want += [(k, n) for n in step_reference.fire_step(old, vm[:, k], refr, V_TH)]
            old = vm[:, k]
        got, state, prev = [], armed.copy(), vm_prev.copy()
        for b0 in range(0, vm.shape[1], BLOCK):  # refractory state carried between blocks
            block = vm[:, b0:b0 + BLOCK]
            rows, steps = fire(block, prev, state, V_TH)
            got += [(b0 + k, n) for n, k in zip(rows.tolist(), steps.tolist())]
            prev = block[:, -1]
        assert sorted(got) == want
        np.testing.assert_array_equal(state, refr == 0)


class TestArrivalSteps:
    """Soma-spike arrival steps against the grid rule: the first step whose
    time plus GRID_EPS reaches spike time + delay, and never the sending step
    or earlier."""

    @staticmethod
    def integrator(dt):
        net = tiny_net(seed=2)
        net.weights[1][:, :6] = np.abs(net.weights[1][:, :6])  # zero-delay synapses
        circuit = build_circuit(net, CircuitParams(dt=dt))
        gen_times = np.zeros((4, 17)) + circuit.params.period * np.arange(4)[:, None]
        return circuit, ck.Integrator(circuit, 1.0, 1600, gen_times)

    @pytest.mark.parametrize("dt", [0.025, 0.1])
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 11), st.integers(0, 1500), st.integers(0, 40),
           st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10, GRID_EPS, -GRID_EPS, 0.3e-3]))
    def test_matches_the_grid_rule(self, dt, neuron, target, which, offset):
        # a spike timed so that one of its deliveries lands on (or just off)
        # a grid step; zero-delay synapses put it right after its own step
        circuit, kernel = self.integrator(dt)
        pos, counts = ck.csr_rows(circuit.out_ptr, np.array([circuit.n_gen + neuron]))
        delay = circuit.syn_delay[circuit.out_syn[pos]]
        tstar = (target * dt + GRID_EPS) + offset - delay[which % delay.size]
        tstar = max(tstar, 1e-12)
        sent = int(np.ceil(tstar / dt)) - 1  # tstar in (now, now + dt]
        got = kernel._arrival(tstar + delay, sent + 1)
        grid = np.arange(kernel.total + 1000) * dt + GRID_EPS
        want = np.maximum(grid.searchsorted(tstar + delay), sent + 1)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dt", [0.025, 0.1])
    @pytest.mark.parametrize("t0", [0.0, 40.0, 150.0])
    def test_exact_rule_on_grid_times(self, t0, dt):
        # times on a grid step and one ulp either side of it, in a window of
        # the grid starting at t0 (step t0 / dt), where the division alone
        # lands a step off hundreds of times
        _, kernel = self.integrator(dt)
        first = int(round(t0 / dt))
        grid = np.arange(first, first + 6000) * dt + GRID_EPS
        for t in (grid[:-2], np.nextafter(grid[:-2], np.inf), np.nextafter(grid[:-2], -np.inf)):
            np.testing.assert_array_equal(kernel._arrival(t, 0), first + grid.searchsorted(t))


def make_raster(spikes, period=10.0, n_cycles=3):
    """Layer-1 raster from (neuron, time) pairs, stably sorted by time."""
    spikes = sorted(spikes, key=lambda s: s[1])
    return SpikeRaster(np.ones(len(spikes)), [n for n, _ in spikes],
                       [t for _, t in spikes], period=period, n_cycles=n_cycles)


class TestDecode:
    def test_outlier_unit_wins(self):
        # units 1, 2 spike together at cycle starts; unit 0 half a cycle off
        spikes = [(0, 5.0), (0, 15.0), (0, 25.0),
                  (1, 0.0), (1, 10.0), (1, 20.0),
                  (2, 0.0), (2, 10.0), (2, 20.0)]
        assert decode_output(make_raster(spikes), 3, 1, now=30.0) == 0

    def test_symmetric_pair_ties_to_lowest_index(self):
        spikes = [(0, 0.0), (0, 10.0), (0, 20.0),
                  (1, 5.0), (1, 15.0), (1, 25.0)]
        assert decode_output(make_raster(spikes), 2, 1, now=30.0) == 0

    def test_sole_spiking_unit_wins(self):
        spikes = [(2, 4.0), (2, 14.0)]
        assert decode_output(make_raster(spikes), 5, 1, now=20.0) == 2

    def test_no_spikes_returns_none(self):
        assert decode_output(make_raster([]), 4, 1, now=30.0) is None

    def test_window_excludes_old_spikes(self):
        # unit 0's lone spike has scrolled out of the 3-cycle window
        spikes = [(0, 1.0), (1, 35.0), (1, 45.0)]
        assert decode_output(make_raster(spikes, n_cycles=5), 2, 1, now=50.0) == 1

    def test_edge_spike_uses_single_side(self):
        # unit 0 spikes before any other unit, and again after unit 1
        spikes = [(0, 1.0), (1, 9.0), (1, 19.0), (0, 11.0)]
        got = decode_output(make_raster(spikes), 2, 1, now=20.0)
        assert got in (0, 1)  # well-defined, no crash on an unbalanced window

    def test_decode_over_time_starts_unknown(self):
        spikes = [(0, 12.0), (1, 15.0)]
        out = decode_over_time(make_raster(spikes), 2, 1, times=[5.0, 20.0])
        assert out[0] == -1
        assert out[1] in (0, 1)

    def test_output_spike_phases(self):
        spikes = [(0, 5.0), (0, 15.0), (1, 0.0), (1, 10.0)]
        phases = decode_reference.output_spike_phases(make_raster(spikes), 3, 1, now=20.0)
        assert phases[0] == pytest.approx(np.pi)
        assert abs(phases[1]) < 1e-9
        assert np.isnan(phases[2])


@st.composite
def phase_locked_spikes(draw, period=10.0):
    """(n_outputs, (unit, time) spikes, shift, decode time). Each unit spikes
    within 1 ms of its own phase in one to four of cycles 2..5, and the decode
    time falls in cycle 5."""
    n = draw(st.integers(2, 6))
    spikes = []
    for u in range(n):
        phase = draw(st.floats(0.0, period))
        spikes += [(u, c * period + phase + j) for c, j in draw(st.lists(
            st.tuples(st.integers(2, 5), st.floats(-1.0, 1.0)), min_size=1, max_size=4))]
    return n, spikes, draw(st.floats(-100.0, 100.0)), draw(st.floats(5 * period, 6 * period))


class TestDecodeTimeShift:
    """Shifting every spike time and the decode time by one constant rotates
    every window phasor by the same angle, and predict()'s class depends only
    on phase differences. Cases near a tie (top score margin <= 1e-9), with a
    spike within 1e-9 ms of a window edge, or with a unit whose phasors nearly
    cancel (mean resultant <= 1e-3, no defined mean phase) are skipped."""

    @settings(max_examples=300, deadline=None)
    @given(phase_locked_spikes())
    def test_common_shift_keeps_the_class(self, case):
        n_outputs, spikes, shift, now = case
        raster = make_raster(spikes)
        edges = np.array([now - circuit_mod.WINDOW_CYCLES * raster.period, now])
        assume(np.all(np.abs(raster.time[:, None] - edges) > 1e-9))
        scores, resultants = decode_reference.window_scores(raster, n_outputs, 1, now)
        active = ~np.isnan(resultants)
        assume(np.all(np.asarray(resultants)[active] > 1e-3))
        top = np.sort(np.asarray(scores)[active])
        assume(top.size < 2 or top[-1] - top[-2] > 1e-9)
        moved = make_raster([(n, t + shift) for n, t in spikes])
        want = decode_output(raster, n_outputs, 1, now)
        assert decode_output(moved, n_outputs, 1, now + shift) == want
        got = decode_over_time(moved, n_outputs, 1, [now + shift])
        assert got[0] == (-1 if want is None else want)


def random_output_raster(seed, n_outputs=6, period=10.0, n_cycles=6):
    """Output layer 2 plus a layer-1 distractor, on a coarse 1.25 ms grid so
    that spikes of different units tie exactly. kind: 0 several units, 1 one
    spiking unit, 2 two units (their scores can tie), 3 a silent output
    layer, 4 no spikes at all."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    n_units = {0: int(rng.integers(3, n_outputs + 1)), 1: 1, 2: 2, 3: 0, 4: 0}[kind]
    grid = np.arange(0.0, n_cycles * period, 1.25)
    layer, neuron, time = [], [], []
    for u in rng.choice(n_outputs, n_units, replace=False):
        t = rng.choice(grid, int(rng.integers(1, 2 * n_cycles)), replace=False)
        layer += [2] * t.size
        neuron += [u] * t.size
        time += t.tolist()
    if kind != 4:
        t = rng.choice(grid, 20)
        layer += [1] * 20
        neuron += rng.integers(0, 4, 20).tolist()
        time += t.tolist()
    return SpikeRaster.sorted(np.array(layer, dtype=np.int64), np.array(neuron, dtype=np.int64),
                              np.array(time), period, n_cycles)


class TestDecodeMatchesReference:
    """The cumulative-sum decoder against the per-spike loop form of its rule.

    Any class whose reference score is within 1e-9 of the best is accepted:
    exact score ties on the grid are broken by rounding. Windows in which some
    unit's phasors cancel (resultant below 1e-9 of its spike count, as for
    spikes at multiples of pi/4) are skipped, because that unit's mean phase
    is undefined."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_rasters(self, seed, monkeypatch):
        raster = random_output_raster(seed)
        times = np.arange(-5.0, 70.0, 0.5)  # empty windows first, then every state
        checked = 0
        for window in (1, 3):
            monkeypatch.setattr(circuit_mod, "WINDOW_CYCLES", window)
            got = decode_over_time(raster, 6, 2, times)
            for k, now in enumerate(times):
                if k % 5 == 0:
                    single = decode_output(raster, 6, 2, now)
                    assert got[k] == (-1 if single is None else single)
                scores, resultants = decode_reference.window_scores(raster, 6, 2, now, window)
                if np.all(np.isnan(resultants)):  # no output spike in the window
                    assert got[k] == -1
                elif np.nanmin(resultants) < 1e-9:
                    continue
                else:
                    assert scores[got[k]] >= max(scores) - 1e-9, (now, window, scores)
                checked += 1
        assert checked > 0

    def test_cases_cover_ties_and_edges(self):
        # the rasters above hold exact cross-unit time ties, and windows that
        # are empty or hold a single spiking unit
        ties = single = empty = 0
        for seed in range(30):
            raster = random_output_raster(seed)
            out = raster.time[raster.layer == 2]
            units = raster.neuron[raster.layer == 2]
            for t in np.unique(out):
                ties += np.unique(units[out == t]).size > 1
            for now in np.arange(-5.0, 70.0, 0.5):
                n = np.unique(units[(out >= now - 30.0) & (out <= now)]).size
                empty += n == 0
                single += n == 1
        assert ties and single and empty


class TestDecodeIdealRaster:
    """An exact ideal raster decodes to the phasor network's class."""

    @staticmethod
    def conv_net(seed):
        specs = [LayerSpec("conv3x3", in_channels=1, out_channels=4),
                 LayerSpec("conv3x3", in_channels=4, out_channels=4),
                 LayerSpec("dense", fan_in=4 * 4 * 4, fan_out=10)]
        return PhasorNetwork.create((1, 8, 8), specs, seed=seed, dtype=np.complex64)

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    @pytest.mark.parametrize("seed", range(8))
    def test_decode_matches_predict(self, kind, seed):
        net = small_fc_net(seed=seed) if kind == "dense" else self.conv_net(seed)
        rng = np.random.default_rng(seed)
        x = encode_batch(net, rng.uniform(size=(1,) + net.input_shape))[0]
        want = predict(forward(net, x).output)
        depth = len(net.layers)
        for n_cycles in (depth + 1, depth + 2, depth + 5):
            raster = unroll(net, x, 10.0, n_cycles)
            assert decode_output(raster, net.n_outputs, depth, now=n_cycles * 10.0) == want


class TestFidelity:
    """fidelity() on rasters whose answer is known: the ideal raster, and
    the ideal raster with one unit's spikes moved, dropped or added."""

    @staticmethod
    def case():
        # theta = 1 leaves 3 of 12 and 2 of 10 units inactive
        specs = [LayerSpec("dense", fan_in=16, fan_out=12, theta=1.0),
                 LayerSpec("dense", fan_in=12, fan_out=10, theta=1.0)]
        net = PhasorNetwork.create((16,), specs, seed=3, dtype=np.complex128)
        image = tiny_images(1, seed=3)[0]
        trace = forward(net, encode_batch(net, image[None])[0])
        assert [int(m.sum()) for m in trace.masks] == [9, 8]
        return net, image, unroll(net, encode_batch(net, image[None])[0], 10.0, 4), trace

    def test_ideal_raster_is_exact(self):
        net, image, raster, _ = self.case()
        got = fidelity(net, raster, image)
        np.testing.assert_allclose(got.residual, 0.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got.active_spiking, [1.0, 1.0])
        np.testing.assert_array_equal(got.inactive_spiking, [0.0, 0.0])

    def test_offset_is_removed_and_errors_show(self):
        net, image, raster, trace = self.case()
        layer1 = raster.layer == 1
        late = dataclasses.replace(raster, time=np.where(layer1, raster.time + 0.7, raster.time))
        np.testing.assert_allclose(fidelity(net, late, image).residual, 0.0, rtol=0, atol=1e-12)
        active = np.flatnonzero(trace.masks[0])
        moved = layer1 & (raster.neuron == active[0])
        off = dataclasses.replace(raster, time=np.where(moved, raster.time + 1.0, raster.time))
        assert fidelity(net, off, image).residual[0] > 0.05
        keep = ~(layer1 & (raster.neuron == active[1]))
        silent = dataclasses.replace(raster, layer=raster.layer[keep],
                                     neuron=raster.neuron[keep], time=raster.time[keep])
        assert fidelity(net, silent, image).active_spiking[0] == 8 / 9
        extra = SpikeRaster.sorted(
            np.r_[raster.layer, 2], np.r_[raster.neuron, np.flatnonzero(~trace.masks[1])[0]],
            np.r_[raster.time, 35.0], raster.period, raster.n_cycles)
        assert fidelity(net, extra, image).inactive_spiking[1] == 0.5


class TestCalibration:
    def test_threshold_in_scan_range(self, calibrated):
        # the scan's decade is relative to the locked layer-1 amplitude
        # G median|z| over images[0]'s nonzero first-layer pre-activations
        net, circuit, images, thr, agree = calibrated
        x = encode_batch(net, images[0][None])
        z = np.abs(preactivation(net.layers[0], net.weights[0], net.biases[0], x)[0])
        amp = soma_response(circuit.params)[0] * np.median(z[z > 0])
        assert 0.03 * amp * (1 - 1e-9) <= thr <= 0.3 * amp * (1 + 1e-9)
        assert net.v_threshold is None  # calibration leaves the net as it was
        assert 0.0 <= agree <= 1.0

    @pytest.mark.parametrize("n_candidates, n_images, match", [
        (0, 3, "n_candidates must be an integer >= 1"), (8, 0, "at least one image")],
        ids=["no_candidate", "no_image"])
    def test_needs_a_candidate_and_an_image(self, n_candidates, n_images, match):
        net = tiny_net(seed=0)
        with pytest.raises(ValidationError, match=match):
            calibrate_threshold(net, build_circuit(net), tiny_images(n_images),
                                n_candidates=n_candidates)

    def test_observe_amplitude_positive(self, calibrated):
        net, circuit, images, _, _ = calibrated
        amp = observe_amplitude(circuit, images[0])
        assert amp > 0.0

    def test_scan_stops_once_no_candidate_can_win(self, monkeypatch):
        # images agreed per candidate, scored in ascending order: candidate 1
        # ties candidate 0 and does not replace it, candidate 2 agrees on
        # every image, candidate 3 is never scored
        table = [2, 2, 3, 3]
        scored = []

        def fake_score(net, x, v_threshold, params, wants):
            scored.append(v_threshold)
            return table[len(scored) - 1]

        monkeypatch.setattr(circuit_mod, "_model_agreement", fake_score)
        net = tiny_net()
        thr, agree = calibrate_threshold(net, build_circuit(net), tiny_images(3),
                                         n_candidates=len(table))
        assert len(scored) == 3 and thr == scored[2] and agree == 1.0
        np.testing.assert_allclose(np.diff(np.log10(scored)), 1 / 3)  # the decade in thirds
        # with no candidate agreeing on every image the first of the best wins
        table[:] = [1, 2, 2, 1]
        scored.clear()
        thr, agree = calibrate_threshold(net, build_circuit(net), tiny_images(3),
                                         n_candidates=len(table))
        assert len(scored) == 4 and thr == scored[1] and agree == 2 / 3

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_result_equals_the_full_scan(self, seed):
        # Named for the full circuit scan it is checked against: the settled
        # circuit (15 cycles) decodes the net's class on the calibration
        # images at least as often at the model's threshold as at the scan's
        # (5-cycle runs, as perfbench calibrates). Over tiny-net seeds 1-12
        # the model's threshold agreed on as many images or more on every
        # seed; on seed 2 it is the third candidate, not the first, because
        # image 0 is a near tie in the net (predict scores 1.205 / 1.204)
        # that the model, like the circuit, decodes as the runner-up at the
        # two smaller candidates.
        net = tiny_net(seed=seed)
        net.biases[0][:] = 0.2 + 0.1j
        circuit = build_circuit(net)
        images = tiny_images(3, seed=seed)
        scan_thr, _, _ = calibration_reference.full_scan(
            net, circuit, images, n_candidates=4, n_cycles=5)
        thr, _ = calibrate_threshold(net, circuit, images, n_candidates=4)
        x = encode_batch(net, np.stack(images))
        wants = [predict(h) for h in forward(net, x).output]

        def settled_agreement(v_threshold):
            return sum(want == decode_output(
                run(circuit, [(image, 15)], v_threshold=v_threshold).raster,
                circuit.n_outputs, len(net.layers), now=150.0)
                for image, want in zip(images, wants))

        assert settled_agreement(thr) >= settled_agreement(scan_thr)

    def test_never_integrates(self, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("calibration integrated the circuit")

        monkeypatch.setattr(circuit_mod, "run", no_integration)
        monkeypatch.setattr(ck, "Integrator", no_integration)
        for net in (tiny_net(seed=1), TestDecodeIdealRaster.conv_net(1)):
            net.biases[0][:] = 0.2 + 0.1j
            images = list(np.random.default_rng(1).uniform(size=(3,) + net.input_shape))
            thr, agree = calibrate_threshold(net, build_circuit(net), images)
            assert thr > 0.0 and 0.0 <= agree <= 1.0

    def test_silent_units_warn_of_nothing(self):
        # |z| = 0 units and candidates above some |z| take no reciprocal of 0
        # and no arccos above 1; a threshold above every |z| silences the net
        net = tiny_net(seed=0)
        net.weights[0][::2] = 0.0
        images = tiny_images(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_threshold(net, build_circuit(net), images)
            x = encode_batch(net, np.stack(images))
            out = steady_state(net, x, 1e30, CircuitParams())
        assert all(np.all(h == 0) for h in out)

    def test_silent_first_layer_is_a_numeric_error(self):
        net = tiny_net(seed=0)
        net.weights[0][:] = 0.0
        with pytest.raises(NumericError, match="pre-activation"):
            calibrate_threshold(net, build_circuit(net), tiny_images(2))

    def test_reference_classes_use_the_nets_encoding(self, monkeypatch):
        # the phasors that eval and predict feed forward(): encoded in the
        # net's dtype, phase shifts applied
        specs = [LayerSpec("dense", fan_in=16, fan_out=12),
                 LayerSpec("dense", fan_in=12, fan_out=10)]
        net = PhasorNetwork.create((16,), specs, seed=1, dtype=np.complex128)
        net.phase_shifts = np.random.default_rng(1).uniform(0, 2 * np.pi, 16)
        net.biases[0][:] = 0.2 + 0.1j
        images = tiny_images(2, seed=1)
        seen = []

        def spy(net, x):
            seen.append(x)
            return forward(net, x)

        monkeypatch.setattr(circuit_mod, "forward", spy)
        calibrate_threshold(net, build_circuit(net), images, n_candidates=2, n_cycles=3)
        assert len(seen) == 1 and seen[0].dtype == np.complex128
        np.testing.assert_array_equal(seen[0], encode_batch(net, np.stack(images)))


class TestSteadyState:
    """soma_response's closed form against the circuit, on layer 1 of five
    seeded dense nets and one conv net, first-layer biases 0.2+0.1j, the
    last of 8 cycles read. Tolerances from dense and conv nets seeds 0-7:
    the median of amplitude / (G |z|) was 0.9957-1.0032; at theta_eff 0.05 /
    0.3 / 0.8 x median|z| the mean spike-phase residual against arg z -
    arccos(theta_eff / |z|) + lag was within 0.018 rad of 0 and its mean
    magnitude at most 0.036 rad, and every unit whose spiking differed from
    |z| > theta_eff had |z| within 6.7% of theta_eff."""

    CASES = [("dense", seed) for seed in range(5)] + [("conv", 0)]
    N_CYCLES = 8

    @staticmethod
    def case(kind, seed):
        """(net, circuit, image, layer-1 pre-activation z flattened)."""
        net = tiny_net(seed) if kind == "dense" else TestDecodeIdealRaster.conv_net(seed)
        net.biases[0][:] = 0.2 + 0.1j
        image = np.random.default_rng(seed).uniform(size=int(np.prod(net.input_shape)))
        x = encode_batch(net, image[None])
        z = preactivation(net.layers[0], net.weights[0], net.biases[0], x)[0].reshape(-1)
        return net, build_circuit(net), image, z

    def test_closed_form_at_the_defaults(self):
        gain, lag = soma_response(CircuitParams())
        assert gain == pytest.approx(0.046036, abs=5e-7)
        assert lag == pytest.approx(4.5802, abs=5e-5)

    @pytest.mark.parametrize("kind, seed", CASES)
    def test_locked_amplitude_is_gain_times_z(self, kind, seed):
        net, circuit, image, z = self.case(kind, seed)
        result = run(circuit, [(image, self.N_CYCLES)], v_threshold=1e30,
                     record_neurons=range(z.size))
        last = result.trace_vm[-int(round(circuit.params.period / circuit.params.dt)):]
        amp = (last.max(axis=0) - last.min(axis=0)) / 2
        gain = soma_response(circuit.params)[0]
        assert np.median(amp / (gain * np.abs(z))) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("kind, seed", CASES)
    def test_spike_phase_is_the_lagged_rising_edge(self, kind, seed):
        net, circuit, image, z = self.case(kind, seed)
        gain, lag = soma_response(circuit.params)
        x = encode_batch(net, image[None])
        for frac in (0.05, 0.3, 0.8):
            theta_eff = frac * np.median(np.abs(z))
            result = run(circuit, [(image, self.N_CYCLES)], v_threshold=gain * theta_eff)
            phases = raster_phases(result.raster, 1, z.size, self.N_CYCLES - 1)
            spiking, active = ~np.isnan(phases), np.abs(z) > theta_eff
            near = np.abs(np.abs(z) / theta_eff - 1) < 0.1
            assert np.array_equal(spiking[~near], active[~near])
            model = steady_state(net, x, gain * theta_eff, circuit.params)[0].reshape(-1)
            np.testing.assert_array_equal(model != 0, active)
            both = spiking & active
            residual = np.angle(np.exp(1j * phases[both]) * np.conj(model[both]))
            assert abs(residual.mean()) < 0.03 and np.abs(residual).mean() < 0.05


class TestEndToEnd:
    def _phasor_prediction(self, net, image):
        return forward(net, encode_batch(net, np.asarray(image)[None])[0])

    def test_circuit_agrees_with_phasor_network(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        agree = 0
        for image in images:
            result = run(circuit, [(image, 15)], v_threshold=thr)
            got = decode_output(result.raster, 10, len(net.layers), now=150.0)
            want = predict(self._phasor_prediction(net, image).output)
            agree += got == want
        assert agree >= len(images) - 1

    def test_settles_within_ten_cycles(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        locked = 0
        for image in images:
            result = run(circuit, [(image, 15)], v_threshold=thr)
            times = np.arange(10, 16) * 10.0
            decoded = decode_over_time(result.raster, 10, len(net.layers), times)
            final = decoded[-1]
            locked += final >= 0 and np.all(decoded == final)
        assert locked >= len(images) - 1

    def test_output_phases_match_up_to_global_offset(self, calibrated):
        # threshold crossings add a common phase offset per layer; the class
        # code lives in phase differences, so compare after removing it
        net, circuit, images, thr, _ = calibrated
        result = run(circuit, [(images[0], 15)], v_threshold=thr)
        got = decode_reference.output_spike_phases(result.raster, 10, len(net.layers),
                                                   now=150.0)
        trace = self._phasor_prediction(net, images[0])
        want = np.angle(trace.output)
        ok = np.isfinite(got) & trace.masks[-1]
        assert ok.sum() >= 2
        offset = np.angle(np.mean(np.exp(1j * (got[ok] - want[ok]))))
        residual = np.angle(np.exp(1j * (got[ok] - want[ok] - offset)))
        assert np.max(np.abs(residual)) < 0.3

    def test_pipelined_stimuli_switch(self, calibrated):
        # two inputs of different phasor classes back to back: late decoding
        # follows the second
        net, circuit, images, thr, _ = calibrated
        classes = [predict(self._phasor_prediction(net, image).output) for image in images]
        second = next(k for k, c in enumerate(classes) if c != classes[0])
        pair = (images[0], images[second])
        preds = []
        for image in pair:
            r = run(circuit, [(image, 15)], v_threshold=thr)
            preds.append(decode_output(r.raster, 10, len(net.layers), now=150.0))
        assert preds[0] != preds[1]
        r = run(circuit, [(pair[0], 15), (pair[1], 15)], v_threshold=thr)
        late = decode_output(r.raster, 10, len(net.layers), now=300.0)
        assert late == preds[1]
