import numpy as np
import pytest

from phasornet.circuit import (
    CircuitParams,
    build_circuit,
    calibrate_threshold,
    decode_output,
    decode_over_time,
    observe_amplitude,
    output_spike_phases,
    run,
    stimulus_phase_offsets,
)
from phasornet._circuit_kernels import GRID_EPS, synapse_modes
from phasornet.errors import NumericError, ValidationError
from phasornet.phasor_net import (
    LayerSpec,
    PhasorNetwork,
    apply_input_phase_shift,
    encode_input,
    forward,
    predict,
)
from phasornet.spikemap import SpikeRaster, synapse_delay

import decode_reference
import euler_reference


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
        assert p.inv_tau_s == 0.0

    def test_resonance_tracks_period(self):
        p = CircuitParams(period=25.0)
        assert p.omega == pytest.approx(2 * np.pi / 25.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CircuitParams(dt=0.0)
        with pytest.raises(ValidationError):
            CircuitParams(dt=0.2)  # period/dt = 50 < 100
        with pytest.raises(ValidationError):
            CircuitParams(tau_s=-1.0)


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
        net = tiny_net(seed=4)
        circuit = build_circuit(net)
        assert circuit.syn_ptr[0] == 0
        assert circuit.syn_ptr[-1] == circuit.n_synapses
        assert np.all(np.diff(circuit.syn_ptr) >= 0)
        for ni in range(circuit.n_neurons):
            lo, hi = circuit.syn_ptr[ni], circuit.syn_ptr[ni + 1]
            assert np.all(circuit.syn_owner[lo:hi] == ni)
        assert circuit.out_ptr[-1] == circuit.n_synapses

    def test_stimulus_offsets(self):
        net = tiny_net(seed=5)
        circuit = build_circuit(net)
        offsets = stimulus_phase_offsets(circuit, tiny_images(1)[0])
        assert offsets.shape == (17,)
        assert offsets[-1] == 0.0  # reference generator fires at cycle start
        assert np.all(offsets >= 0.0) and np.all(offsets < 10.0)


class TestSynapseResonance:
    def _trace(self, dt, n_cycles=2):
        """Single synapse kicked once at t = 0: its voltage after each step,
        evaluated through the kernel's closed form sum_j c_j lam_j^n."""
        p = CircuitParams(dt=dt)
        lam, c = synapse_modes(p)
        n_steps = int(round(n_cycles * p.period / dt))
        ages = np.arange(1, n_steps + 1)[:, None]
        return p, (c * lam ** ages).sum(axis=1).real

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

    def test_halving_dt_tightens_amplitude(self):
        want = CircuitParams().w_spike / (CircuitParams().c_m * CircuitParams().omega)
        _, coarse = self._trace(dt=0.025, n_cycles=1)
        _, fine = self._trace(dt=0.0125, n_cycles=1)
        err_coarse = abs(np.abs(coarse[:200]).max() - want)
        err_fine = abs(np.abs(fine[:400]).max() - want)
        assert err_fine < err_coarse

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

    def test_generator_volley_in_raster(self):
        net = tiny_net(seed=6)
        circuit = build_circuit(net)
        result = run(circuit, [(tiny_images(1)[0], 3)], v_threshold=1e30)
        gen = result.raster.time[result.raster.layer == 0]
        assert gen.size == 16 * 3  # every input unit, every cycle
        assert np.all(gen < result.total_time)

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
        assert result.trace_vm.shape == (int(round(5 * 10.0 / 0.025)), 1)
        assert np.all(np.isfinite(result.trace_vm))
        assert result.trace_times[0] == pytest.approx(0.025)

    def test_blowup_raises_numeric_error(self):
        # an absurdly fast resonator makes forward Euler diverge
        net = tiny_net(seed=7)
        params = CircuitParams(l_res=1e-12)
        circuit = build_circuit(net, params)
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


class TestKernelMatchesEulerReference:
    """The closed-form kernel against the explicit Euler + heap loop."""

    def _check(self, net, circuit, stimuli, v_threshold):
        result = run(circuit, stimuli, v_threshold=v_threshold)
        want, want_vm_max = euler_reference.run(circuit, stimuli, v_threshold)
        soma = result.raster.layer > 0
        assert want.time.size > 0, "no soma spiked; the case checks nothing"
        np.testing.assert_array_equal(result.raster.layer[soma], want.layer)
        np.testing.assert_array_equal(result.raster.neuron[soma], want.neuron)
        np.testing.assert_allclose(result.raster.time[soma], want.time, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.vm_max, want_vm_max, rtol=0, atol=1e-12)
        depth = len(net.layers)
        got_class = decode_output(result.raster, circuit.n_outputs, depth,
                                  now=result.total_time)
        assert got_class is not None
        assert got_class == decode_output(want, circuit.n_outputs, depth,
                                          now=result.total_time)

    def test_dense_tiny_net(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        self._check(net, circuit, [(images[0], 6)], thr)

    def test_two_segment_stimulus(self, calibrated):
        net, circuit, images, thr, _ = calibrated
        self._check(net, circuit, [(images[0], 4), (images[1], 4)], thr)

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

    @pytest.mark.parametrize("tau_s", [20.0, 0.5], ids=["underdamped", "overdamped"])
    def test_damped_synapses(self, tau_s):
        net = tiny_net(seed=0)
        net.biases[0][:3] = 0.5 + 0.5j
        circuit = build_circuit(net, CircuitParams(tau_s=tau_s))
        lam, _ = synapse_modes(circuit.params)
        assert np.all(lam.imag == 0) == (tau_s == 0.5)
        image = tiny_images(1)[0]
        thr = 0.1 * observe_amplitude(circuit, image, n_cycles=4)
        self._check(net, circuit, [(image, 6)], thr)

    def test_critically_damped_synapse_is_rejected(self):
        # dt/tau_s = 2 dt / sqrt(L C_m), exact in binary: one repeated eigenvalue
        p = CircuitParams(dt=2.0 ** -6, c_m=8.0, l_res=0.5, tau_s=1.0)
        with pytest.raises(ValidationError, match="critically damped"):
            synapse_modes(p)


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
        # unit 0 spikes before any other unit: only the later distance exists
        spikes = [(0, 1.0), (1, 9.0), (1, 19.0), (0, 11.0)]
        got = decode_output(make_raster(spikes), 2, 1, now=20.0)
        assert got in (0, 1)  # well-defined, no crash on one-sided spikes

    def test_decode_over_time_starts_unknown(self):
        spikes = [(0, 12.0), (1, 15.0)]
        out = decode_over_time(make_raster(spikes), 2, 1, times=[5.0, 20.0])
        assert out[0] == -1
        assert out[1] in (0, 1)

    def test_output_spike_phases(self):
        spikes = [(0, 5.0), (0, 15.0), (1, 0.0), (1, 10.0)]
        phases = output_spike_phases(make_raster(spikes), 3, 1, now=20.0)
        assert phases[0] == pytest.approx(np.pi)
        assert abs(phases[1]) < 1e-9
        assert np.isnan(phases[2])


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
    """The searchsorted decoder against the per-spike loop it replaced."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_rasters(self, seed):
        raster = random_output_raster(seed)
        times = np.arange(-5.0, 70.0, 0.5)  # empty windows first, then every state
        for window in (1, 3):
            want = decode_reference.decode_over_time(raster, 6, 2, times, window)
            got = decode_over_time(raster, 6, 2, times, window)
            np.testing.assert_array_equal(got, want)
            for now in times[::5]:
                assert (decode_output(raster, 6, 2, now, window)
                        == decode_reference.decode_output(raster, 6, 2, now, window))

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


class TestCalibration:
    def test_threshold_in_scan_range(self, calibrated):
        net, circuit, images, thr, agree = calibrated
        amp = observe_amplitude(circuit, images[0])
        assert 0.03 * amp * (1 - 1e-9) <= thr <= 0.3 * amp * (1 + 1e-9)
        assert net.v_threshold == thr
        assert circuit.params.v_threshold == thr
        assert 0.0 <= agree <= 1.0

    def test_observe_amplitude_positive(self, calibrated):
        net, circuit, images, _, _ = calibrated
        amp = observe_amplitude(circuit, images[0])
        assert amp > 0.0


class TestEndToEnd:
    def _phasor_prediction(self, net, image):
        x = encode_input(np.asarray(image).reshape(net.input_shape))
        x = apply_input_phase_shift(x, net.phase_shifts)
        return forward(net, x)

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
        got = output_spike_phases(result.raster, 10, len(net.layers), now=150.0)
        trace = self._phasor_prediction(net, images[0])
        want = np.angle(trace.output)
        ok = np.isfinite(got) & trace.masks[-1]
        assert ok.sum() >= 2
        offset = np.angle(np.mean(np.exp(1j * (got[ok] - want[ok]))))
        residual = np.angle(np.exp(1j * (got[ok] - want[ok] - offset)))
        assert np.max(np.abs(residual)) < 0.3

    def test_pipelined_stimuli_switch(self, calibrated):
        # two different inputs back to back: late decoding follows the second
        net, circuit, images, thr, _ = calibrated
        preds = []
        for image in images[:2]:
            r = run(circuit, [(image, 15)], v_threshold=thr)
            preds.append(decode_output(r.raster, 10, len(net.layers), now=150.0))
        if preds[0] == preds[1]:
            pytest.skip("both stimuli decode to the same class; switch invisible")
        r = run(circuit, [(images[0], 15), (images[1], 15)], v_threshold=thr)
        late = decode_output(r.raster, 10, len(net.layers), now=300.0)
        assert late == preds[1]
