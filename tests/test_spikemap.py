import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decode_reference
from conftest import small_fc_net
from phasornet.errors import DataFormatError, ValidationError
from phasornet.phasor_net import (
    apply_input_phase_shift,
    encode_input,
    forward,
    predict,
    predict_batch,
)
from phasornet.spikemap import (
    SpikeRaster,
    phase_to_time,
    raster_phases,
    read_raster_csv,
    synapse_delay,
    time_to_phase,
    unroll,
    write_raster_csv,
)


class TestPhaseTimeMaps:
    def test_known_points(self):
        assert phase_to_time(0.0, 10.0) == 0.0
        assert phase_to_time(np.pi, 10.0) == pytest.approx(5.0)
        assert phase_to_time(3 * np.pi / 2, 10.0) == pytest.approx(7.5)

    def test_negative_phase_wraps(self):
        # -pi/2 is the same angle as 3pi/2
        assert phase_to_time(-np.pi / 2, 10.0) == pytest.approx(7.5)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, 2 * np.pi, 300)
        back = time_to_phase(phase_to_time(theta, 7.3), 7.3)
        np.testing.assert_allclose(back, theta, rtol=1e-12, atol=1e-12)

    def test_time_round_trip_mod_period(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 50, 200)
        back = phase_to_time(time_to_phase(t, 10.0), 10.0)
        np.testing.assert_allclose(back, t % 10.0, atol=1e-10)

    def test_bad_period(self):
        with pytest.raises(ValidationError):
            phase_to_time(1.0, 0.0)
        with pytest.raises(ValidationError):
            time_to_phase(1.0, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(1e-6, 1e6))  # normal periods: a subnormal t loses digits
    def test_phase_time_phase_is_theta_mod_two_pi(self, theta, period):
        back = time_to_phase(phase_to_time(theta, period), period)
        d = (back - np.float64(theta) % (2 * np.pi)) % (2 * np.pi)
        assert min(d, 2 * np.pi - d) <= 1e-12  # circular: 2pi - eps may come back as 0


class TestPredictProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0.01, 100.0),
                              st.floats(-np.pi, np.pi)), min_size=1, max_size=12),
           st.floats(-10.0, 10.0))
    def test_common_rotation_keeps_the_class(self, units, angle):
        outputs = np.array([on * mag * np.exp(1j * th) for on, mag, th in units])
        scores = sorted(decode_reference.phasor_scores(outputs.tolist()))
        if len(scores) >= 2 and scores[-1] - scores[-2] <= 1e-9:
            return  # a near-tie may break either way after rounding
        rotated = outputs * np.exp(1j * angle)
        np.testing.assert_array_equal(predict_batch(rotated[None]), predict_batch(outputs[None]))


class TestSynapseDelay:
    def test_positive_imaginary_weight(self):
        # W = 2i: magnitude 2, phase pi/2 -> quarter period
        mag, delay = synapse_delay(2j, 10.0)
        assert mag == pytest.approx(2.0)
        assert delay == pytest.approx(2.5)

    def test_negative_real_weight(self):
        # W = -1: magnitude 1, phase pi -> half period
        mag, delay = synapse_delay(-1.0 + 0j, 10.0)
        assert mag == pytest.approx(1.0)
        assert delay == pytest.approx(5.0)

    def test_delay_in_range(self):
        rng = np.random.default_rng(2)
        for w in rng.normal(size=100) + 1j * rng.normal(size=100):
            _, delay = synapse_delay(w, 10.0)
            assert 0.0 <= delay < 10.0


class TestUnroll:
    def _raster(self, net, p, period=10.0, n_cycles=6):
        x = apply_input_phase_shift(encode_input(p), net.phase_shifts).astype(net.dtype)
        return unroll(net, x, period, n_cycles), x

    def test_too_few_cycles(self):
        net = small_fc_net()
        p = np.full(64, 0.5, dtype=np.float32)
        x = encode_input(p).astype(net.dtype)
        with pytest.raises(ValidationError):
            unroll(net, x, 10.0, len(net.layers))

    def test_layer_staggering(self):
        net = small_fc_net(seed=1)
        rng = np.random.default_rng(3)
        raster, _ = self._raster(net, rng.uniform(size=64).astype(np.float32))
        assert np.all(raster.time >= raster.layer * raster.period - 1e-9)
        assert np.all(raster.time < raster.n_cycles * raster.period)

    def test_periodicity(self):
        # each active unit spikes once per cycle after its first appearance
        net = small_fc_net(seed=2)
        rng = np.random.default_rng(4)
        raster, _ = self._raster(net, rng.uniform(size=64).astype(np.float32))
        units = np.unique(np.stack([raster.layer, raster.neuron], axis=1), axis=0)
        for layer, neuron in units:
            times = raster.time[(raster.layer == layer) & (raster.neuron == neuron)]
            assert times.size == raster.n_cycles - layer
            gaps = np.diff(times)
            np.testing.assert_allclose(gaps, raster.period, rtol=1e-12)

    def test_phases_recoverable_per_cycle(self):
        net = small_fc_net(seed=3)
        rng = np.random.default_rng(5)
        raster, x = self._raster(net, rng.uniform(size=64).astype(np.float32))
        trace = forward(net, x)
        out_phase = np.angle(trace.output)
        got = raster_phases(raster, len(net.layers), net.n_outputs,
                            cycle=raster.n_cycles - 1)
        active = trace.masks[-1]
        assert np.all(np.isfinite(got[active]))
        assert np.all(np.isnan(got[~active]))
        diff = np.angle(np.exp(1j * (got[active] - out_phase[active] % (2 * np.pi))))
        np.testing.assert_allclose(diff, 0.0, atol=1e-6)

    def test_round_trip_prediction(self):
        # decode the raster's last cycle back into a class and compare
        net = small_fc_net(seed=4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = rng.uniform(size=64).astype(np.float32)
            raster, x = self._raster(net, p)
            trace = forward(net, x)
            phases = raster_phases(raster, len(net.layers), net.n_outputs,
                                   cycle=raster.n_cycles - 1)
            units = np.where(np.isnan(phases), 0.0, np.exp(1j * phases))
            assert predict(units.astype(np.complex128)) == predict(trace.output)


class TestRasterCsv:
    def test_write_read_round_trip(self, tmp_path):
        net = small_fc_net(seed=5)
        rng = np.random.default_rng(7)
        p = rng.uniform(size=64).astype(np.float32)
        x = apply_input_phase_shift(encode_input(p), net.phase_shifts).astype(net.dtype)
        raster = unroll(net, x, 10.0, 5)
        path = tmp_path / "raster.csv"
        write_raster_csv(raster, path)
        back = read_raster_csv(path)
        np.testing.assert_array_equal(back.layer, raster.layer)
        np.testing.assert_array_equal(back.neuron, raster.neuron)
        np.testing.assert_allclose(back.time, raster.time, rtol=0, atol=1e-9)

    def test_read_with_period_decodes_as_written(self, tmp_path):
        import dataclasses

        from phasornet.circuit import decode_output, decode_over_time

        net = small_fc_net(seed=5)
        p = np.random.default_rng(8).uniform(size=64).astype(np.float32)
        x = apply_input_phase_shift(encode_input(p), net.phase_shifts).astype(net.dtype)
        raster = unroll(net, x, 10.0, 6)
        path = tmp_path / "raster.csv"
        write_raster_csv(raster, path)
        back = dataclasses.replace(read_raster_csv(path), period=10.0, n_cycles=6)
        depth, now = len(net.layers), 60.0
        want = decode_output(raster, net.n_outputs, depth, now)
        assert want is not None
        assert decode_output(back, net.n_outputs, depth, now) == want
        times = np.arange(1.0, 61.0)
        np.testing.assert_array_equal(decode_over_time(back, net.n_outputs, depth, times),
                                      decode_over_time(raster, net.n_outputs, depth, times))
        assert read_raster_csv(path).period == 0.0  # the file alone holds no period

    def test_header(self, tmp_path):
        raster = SpikeRaster(layer=[], neuron=[], time=[], period=10.0, n_cycles=1)
        path = tmp_path / "r.csv"
        write_raster_csv(raster, path)
        assert path.read_text().splitlines()[0] == "layer,neuron,time_ms"

    def test_exact_bytes(self, tmp_path):
        # csv.writer's \r\n line ends; times to 12 significant digits
        raster = SpikeRaster(layer=[0, 2, 1, 3, 0], neuron=[3, 0, 12, 7, 1000000],
                             time=[0.5, 1.0 / 3.0, 1234.5678901234, 0.0, 1e-5],
                             period=10.0, n_cycles=1)
        path = tmp_path / "r.csv"
        write_raster_csv(raster, path)
        assert path.read_bytes() == (b"layer,neuron,time_ms\r\n0,3,0.5\r\n"
                                     b"2,0,0.333333333333\r\n1,12,1234.56789012\r\n"
                                     b"3,7,0\r\n0,1000000,1e-05\r\n")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_raster_csv(path)

    @pytest.mark.parametrize("row", ["1,7", "1,7,soon"], ids=["short", "non_numeric_time"])
    def test_malformed_row_is_a_data_error(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(f"layer,neuron,time_ms\n0,1,0.5\n{row}\n2,3,4.5\n")
        with pytest.raises(DataFormatError) as err:
            read_raster_csv(path)
        assert err.value.path == path
        assert err.value.offset == 3  # the bad row's line, header is line 1

    def test_header_only_is_an_empty_raster(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("layer,neuron,time_ms\n")
        back = read_raster_csv(path)
        assert back.layer.size == back.neuron.size == back.time.size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 5), st.integers(0, 10 ** 6),
        # 1 + 1e-13 and 1 + 2e-13 both print as 1: ties once written
        st.one_of(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + 2e-13]),
                  st.floats(0.0, 1e4, allow_nan=False))), max_size=40))
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, rows):
        # the rows are stored in the order given, unsorted and with time ties
        layer, neuron, time = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        raster = SpikeRaster(layer, neuron, time, period=10.0, n_cycles=1)
        d = tmp_path_factory.mktemp("csv")
        write_raster_csv(raster, d / "a.csv")
        back = read_raster_csv(d / "a.csv")
        write_raster_csv(back, d / "b.csv")
        assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
        np.testing.assert_array_equal(back.layer, raster.layer)
        np.testing.assert_array_equal(back.neuron, raster.neuron)
