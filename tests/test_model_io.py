import json
import os
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_fc_net
from phasornet.cli import main
from phasornet.errors import DataFormatError, ValidationError
from phasornet.model_io import MAGIC, load_model, save_model
from phasornet.optim import Adam
from phasornet.phasor_net import LayerSpec, PhasorNetwork, forward
from phasornet.training import encode_batch


def conv_net(seed=0, dtype=np.complex64):
    specs = [
        LayerSpec("conv3x3", in_channels=1, out_channels=3),
        LayerSpec("conv3x3", in_channels=3, out_channels=2),
        LayerSpec("dense", fan_in=2 * 4 * 4, fan_out=5),
    ]
    return PhasorNetwork.create((1, 8, 8), specs, seed=seed, dtype=dtype)


@st.composite
def networks(draw):
    """A random valid dense/conv chain, its parameters, dtype and threshold."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 3)), draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    else:
        shape = (draw(st.integers(1, 12)),)
    specs, cur = [], shape
    for _ in range(draw(st.integers(1, 4))):
        theta = draw(st.floats(0.0, 2.0))
        if len(cur) == 3 and min(cur[1:]) >= 3 and draw(st.booleans()):
            k = draw(st.integers(1, 3))
            specs.append(LayerSpec("conv3x3", in_channels=cur[0], out_channels=k, theta=theta))
            cur = (k, cur[1] - 2, cur[2] - 2)
        else:
            n = draw(st.integers(1, 8))
            specs.append(LayerSpec("dense", fan_in=int(np.prod(cur)), fan_out=n, theta=theta))
            cur = (n,)
    net = PhasorNetwork.create(
        shape, specs, seed=draw(st.integers(0, 2 ** 32 - 1)),
        dtype=draw(st.sampled_from([np.complex64, np.complex128])),
        use_phase_shifts=draw(st.booleans()))
    net.v_threshold = draw(st.none() | st.floats(min_value=0.0, exclude_min=True,
                                                  allow_infinity=False))
    return net


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(net=networks(), with_optimizer=st.booleans())
    def test_save_load_save_byte_exact(self, net, with_optimizer):
        opt = None
        if with_optimizer:
            rng = np.random.default_rng(0)
            opt = Adam(net.parameters())
            opt.step(net.parameters(),
                     [rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)
                      for p in net.parameters()])
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = os.path.join(d, "a.phzn"), os.path.join(d, "b.phzn")
            save_model(net, p1, optimizer=opt)
            back, state = load_model(p1, with_optimizer=True)
            assert (state is not None) == with_optimizer
            # save_model reads only the state's t, m and v
            opt2 = None if state is None else types.SimpleNamespace(**state)
            save_model(back, p2, optimizer=opt2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()

    def test_dense_round_trip_exact(self, tmp_path):
        net = small_fc_net(seed=11)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        back = load_model(path)
        assert back.input_shape == net.input_shape
        assert back.dtype == net.dtype
        np.testing.assert_array_equal(back.phase_shifts, net.phase_shifts)
        for wa, wb in zip(net.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(net.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_conv_round_trip_exact(self, tmp_path):
        net = conv_net(seed=2)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        back = load_model(path)
        assert [s.kind for s in back.layers] == [s.kind for s in net.layers]
        for wa, wb in zip(net.weights, back.weights):
            assert wa.shape == wb.shape
            np.testing.assert_array_equal(wa, wb)

    def test_complex128_round_trip(self, tmp_path):
        net = small_fc_net(seed=3, dtype=np.complex128)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        back = load_model(path)
        assert back.dtype == np.complex128
        np.testing.assert_array_equal(back.weights[0], net.weights[0])

    @pytest.mark.skipif(np.dtype(np.clongdouble).itemsize <= 16,
                        reason="long double is double on this platform")
    def test_unsupported_dtype_is_refused(self, tmp_path):
        """A dtype the format has no wire type for is refused before any
        byte is written, not saved as complex64 under its own name."""
        net = small_fc_net(seed=3, dtype=np.clongdouble)
        path = tmp_path / "m.phzn"
        with pytest.raises(ValidationError, match="cannot save complex"):
            save_model(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("v_threshold", [-0.5, 0, float("nan"), float("inf"), True])
    def test_unloadable_threshold_is_refused(self, tmp_path, v_threshold):
        """A threshold load_model would reject is refused before any byte
        is written."""
        net = small_fc_net(seed=3)
        net.v_threshold = v_threshold
        path = tmp_path / "m.phzn"
        with pytest.raises(ValidationError, match="v_threshold must be finite and positive"):
            save_model(net, path)
        assert not path.exists()

    def test_threshold_round_trips(self, tmp_path):
        net = small_fc_net(seed=3)
        net.v_threshold = 0.5
        path = tmp_path / "m.phzn"
        save_model(net, path)
        assert load_model(path).v_threshold == 0.5

    def test_save_load_save_is_byte_identical(self, tmp_path):
        net = small_fc_net(seed=4)
        p1, p2 = tmp_path / "a.phzn", tmp_path / "b.phzn"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_predictions_after_reload(self, tmp_path):
        net = small_fc_net(seed=5)
        rng = np.random.default_rng(0)
        x = encode_batch(net, rng.uniform(size=(8, 64)).astype(np.float32))
        path = tmp_path / "m.phzn"
        save_model(net, path)
        back = load_model(path)
        np.testing.assert_array_equal(forward(net, x).output, forward(back, x).output)


class TestOptimizerState:
    def test_no_state_returns_none(self, tmp_path):
        net = small_fc_net(seed=7)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        _, state = load_model(path, with_optimizer=True)
        assert state is None


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.phzn"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(DataFormatError, match="magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = small_fc_net(seed=8)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = np.uint32(99).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version 99"):
            load_model(path)

    def test_version_1_file_loads(self, tmp_path):
        """Version 1 headers also held a phase_shift_seed that nothing read;
        such a file loads like the version 2 file it is made from."""
        net = small_fc_net(seed=8, dtype=np.complex128)
        opt = Adam(net.parameters())
        opt.step(net.parameters(), [np.ones_like(p) for p in net.parameters()])
        path = tmp_path / "m.phzn"
        save_model(net, path, optimizer=opt)
        raw = path.read_bytes()
        assert int(np.frombuffer(raw[4:8], "<u4")[0]) == 2
        hlen = int(np.frombuffer(raw[8:12], "<u4")[0])
        header = json.loads(raw[12:12 + hlen])
        assert "phase_shift_seed" not in header
        header = json.dumps({**header, "phase_shift_seed": 8}, sort_keys=True,
                            separators=(",", ":")).encode()
        old = tmp_path / "v1.phzn"
        old.write_bytes(raw[:4] + np.uint32(1).tobytes() + np.uint32(len(header)).tobytes()
                        + header + raw[12 + hlen:])
        (a, state_a), (b, state_b) = (load_model(p, with_optimizer=True) for p in (path, old))
        for x, y in zip(a.parameters() + [a.phase_shifts] + state_a["m"] + state_a["v"],
                        b.parameters() + [b.phase_shifts] + state_b["m"] + state_b["v"]):
            assert np.array_equal(x, y)
        assert state_a["t"] == state_b["t"] == 1

    def test_truncated_payload(self, tmp_path):
        net = small_fc_net(seed=9)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(DataFormatError, match="ended inside"):
            load_model(path)

    @pytest.mark.parametrize("shift", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_phase_shift(self, tmp_path, capsys, shift):
        """A non-finite phase shift is a data error at its offset, and exit
        code 2 from the CLI."""
        path = tmp_path / "m.phzn"
        save_model(small_fc_net(seed=13), path)
        raw = path.read_bytes()
        at = 12 + int(np.frombuffer(raw[8:12], "<u4")[0]) + 8 * 5  # input 5's shift
        path.write_bytes(raw[:at] + np.float64(shift).tobytes() + raw[at + 8:])
        with pytest.raises(DataFormatError, match="phase shift .* of input 5 is not finite") as e:
            load_model(path)
        assert e.value.offset == at
        assert main(["eval", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    def test_trailing_garbage(self, tmp_path):
        net = small_fc_net(seed=10)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: b"{not json",
        lambda h: b"\xff\xfe\x00",
        lambda h: b"[1, 2]",
        lambda h: {k: v for k, v in h.items() if k != "dtype"},
        lambda h: {**h, "input_shape": [-4]},
        lambda h: {**h, "layers": [{**h["layers"][0], "kind": "pool"}] + h["layers"][1:]},
        lambda h: {**h, "layers": [{**h["layers"][0], "fan_in": 63}] + h["layers"][1:]},
        lambda h: {**h, "layers": [{**h["layers"][0], "fan_in": 64.0}] + h["layers"][1:]},
        lambda h: {**h, "layers": []},
        lambda h: {**h, "v_threshold": "0.01"},
        lambda h: {**h, "v_threshold": True},
        lambda h: {**h, "v_threshold": float("nan")},
        lambda h: {**h, "v_threshold": float("inf")},
        lambda h: {**h, "v_threshold": 0.0},
        lambda h: {**h, "v_threshold": -0.02},
        lambda h: {**h, "v_threshold": -1},
        lambda h: {**h, "has_optimizer_state": "no"},
        lambda h: {k: v for k, v in h.items() if k != "has_optimizer_state"},
    ], ids=["not_json", "not_utf8", "not_object", "no_dtype", "negative_input",
            "unknown_kind", "inconsistent_fan_in", "float_fan_in", "no_layers",
            "string_threshold", "bool_threshold", "nan_threshold", "inf_threshold",
            "zero_threshold", "negative_threshold", "negative_int_threshold",
            "string_optimizer_flag", "no_optimizer_flag"])
    def test_malformed_header(self, tmp_path, capsys, edit):
        """A header that cannot be interpreted is a data error at its offset,
        and exit code 2 from the CLI, before any payload is read."""
        net = small_fc_net(seed=12)
        path = tmp_path / "m.phzn"
        save_model(net, path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[8:12], "<u4")[0])
        header = edit(json.loads(raw[12:12 + hlen]))
        if not isinstance(header, bytes):
            header = json.dumps(header).encode()
        path.write_bytes(raw[:8] + np.uint32(len(header)).tobytes() + header
                         + raw[12 + hlen:])
        with pytest.raises(DataFormatError, match="malformed header") as e:
            load_model(path)
        assert e.value.offset == 12
        assert main(["eval", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    def test_magic_constant(self):
        assert MAGIC == b"PHZN"
