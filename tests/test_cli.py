import json
import os
import struct

import numpy as np
import pytest

from phasornet.cli import main


def write_idx(tmp_dir, stem, images, labels):
    n, h, w = images.shape
    with open(os.path.join(tmp_dir, f"{stem[0]}-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    with open(os.path.join(tmp_dir, f"{stem[1]}-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.astype(np.uint8).tobytes())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny MNIST-shaped dataset (8x8) plus one trained model."""
    root = tmp_path_factory.mktemp("cli")
    mnist_dir = root / "data" / "mnist"
    mnist_dir.mkdir(parents=True)
    rng = np.random.default_rng(0)
    protos = rng.integers(30, 220, (10, 8, 8))

    def sample(n, seed):
        r = np.random.default_rng(seed)
        labels = r.integers(0, 10, n)
        images = protos[labels] + r.integers(-25, 26, (n, 8, 8))
        return np.clip(images, 0, 255).astype(np.uint8), labels.astype(np.uint8)

    write_idx(mnist_dir, ("train", "train"), *sample(40, 1))
    write_idx(mnist_dir, ("t10k", "t10k"), *sample(16, 2))

    out = root / "run"
    rc = main(["train", "--data-dir", str(root / "data"), "--out-dir", str(out),
               "--epochs", "2", "--batch-size", "8", "--seed", "3"])
    assert rc == 0
    return root, out


class TestTrain:
    def test_outputs(self, workdir):
        root, out = workdir
        assert (out / "model.phzn").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_err,test_err,loss"
        assert len(lines) == 3  # header + 2 epochs
        manifest = json.loads((out / "train_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        assert manifest["seed"] == 3

    def test_zero_epochs_writes_initial_model(self, workdir, tmp_path, capsys):
        root, _ = workdir
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--epochs", "0"])
        assert rc == 0
        assert "initial model" in capsys.readouterr().out
        assert (tmp_path / "model.phzn").exists()

    def test_limit_train_flag(self, workdir, tmp_path):
        root, _ = workdir
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--epochs", "1",
                   "--batch-size", "8", "--limit-train", "10"])
        assert rc == 0

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        root, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 99, "batch_size": 8}))
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg),
                   "--epochs", "0"])
        assert rc == 0
        manifest = json.loads((tmp_path / "train_manifest.json").read_text())
        assert manifest["config"]["epochs"] == 0  # flag beats config file
        assert manifest["config"]["batch_size"] == 8

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path):
        root, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1


class TestEval:
    def test_eval_report(self, workdir, tmp_path, capsys):
        root, out = workdir
        rc = main(["eval", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["n"] == 16
        assert 0.0 <= report["error_rate"] <= 1.0
        assert "error rate" in capsys.readouterr().out

    def test_untrained_model_near_chance(self, workdir, tmp_path):
        root, _ = workdir
        mdir = tmp_path / "m"
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(mdir), "--epochs", "0"])
        assert rc == 0
        rc = main(["eval", str(mdir / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["error_rate"] >= 0.5


class TestSpikes:
    def test_ideal_backend(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--backend", "ideal", "--example", "1"])
        assert rc == 0
        lines = (tmp_path / "raster_ideal.csv").read_text().splitlines()
        assert lines[0] == "layer,neuron,time_ms"
        assert len(lines) > 1

    def test_ideal_too_few_cycles_warns_and_bumps(self, workdir, tmp_path, capsys):
        root, out = workdir
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--backend", "ideal", "--n-cycles", "2"])
        assert rc == 0
        assert "never fires" in capsys.readouterr().err

    def test_simulate_circuit(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["simulate", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--v-threshold", "0.02", "--n-cycles", "6",
                   "--record-output-unit", "0"])
        assert rc == 0
        assert (tmp_path / "raster_circuit.csv").exists()
        decoded = (tmp_path / "decoded_class.csv").read_text().splitlines()
        assert decoded[0] == "time_ms,predicted_class"
        assert len(decoded) > 1
        volts = (tmp_path / "voltage_trace.csv").read_text().splitlines()
        assert volts[0] == "time_ms,V_m_mV"
        assert len(volts) > 100

    def test_example_out_of_range(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--example", "999"])
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [
        ("--second-example", "-1"), ("--second-example", "16"),
        ("--record-output-unit", "10"), ("--record-output-unit", "-1")])
    def test_index_flags_out_of_range(self, workdir, tmp_path, capsys, flag, value):
        root, out = workdir
        rc = main(["simulate", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--v-threshold", "0.02", "--n-cycles", "2", flag, value])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err


class TestPlot:
    def test_metrics_plot(self, workdir, tmp_path):
        root, out = workdir
        svg = tmp_path / "metrics.svg"
        rc = main(["plot", str(out / "metrics.csv"), "-o", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    def test_raster_plot(self, workdir, tmp_path):
        root, out = workdir
        rdir = tmp_path / "r"
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(rdir),
                   "--backend", "ideal"])
        assert rc == 0
        svg = tmp_path / "raster.svg"
        rc = main(["plot", str(rdir / "raster_ideal.csv"), "-o", str(svg)])
        assert rc == 0
        assert "<svg" in svg.read_text()

    def test_empty_csv_warns(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("epoch,train_err,test_err,loss\n")
        rc = main(["plot", str(csv)])
        assert rc == 0
        assert "empty" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_dataset_is_2(self, tmp_path):
        rc = main(["train", "--data-dir", str(tmp_path / "nowhere"),
                   "--out-dir", str(tmp_path), "--epochs", "1"])
        assert rc == 2

    def test_corrupt_model_is_2(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "bad.phzn"
        bad.write_bytes(b"not a model file")
        rc = main(["eval", str(bad), "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_bad_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 1

    def test_bad_flag_value_is_usage_error(self, workdir, tmp_path):
        root, _ = workdir
        with pytest.raises(SystemExit) as e:
            main(["train", "--data-dir", str(root / "data"),
                  "--out-dir", str(tmp_path), "--epochs", "three"])
        assert e.value.code == 1

    def test_removed_threads_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["train", "--threads", "2", "--out-dir", str(tmp_path)])
        assert e.value.code == 1
