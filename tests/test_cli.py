import argparse
import gzip
import io
import json
import os
import shutil
import struct
import tarfile
import urllib.error

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasornet import cli
from phasornet.cli import main
from phasornet.model_io import load_model


def unreachable(*args, **kwargs):
    raise urllib.error.URLError("network is unreachable")


@pytest.fixture(scope="module", autouse=True)
def no_network():
    """No test here opens the network; a test that fetches fakes it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.urllib.request, "urlopen", unreachable)
        mp.setattr(cli.urllib.request, "urlretrieve", unreachable)
        yield


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
        _, state = load_model(out / "model.phzn", with_optimizer=True)
        assert state is None  # the checkpoint holds the model only

    def test_zero_epochs_writes_initial_model(self, workdir, tmp_path, capsys):
        root, _ = workdir
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--epochs", "0"])
        assert rc == 0
        assert "initial model" in capsys.readouterr().out
        _, state = load_model(tmp_path / "model.phzn", with_optimizer=True)
        assert state is None  # written once, without the untouched optimizer

    def test_limit_train_flag(self, workdir, tmp_path):
        root, _ = workdir
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--epochs", "1",
                   "--batch-size", "8", "--limit-train", "10"])
        assert rc == 0

    def test_config_values_of_flag_types(self, workdir, tmp_path):
        root, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 0, "lr": 1, "theta": 0.0,
                                   "phase_shift": True, "limit_train": None,
                                   "v_threshold": None, "arch": "conv"}))
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg)])
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

    @pytest.mark.parametrize("text", [
        '{"epochs": 2', "[[1]]", '{"epochs": "x"}', '{"lr": "a"}', '{"seed": "s"}',
        '{"seed": true}', '{"phase_shift": 1}', '{"dataset": null}',
    ], ids=["truncated", "not_an_object", "epochs_str", "lr_str", "seed_str",
            "seed_bool", "phase_shift_int", "dataset_null"])
    def test_malformed_config_is_usage_error(self, workdir, tmp_path, capsys, text):
        root, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["train", "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        assert str(cfg) in capsys.readouterr().err


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


    def test_eval_runs_in_the_config_batch_size(self, workdir, tmp_path, monkeypatch):
        root, out = workdir
        seen = []

        def spy(net, ds, batch_size):
            seen.append(batch_size)
            return 0.5

        monkeypatch.setattr(cli, "evaluate", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 5}))
        rc = main(["eval", str(out / "model.phzn"), "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 0
        assert seen == [5]

    def test_eval_batch_size_zero_is_usage_error(self, workdir, tmp_path, capsys):
        root, out = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 0}))
        rc = main(["eval", str(out / "model.phzn"), "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        assert "batch_size must be an integer >= 1" in capsys.readouterr().err


class TestSpikes:
    def test_ideal_backend(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--example", "1"])
        assert rc == 0
        lines = (tmp_path / "raster_ideal.csv").read_text().splitlines()
        assert lines[0] == "layer,neuron,time_ms"
        assert len(lines) > 1

    def test_ideal_too_few_cycles_warns_and_bumps(self, workdir, tmp_path, capsys):
        root, out = workdir
        rc = main(["spikes", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--n-cycles", "2"])
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

    def test_simulate_short_period_steps_a_hundredth_of_it(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["simulate", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--v-threshold", "0.02", "--n-cycles", "3", "--period", "5",
                   "--record-output-unit", "0"])
        assert rc == 0
        volts = (tmp_path / "voltage_trace.csv").read_text().splitlines()[1:]
        times = np.array([float(row.split(",")[0]) for row in volts])
        assert times.size == 300
        np.testing.assert_allclose(np.diff(times), 0.05)

    def test_simulate_calibrates_and_saves_threshold(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["simulate", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--n-cycles", "4"])
        assert rc == 0
        assert load_model(out / "model.phzn").v_threshold is None
        assert load_model(tmp_path / "model_calibrated.phzn").v_threshold > 0.0

    @staticmethod
    def calibration_spy(monkeypatch, agreement=None):
        """Record the images each calibration scores; optionally force its agreement."""
        seen = []

        def spy(net, circuit, images, **kw):
            seen.append(np.stack(images))
            thr, agree = real(net, circuit, images, n_candidates=2, n_cycles=3)
            return thr, agree if agreement is None else agreement

        real = cli.calibrate_threshold
        monkeypatch.setattr(cli, "calibrate_threshold", spy)
        return seen

    def test_calibrates_on_the_example_and_the_next_three(self, workdir, tmp_path,
                                                          monkeypatch):
        root, out = workdir
        seen = self.calibration_spy(monkeypatch)
        rc = main(["simulate", str(out / "model.phzn"), "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--n-cycles", "3", "--example", "14"])
        assert rc == 0
        split = cli._load_split(dict(cli.DEFAULTS, data_dir=str(root / "data")), "test")
        np.testing.assert_array_equal(seen[0], split.images[[14, 15, 0, 1]])

    def test_calibration_is_capped_at_the_split_size(self, workdir, tmp_path, monkeypatch):
        root, out = workdir
        small = tmp_path / "data" / "mnist"
        small.mkdir(parents=True)
        for name in os.listdir(root / "data" / "mnist"):
            os.symlink(root / "data" / "mnist" / name, small / name)
        os.remove(small / "t10k-images-idx3-ubyte")
        os.remove(small / "t10k-labels-idx1-ubyte")
        rng = np.random.default_rng(5)
        write_idx(small, ("t10k", "t10k"), rng.integers(0, 256, (2, 8, 8)), np.array([0, 1]))
        seen = self.calibration_spy(monkeypatch)
        rc = main(["simulate", str(out / "model.phzn"), "--data-dir", str(tmp_path / "data"),
                   "--out-dir", str(tmp_path / "run"), "--n-cycles", "3", "--example", "1"])
        assert rc == 0
        assert len(seen[0]) == 2

    def test_zero_agreement_warns(self, workdir, tmp_path, monkeypatch, capsys):
        root, out = workdir
        self.calibration_spy(monkeypatch, agreement=0.0)
        rc = main(["simulate", str(out / "model.phzn"), "--data-dir", str(root / "data"),
                   "--out-dir", str(tmp_path), "--n-cycles", "3"])
        assert rc == 0
        assert "warning: no threshold candidate" in capsys.readouterr().err

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
                   "--data-dir", str(root / "data"), "--out-dir", str(rdir)])
        assert rc == 0
        svg = tmp_path / "raster.svg"
        rc = main(["plot", str(rdir / "raster_ideal.csv"), "-o", str(svg)])
        assert rc == 0
        assert "<svg" in svg.read_text()

    def test_every_simulate_csv_plots(self, workdir, tmp_path):
        root, out = workdir
        rc = main(["simulate", str(out / "model.phzn"),
                   "--data-dir", str(root / "data"), "--out-dir", str(tmp_path),
                   "--v-threshold", "0.02", "--n-cycles", "6",
                   "--record-output-unit", "0"])
        assert rc == 0
        for name, mark in [("raster_circuit", "<circle"),
                           ("decoded_class", ">predicted_class</text>"),
                           ("voltage_trace", ">V_m_mV</text>")]:
            svg = tmp_path / f"{name}.svg"
            assert main(["plot", str(tmp_path / f"{name}.csv"), "-o", str(svg)]) == 0
            assert mark in svg.read_text()
        assert ">time_ms</text>" in (tmp_path / "voltage_trace.svg").read_text()

    def test_nan_points_are_dropped(self, tmp_path):
        csv = tmp_path / "cols.csv"
        csv.write_text("x,a,b\n0,1,nan\n1,2,3\n2,nan,4\n")
        assert main(["plot", str(csv)]) == 0
        svg = (tmp_path / "cols.svg").read_text()
        lines = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
        assert [ln.split('"')[1].count(",") for ln in lines] == [2, 2]
        assert "nan" not in svg

    @pytest.mark.parametrize("text", ["x\n1\n", "x,y\n1,abc\n"], ids=["one_column", "non_numeric"])
    def test_unplottable_csv_is_a_data_error(self, tmp_path, text):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        assert main(["plot", str(csv)]) == 2

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


def _model_cmd(cmd, *extra):
    return [cmd, "{model}", "--data-dir", "{data}", "--out-dir", "{out}", *extra]


def _train(*extra):
    return ["train", "--data-dir", "{data}", "--out-dir", "{out}", "--epochs", "1",
            "--batch-size", "8", *extra]


REJECTED = [
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--dt", "nan"), 1,
                 "dt must be finite and positive", id="simulate_dt_nan"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--dt", "inf"), 1,
                 "dt must be finite and positive", id="simulate_dt_inf"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--period", "nan"), 1,
                 "period must be finite and positive", id="simulate_period_nan"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--period", "0"), 1,
                 "period must be finite and positive", id="simulate_period_zero"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--period", "-10"), 1,
                 "period must be finite and positive", id="simulate_period_negative"),
    pytest.param(_model_cmd("simulate", "--n-cycles", "-2"), 1,
                 "n_cycles must be an integer >= 1", id="simulate_n_cycles_negative"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "0.02", "--n-cycles", "0"), 1,
                 "n_cycles must be an integer >= 1", id="simulate_n_cycles_zero"),
    pytest.param(_model_cmd("spikes", "--n-cycles", "-2"), 1,
                 "n_cycles must be an integer >= 1", id="ideal_n_cycles_negative"),
    pytest.param(_model_cmd("spikes", "--n-cycles", "0"), 1,
                 "n_cycles must be an integer >= 1", id="ideal_n_cycles_zero"),
    pytest.param(_model_cmd("spikes", "--period", "nan"), 1,
                 "period must be finite and positive", id="spikes_period_nan"),
    pytest.param(_model_cmd("spikes", "--period", "inf"), 1,
                 "period must be finite and positive", id="spikes_period_inf"),
    pytest.param(_model_cmd("simulate", "--v-threshold", "inf", "--n-cycles", "3"), 1,
                 "spike threshold must be finite and positive", id="simulate_threshold_inf"),
    pytest.param(_model_cmd("spikes", "--second-example", "1"), 1,
                 "unrecognized arguments: --second-example 1", id="ideal_second_example"),
    pytest.param(_model_cmd("spikes", "--record-output-unit", "0"), 1,
                 "unrecognized arguments: --record-output-unit 0", id="ideal_record_unit"),
    pytest.param(_train("--lr", "nan"), 1, "learning rate", id="train_lr_nan"),
    pytest.param(_train("--lr", "0"), 1, "learning rate", id="train_lr_zero"),
    pytest.param(_train("--lr", "-0.001"), 1, "learning rate", id="train_lr_negative"),
    pytest.param(_train("--config", "{nan_lr_config}"), 1, "learning rate",
                 id="train_config_lr_nan"),
    pytest.param(_train("--theta", "nan"), 1, "threshold must be finite",
                 id="train_theta_nan"),
    pytest.param(_train("--epochs", "-1"), 1, "epochs must be an integer >= 0",
                 id="train_epochs_negative"),
    pytest.param(_train("--seed", "-2"), 1, "seed must be >= 0", id="train_seed_negative"),
    pytest.param(_train("--limit-train", "0"), 1, "limit_train must be an integer >= 1",
                 id="train_limit_zero"),
    pytest.param(_train("--limit-train", "-3"), 1, "limit_train must be an integer >= 1",
                 id="train_limit_negative"),
    pytest.param(["eval", "{nan_theta_model}", "--data-dir", "{data}", "--out-dir", "{out}"],
                 2, "malformed header", id="model_theta_nan"),
    pytest.param(["train", "--data-dir", "{empty_test_data}", "--out-dir", "{out}"], 2,
                 "{empty_test_images}", id="train_empty_test_split"),
    pytest.param(["eval", "{model}", "--data-dir", "{empty_test_data}", "--out-dir", "{out}"],
                 2, "{empty_test_images}", id="eval_empty_test_split"),
    pytest.param(["plot", "{not_utf8}"], 2, "{not_utf8}", id="plot_not_utf8"),
    pytest.param(["plot", "{a_dir}"], 2, "{a_dir}", id="plot_directory"),
]


class TestRejectedInputs:
    """Non-finite, zero or negative inputs exit with the documented code and
    a message, never with a traceback."""

    @staticmethod
    def paths(workdir, tmp_path):
        root, out = workdir
        model = (out / "model.phzn").read_bytes()
        assert b'"theta":0.0' in model
        nan_theta = tmp_path / "nan_theta.phzn"  # same header length: 0.0 -> NaN
        nan_theta.write_bytes(model.replace(b'"theta":0.0', b'"theta":NaN', 1))
        config = tmp_path / "nan_lr.json"
        config.write_text(json.dumps({"lr": float("nan")}))
        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(b"x,y\n1,\xe9\n")
        a_dir = tmp_path / "a_dir.csv"
        a_dir.mkdir()
        empty_test = tmp_path / "empty_test" / "mnist"  # the training split, no test images
        shutil.copytree(root / "data" / "mnist", empty_test)
        write_idx(empty_test, ("t10k", "t10k"), np.zeros((0, 8, 8)), np.zeros(0))
        return {"model": out / "model.phzn", "data": root / "data", "out": tmp_path / "run",
                "nan_theta_model": nan_theta, "nan_lr_config": config,
                "not_utf8": not_utf8, "a_dir": a_dir, "empty_test_data": empty_test.parent,
                "empty_test_images": empty_test / "t10k-images-idx3-ubyte"}

    @pytest.mark.parametrize("argv,code,says", REJECTED)
    def test_exit_code_without_traceback(self, workdir, tmp_path, capsys, argv, code, says):
        paths = self.paths(workdir, tmp_path)
        try:  # any other escaping exception is a traceback
            rc = main([a.format(**paths) for a in argv])
        except SystemExit as e:  # argparse's usage exit
            rc = e.code
        err = capsys.readouterr().err
        assert rc == code, err
        assert says.format(**paths) in err
        assert "Traceback" not in err


# Candidate values, valid ones first and more often, so that most examples
# get past argument parsing and about one in six runs its command to the end.
INTS = ["1", "3", "0", "-2", "x"]
FLOATS = ["0.03", "20", "0", "-1", "nan", "inf", "x"]
# The flags that every command but plot takes, then per command: its
# positional argument's choices, the flags it always gets, and its own flags,
# which win over a common flag of the same name. A flag maps to its candidate
# values; None is a flag that takes no value. Every command gets --data-dir,
# since the default is relative to the working directory, and runs that train
# or integrate get a bounded --epochs, --n-cycles and --v-threshold, so no
# example trains 20 epochs or runs the calibration scan (TestSpikes covers
# that). fetch-data reads {data}, where MNIST is present, or the fresh {out},
# and never a path that other examples expect to be missing.
FUZZ_COMMON = {
    "--config": ["{config}", "{nan_lr_config}", "{missing}", "{a_dir}", "{not_utf8}"],
    "--dataset": ["mnist", "mnist", "cifar10", "svhn"],
    "--data-dir": ["{data}", "{data}", "{missing}", "{csv}"],
}
FUZZ_PATHS = ["{model}", "{model}", "{model}", "{corrupt_model}", "{missing}", "{a_dir}",
              "{not_utf8}"]
FUZZ_RUN = {"--data-dir": ["{data}"], "--out-dir": ["{out}"]}
FUZZ_SPIKES = {"--example": INTS, "--split": ["test", "train", "dev"], "--period": FLOATS}
FUZZ_COMMANDS = {
    "train": ([], dict(FUZZ_RUN, **{"--epochs": ["1", "0", "-1", "x"]}),
              {"--arch": ["fc-mnist", "conv", "rnn"], "--batch-size": INTS, "--lr": FLOATS,
               "--theta": FLOATS, "--limit-train": INTS, "--phase-shift": [None],
               "--seed": INTS}),
    "eval": (FUZZ_PATHS, FUZZ_RUN, {"--split": ["test", "train", "dev"]}),
    "spikes": (FUZZ_PATHS, dict(FUZZ_RUN, **{"--n-cycles": ["3", "1", "0", "-2"]}),
               FUZZ_SPIKES),
    "simulate": (FUZZ_PATHS, dict(FUZZ_RUN, **{"--n-cycles": ["3", "1", "0", "-2"],
                                               "--v-threshold": FLOATS}),
                 dict(FUZZ_SPIKES, **{"--dt": FLOATS, "--second-example": INTS,
                                      "--record-output-unit": INTS})),
    "fetch-data": ([], {"--data-dir": ["{data}", "{out}"]},
                   {"--data-dir": ["{data}", "{out}", "{csv}"]}),
    "plot": (FUZZ_PATHS[3:] + ["{csv}"] * 3, {}, {"-o": ["{svg}", "{missing}/x.svg", "{a_dir}"]}),
}


@st.composite
def fuzzed_argv(draw):
    """An argv for one command, with {name} placeholders for paths."""
    cmd = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    positional, bounded, optional = FUZZ_COMMANDS[cmd]
    argv = [cmd] + ([draw(st.sampled_from(positional))] if positional else [])
    flags = dict(bounded)
    if cmd != "plot":
        chosen = draw(st.sets(st.sampled_from(sorted(optional.keys() | FUZZ_COMMON.keys())),
                              max_size=3))
        flags.update((f, optional.get(f) or FUZZ_COMMON[f]) for f in chosen)
    elif draw(st.booleans()):
        flags["-o"] = optional["-o"]
    for flag, values in sorted(flags.items()):
        value = draw(st.sampled_from(values))
        argv += [flag] if value is None else [flag, value]
    return argv


class TestFuzzedArguments:
    """Any argv for any command ends in a documented exit code or argparse's
    usage exit, never in a traceback. fetch-data finds the network
    unreachable."""

    @pytest.fixture(scope="class")
    def fuzz_paths(self, workdir, tmp_path_factory):
        root, out = workdir
        d = tmp_path_factory.mktemp("fuzz")
        model = out / "model.phzn"
        (d / "corrupt.phzn").write_bytes(model.read_bytes()[:40])
        (d / "nan_lr.json").write_text(json.dumps({"lr": float("nan")}))
        (d / "config.json").write_text(json.dumps({"epochs": 1, "batch_size": 8}))
        (d / "latin1.csv").write_bytes(b"x,y\n1,\xe9\n")
        (d / "metrics.csv").write_bytes((out / "metrics.csv").read_bytes())
        (d / "a_dir").mkdir()
        return {"model": model, "corrupt_model": d / "corrupt.phzn", "data": root / "data",
                "missing": d / "missing", "a_dir": d / "a_dir", "csv": d / "metrics.csv",
                "not_utf8": d / "latin1.csv", "config": d / "config.json",
                "nan_lr_config": d / "nan_lr.json", "svg": d / "plot.svg"}

    @settings(max_examples=50, deadline=None)
    @given(argv=fuzzed_argv())
    def test_exit_code(self, fuzz_paths, tmp_path_factory, argv):
        paths = dict(fuzz_paths, out=tmp_path_factory.mktemp("fuzz_out"))
        argv = [a.format(**paths) for a in argv]
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejected the argv
            assert e.code == 1, argv
        else:
            assert rc in (0, 1, 2, 3), argv


DATA_FLAGS = {"--config", "--dataset", "--data-dir"}
SPIKES_FLAGS = DATA_FLAGS | {"--out-dir", "model", "--example", "--split", "--period",
                             "--n-cycles"}
COMMAND_FLAGS = {
    "train": DATA_FLAGS | {"--out-dir", "--seed", "--arch", "--epochs", "--batch-size", "--lr",
                           "--theta", "--phase-shift", "--limit-train"},
    "eval": DATA_FLAGS | {"--out-dir", "model", "--split"},
    "spikes": SPIKES_FLAGS,
    "simulate": SPIKES_FLAGS | {"--dt", "--v-threshold", "--second-example",
                                "--record-output-unit"},
    "fetch-data": DATA_FLAGS,
    "plot": {"csv", "--output"},
}
# (command, flag) pairs that the commands used to accept without reading them
REMOVED = [("train", flag) for flag in ("--period", "--dt", "--n-cycles", "--v-threshold")] \
    + [("eval", flag) for flag in ("--seed", "--period", "--dt", "--n-cycles", "--v-threshold")] \
    + [("spikes", flag) for flag in ("--seed", "--backend", "--dt", "--v-threshold",
                                     "--second-example", "--record-output-unit")] \
    + [("simulate", "--seed")] \
    + [("fetch-data", flag) for flag in ("--out-dir", "--seed", "--period", "--dt",
                                         "--n-cycles", "--v-threshold")]
REMOVED_VALUE = {"--backend": "ideal", "--out-dir": "x", "--dt": "0.05"}


class TestCommandFlags:
    def test_each_command_takes_exactly_its_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {a.option_strings[-1] if a.option_strings else a.dest
                        for a in p._actions if not isinstance(a, argparse._HelpAction)}
                 for name, p in sub.choices.items()}
        assert found == COMMAND_FLAGS
        assert sum(map(len, found.values())) == 45

    @pytest.mark.parametrize("cmd,flag", REMOVED, ids=[" ".join(r) for r in REMOVED])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, cmd, flag):
        argv = [cmd] + (["model.phzn"] if "model" in COMMAND_FLAGS[cmd] else [])
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, REMOVED_VALUE.get(flag, "1")])
        err = capsys.readouterr().err
        assert e.value.code == 1
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


def tar_gz(members):
    """The bytes of a .tar.gz archive holding members {name: bytes}."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tf:
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


CIFAR_MEMBERS = {f"cifar-10-batches-bin/{name}": bytes(range(256)) * 400
                 for name in ["data_batch_1.bin", "test_batch.bin", "readme.html"]}


class TestFetchData:
    """fetch-data with the network faked: a download that stops early is a
    data error, and no later run reuses it."""

    @staticmethod
    def fake_retrieve(monkeypatch, *bodies):
        """Serves bodies in turn; returns the list of URLs fetched."""
        calls = []

        def urlretrieve(url, filename):
            with open(filename, "wb") as f:
                f.write(bodies[len(calls)])
            calls.append(url)
        monkeypatch.setattr(cli.urllib.request, "urlretrieve", urlretrieve)
        return calls

    def fetch(self, tmp_path, capsys, dataset):
        rc = main(["fetch-data", "--dataset", dataset, "--data-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    def test_good_archive_extracts_its_bin_files(self, tmp_path, monkeypatch, capsys):
        calls = self.fake_retrieve(monkeypatch, tar_gz(CIFAR_MEMBERS))
        assert self.fetch(tmp_path, capsys, "cifar10")[0] == 0
        d = tmp_path / "cifar10"
        assert sorted(os.listdir(d)) == ["cifar-10-binary.tar.gz", "data_batch_1.bin",
                                         "test_batch.bin"]
        assert (d / "test_batch.bin").read_bytes() == bytes(range(256)) * 400
        assert self.fetch(tmp_path, capsys, "cifar10")[0] == 0
        assert len(calls) == 1  # the kept archive is reused

    def test_truncated_archive_is_a_data_error_and_refetched(self, tmp_path, monkeypatch,
                                                             capsys):
        good = tar_gz(CIFAR_MEMBERS)
        calls = self.fake_retrieve(monkeypatch, good[:len(good) // 2], good)
        rc, err = self.fetch(tmp_path, capsys, "cifar10")
        assert rc == 2 and "download failed" in err
        assert not (tmp_path / "cifar10" / "cifar-10-binary.tar.gz").exists()
        assert self.fetch(tmp_path, capsys, "cifar10")[0] == 0
        assert len(calls) == 2
        assert (tmp_path / "cifar10" / "data_batch_1.bin").read_bytes() \
            == bytes(range(256)) * 400

    def test_truncated_mnist_gzip_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        body = gzip.compress(bytes(range(256)) * 100)
        monkeypatch.setattr(cli.urllib.request, "urlopen",
                            lambda url: io.BytesIO(body[:len(body) // 2]))
        rc, err = self.fetch(tmp_path, capsys, "mnist")
        assert rc == 2 and "download failed" in err
        assert os.listdir(tmp_path / "mnist") == []
