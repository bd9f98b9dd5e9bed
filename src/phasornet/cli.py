"""Command-line surface: train, eval, spikes, simulate, plot, fetch-data.

Configuration precedence is flags > config file (JSON) > built-in defaults.
Each command takes only the flags it reads. train, eval, spikes and simulate
write their outputs under --out-dir together with a run manifest (config
snapshot, seed, package version); plot and fetch-data write none.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import gzip
import json
import os
import sys
import tarfile
import urllib.request

import numpy as np

from . import __version__
from .errors import DataFormatError, NumericError, PhasorNetError, ValidationError
from . import circuit as circuit_mod
from .circuit import CircuitParams, build_circuit, calibrate_threshold, decode_over_time
from .data import load_cifar10_bin, load_mnist_idx
from .model_io import load_model, save_model
from .phasor_net import LayerSpec, PhasorNetwork
from .plotting import plot_csv
from .spikemap import unroll, write_raster_csv
from .training import encode_batch, evaluate, train

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
MNIST_URL = "https://storage.googleapis.com/cvdf-datasets/mnist/"
CIFAR_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"

DEFAULTS = {
    "dataset": "mnist",
    "data_dir": "data",
    "arch": "conv",
    "epochs": None,  # per-dataset default below
    "batch_size": 64,
    "lr": 0.001,
    "seed": 0,
    "theta": 0.0,
    "phase_shift": False,
    "limit_train": None,
    # circuit overrides
    "period": 10.0,
    "dt": None,  # CircuitParams' default, period/100
    "v_threshold": None,
    "n_cycles": 15,
}
EPOCH_DEFAULTS = {"mnist": 20, "cifar10": 30}
# threshold calibration scores the example and the images after it in the
# split: with one image, agreement could only read 0% or 100%
CALIBRATION_IMAGES = 4
# config keys whose default is None take these types (or null); the others
# take their default's type, which is the type their flag parses to
_NULLABLE_TYPES = {"epochs": int, "limit_train": int, "dt": float, "v_threshold": float}
# what a config-file value of each type may hold; JSON true/false is no number
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
              bool: (bool, "true or false"), str: (str, "a string")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                file_cfg = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise ValidationError(f"config file {args.config} is not JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            want = _NULLABLE_TYPES.get(key, type(DEFAULTS[key]))
            if value is None and key in _NULLABLE_TYPES:
                continue
            types, name = _JSON_TYPES[want]
            if isinstance(value, bool) != (want is bool) or not isinstance(value, types):
                raise ValidationError(
                    f"config file {args.config}: {key!r} must be {name}, got {value!r}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["epochs"] is None:
        cfg["epochs"] = EPOCH_DEFAULTS.get(cfg["dataset"], 10)
    if cfg["seed"] < 0:  # numpy's generators take no negative seed
        raise ValidationError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _dataset_paths(cfg, split):
    d = os.path.join(cfg["data_dir"], cfg["dataset"])
    if cfg["dataset"] == "mnist":
        imgs, labels = MNIST_FILES[split]
        return [os.path.join(d, imgs), os.path.join(d, labels)]
    if cfg["dataset"] == "cifar10":
        if split == "train":
            return [os.path.join(d, f"data_batch_{i}.bin") for i in range(1, 6)]
        return [os.path.join(d, "test_batch.bin")]
    raise ValidationError(f"unknown dataset {cfg['dataset']!r}")


def _load_split(cfg, split):
    paths = _dataset_paths(cfg, split)
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DataFormatError(
            f"dataset files missing: {missing}; run `phasornet fetch-data` "
            f"or point --data-dir at them")
    if cfg["dataset"] == "mnist":
        return load_mnist_idx(paths[0], paths[1], name="mnist", split=split)
    return load_cifar10_bin(paths, name="cifar10", split=split)


def _build_net(cfg, input_shape, dtype=np.complex64):
    theta = float(cfg["theta"])
    if cfg["arch"] == "fc-mnist":
        n_in = int(np.prod(input_shape))
        specs = [
            LayerSpec("dense", fan_in=n_in, fan_out=512, theta=theta),
            LayerSpec("dense", fan_in=512, fan_out=512, theta=theta),
            LayerSpec("dense", fan_in=512, fan_out=10, theta=theta),
        ]
        shape = (n_in,)
    elif cfg["arch"] == "conv":
        c, h, w = input_shape
        flat = 16 * (h - 4) * (w - 4)
        specs = [
            LayerSpec("conv3x3", in_channels=c, out_channels=6, theta=theta),
            LayerSpec("conv3x3", in_channels=6, out_channels=16, theta=theta),
            LayerSpec("dense", fan_in=flat, fan_out=128, theta=theta),
            LayerSpec("dense", fan_in=128, fan_out=128, theta=theta),
            LayerSpec("dense", fan_in=128, fan_out=10, theta=theta),
        ]
        shape = tuple(input_shape)
    else:
        raise ValidationError(f"unknown architecture {cfg['arch']!r}")
    return PhasorNetwork.create(shape, specs, seed=cfg["seed"], dtype=dtype,
                                use_phase_shifts=cfg["phase_shift"])


def _write_manifest(out_dir, command, cfg, extra=None):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, f"{command}_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


# -- commands ----------------------------------------------------------------


def cmd_train(args):
    cfg = _load_config(args)
    out_dir = args.out_dir
    train_set = _load_split(cfg, "train")
    test_set = _load_split(cfg, "test")
    net = _build_net(cfg, train_set.input_shape)
    _write_manifest(out_dir, "train", cfg)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    model_path = os.path.join(out_dir, "model.phzn")
    with open(metrics_path, "w") as f:
        f.write("epoch,train_err,test_err,loss\n")

    def on_epoch(rec, net):
        with open(metrics_path, "a") as f:
            f.write(f"{rec['epoch']},{rec['train_err']:.6f},"
                    f"{rec['test_err']:.6f},{rec['loss']:.6f}\n")
        save_model(net, model_path)

    history = train(
        net, train_set, test_set, epochs=cfg["epochs"],
        batch_size=cfg["batch_size"], lr=cfg["lr"], seed=cfg["seed"],
        limit_train=cfg["limit_train"], on_epoch=on_epoch, log=print)
    if history:
        print(f"final test error: {history[-1]['test_err']:.4f}")
    else:
        save_model(net, model_path)
        print("0 epochs requested; wrote initial model")
    return 0


def cmd_eval(args):
    cfg = _load_config(args)
    net = load_model(args.model)
    ds = _load_split(cfg, args.split)
    err = evaluate(net, ds, batch_size=cfg["batch_size"])
    _write_manifest(args.out_dir, "eval", cfg, {"model": args.model})
    report = {"dataset": cfg["dataset"], "split": args.split,
              "error_rate": err, "n": len(ds)}
    with open(os.path.join(args.out_dir, "eval.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"{cfg['dataset']} {args.split} error rate: {err:.4f} ({len(ds)} examples)")
    return 0


def _spiking_run(args, backend):
    """Config, model and split of a spikes or simulate run, with its indices
    checked and its manifest written."""
    cfg = _load_config(args)
    net = load_model(args.model)
    ds = _load_split(cfg, args.split)
    for flag, value, bound in (
            ("example", args.example, len(ds)),
            ("second example", getattr(args, "second_example", None), len(ds)),
            ("record output unit", getattr(args, "record_output_unit", None), net.n_outputs)):
        if value is not None and not 0 <= value < bound:
            raise ValidationError(f"{flag} index {value} out of range [0, {bound})")
    _write_manifest(args.out_dir, "spikes", cfg,
                    {"model": args.model, "backend": backend, "example": args.example})
    return cfg, net, ds


def cmd_spikes(args):
    cfg, net, ds = _spiking_run(args, "ideal")
    n_cycles = cfg["n_cycles"]
    if n_cycles < 1:
        raise ValidationError(f"n_cycles must be an integer >= 1, got {n_cycles}")
    if n_cycles < len(net.layers) + 1:
        print(f"warning: {n_cycles} cycles < depth+1 = {len(net.layers) + 1}; "
              f"the output layer never fires", file=sys.stderr)
        n_cycles = len(net.layers) + 1
    x = encode_batch(net, ds.images[args.example][None])[0]
    raster = unroll(net, x, cfg["period"], n_cycles)
    path = os.path.join(args.out_dir, "raster_ideal.csv")
    write_raster_csv(raster, path)
    print(f"wrote {path} ({raster.time.size} events)")
    return 0


def cmd_simulate(args):
    cfg, net, ds = _spiking_run(args, "circuit")
    out_dir, n_cycles = args.out_dir, cfg["n_cycles"]
    circ = build_circuit(net, CircuitParams(period=cfg["period"], dt=cfg["dt"],
                                            n_cycles=n_cycles))
    v_th = cfg["v_threshold"] if cfg["v_threshold"] is not None else net.v_threshold
    if v_th is None:
        print("calibrating spike threshold...", file=sys.stderr)
        picks = [(args.example + i) % len(ds) for i in range(min(CALIBRATION_IMAGES, len(ds)))]
        v_th, agree = calibrate_threshold(net, circ, [ds.images[i] for i in picks])
        print(f"calibrated threshold {v_th:.4g} mV (agreement {agree:.0%} on "
              f"{len(picks)} images)", file=sys.stderr)
        if agree == 0:
            print("warning: no threshold candidate decoded the phasor network's class "
                  "on any calibration image; using the smallest candidate", file=sys.stderr)
        net.v_threshold = v_th
        save_model(net, os.path.join(out_dir, "model_calibrated.phzn"))
    stimuli = [(ds.images[i], n_cycles) for i in (args.example, args.second_example)
               if i is not None]
    record = [circ.layer_offsets[-1] + args.record_output_unit] \
        if args.record_output_unit is not None else []
    result = circuit_mod.run(circ, stimuli, v_threshold=v_th, record_neurons=record)
    path = os.path.join(out_dir, "raster_circuit.csv")
    write_raster_csv(result.raster, path)
    print(f"wrote {path} ({result.raster.time.size} events)")
    times = np.arange(1.0, result.total_time + 0.5, 1.0)
    decoded = decode_over_time(result.raster, circ.n_outputs, len(net.layers), times)
    dpath = os.path.join(out_dir, "decoded_class.csv")
    with open(dpath, "w") as f:
        f.write("time_ms,predicted_class\n")
        for t, c in zip(times, decoded):
            f.write(f"{t:.12g},{c}\n")
    print(f"wrote {dpath}")
    if record:
        vpath = os.path.join(out_dir, "voltage_trace.csv")
        with open(vpath, "w") as f:
            f.write("time_ms,V_m_mV\n")
            for t, v in zip(result.trace_times, result.trace_vm[:, 0]):
                f.write(f"{t:.12g},{v:.12g}\n")
        print(f"wrote {vpath}")
    return 0


def cmd_plot(args):
    out = args.output or (os.path.splitext(args.csv)[0] + ".svg")
    n_rows = plot_csv(args.csv, out)
    if n_rows == 0:
        print("warning: CSV body is empty; wrote empty axes", file=sys.stderr)
    print(f"wrote {out}")
    return 0


def cmd_fetch_data(args):
    """Downloads go to a .part name and take the real one only once they have
    opened and extracted, so a download that stops early is never reused."""
    cfg = _load_config(args)
    d = os.path.join(cfg["data_dir"], cfg["dataset"])
    os.makedirs(d, exist_ok=True)
    try:
        if cfg["dataset"] == "mnist":
            for name in MNIST_FILES["train"] + MNIST_FILES["test"]:
                dest = os.path.join(d, name)
                if os.path.exists(dest):
                    continue
                url = MNIST_URL + name + ".gz"
                print(f"fetching {url}")
                with urllib.request.urlopen(url) as r:
                    raw = gzip.decompress(r.read())
                with open(dest + ".part", "wb") as f:
                    f.write(raw)
                os.replace(dest + ".part", dest)
        else:
            tar_path = os.path.join(d, "cifar-10-binary.tar.gz")
            archive = tar_path if os.path.exists(tar_path) else tar_path + ".part"
            if archive != tar_path:
                print(f"fetching {CIFAR_URL}")
                urllib.request.urlretrieve(CIFAR_URL, archive)
            with tarfile.open(archive) as tf:
                for member in tf.getmembers():
                    if member.name.endswith(".bin"):
                        member.name = os.path.basename(member.name)
                        tf.extract(member, d)
            os.replace(archive, tar_path)
    except (OSError, EOFError, tarfile.TarError) as e:
        raise DataFormatError(f"download failed: {e}")
    print(f"dataset ready under {d}")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser():
    """Each command takes exactly the flags it reads; config-file keys stay
    global, so one file serves every command."""
    parser = _Parser(prog="phasornet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, out_dir=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--dataset", choices=["mnist", "cifar10"])
        p.add_argument("--data-dir", dest="data_dir")
        if out_dir:
            p.add_argument("--out-dir", dest="out_dir", default="out")
        p.set_defaults(func=func)
        return p

    def model_command(name, help, func):
        p = command(name, help, func)
        p.add_argument("model")
        p.add_argument("--split", choices=["train", "test"], default="test")
        return p

    p = command("train", "train a model", cmd_train)
    p.add_argument("--seed", type=int)
    p.add_argument("--arch", choices=["fc-mnist", "conv"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--phase-shift", dest="phase_shift", action="store_const",
                   const=True, help="apply fixed random per-input phase shifts")
    p.add_argument("--limit-train", dest="limit_train", type=int,
                   help="cap the number of training examples (smoke mode)")

    model_command("eval", "evaluate a model", cmd_eval)

    for name, help, func in (
            ("spikes", "export the ideal spike raster", cmd_spikes),
            ("simulate", "run the resonate-and-fire circuit", cmd_simulate)):
        p = model_command(name, help, func)
        p.add_argument("--example", type=int, default=0)
        p.add_argument("--period", type=float, help="cycle period T, ms")
        p.add_argument("--n-cycles", dest="n_cycles", type=int)
    # simulate, built last, also takes the circuit's flags
    p.add_argument("--dt", type=float, help="integration step, ms (default: period/100)")
    p.add_argument("--v-threshold", dest="v_threshold", type=float)
    p.add_argument("--second-example", dest="second_example", type=int,
                   help="second stimulus presented after the first")
    p.add_argument("--record-output-unit", dest="record_output_unit",
                   type=int, help="output unit whose V_m trace to record")

    p = sub.add_parser("plot", help="render a metrics or raster CSV to SVG")
    p.add_argument("csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_plot)

    command("fetch-data", "download a dataset into the cache", cmd_fetch_data,
            out_dir=False)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError,) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValidationError, PhasorNetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # missing file, a directory, no permission: the OS names the path
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
