"""Acceptance suite: one test (and one PASS/FAIL line) per release criterion.

Dataset-bound criteria need the real MNIST/CIFAR-10 files on disk (set
PHASORNET_DATA_DIR or run `phasornet fetch-data`); without them those tests
skip and say so. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import struct
import time

import numpy as np
import pytest

from conftest import (
    cifar_paths,
    have_cifar,
    have_mnist,
    mnist_paths,
    needs_cifar,
    needs_mnist,
)
from test_phasor_net import _finite_diff_check
from phasornet.circuit import (
    CircuitParams,
    build_circuit,
    calibrate_threshold,
    decode_output,
    run,
)
from phasornet.data import load_cifar10_bin, load_mnist_idx
from phasornet.errors import CorruptRecordError, MagicMismatchError, TruncatedFileError
from phasornet.phasor_net import (
    LayerSpec,
    PhasorNetwork,
    encode_target,
    forward,
    loss_cosine,
    loss_mse,
    predict,
)
from phasornet.spikemap import raster_phases, unroll
from phasornet.training import encode_batch, evaluate, train


def report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {verdict}{suffix}")
    assert ok, f"{name}: {detail}"


# -- shared dataset / model fixtures (only built when the files exist) -------


@pytest.fixture(scope="module")
def mnist():
    tri, trl, tei, tel = mnist_paths()
    return (load_mnist_idx(tri, trl, split="train"),
            load_mnist_idx(tei, tel, split="test"))


@pytest.fixture(scope="module")
def cifar():
    tr, te = cifar_paths()
    return load_cifar10_bin(tr, split="train"), load_cifar10_bin(te, split="test")


def fc_mnist_net(seed=0, use_phase_shifts=False):
    specs = [
        LayerSpec("dense", fan_in=784, fan_out=512),
        LayerSpec("dense", fan_in=512, fan_out=512),
        LayerSpec("dense", fan_in=512, fan_out=10),
    ]
    return PhasorNetwork.create((784,), specs, seed=seed,
                                use_phase_shifts=use_phase_shifts)


def conv_preset(input_shape, seed=0):
    c, h, w = input_shape
    flat = 16 * (h - 4) * (w - 4)
    specs = [
        LayerSpec("conv3x3", in_channels=c, out_channels=6),
        LayerSpec("conv3x3", in_channels=6, out_channels=16),
        LayerSpec("dense", fan_in=flat, fan_out=128),
        LayerSpec("dense", fan_in=128, fan_out=128),
        LayerSpec("dense", fan_in=128, fan_out=10),
    ]
    return PhasorNetwork.create(tuple(input_shape), specs, seed=seed)


@pytest.fixture(scope="module")
def trained_fc_mnist(mnist):
    trainset, test = mnist
    net = fc_mnist_net(seed=0)
    train(net, trainset, test_set=None, epochs=5, batch_size=64, seed=0)
    return net, test


# -- criteria ----------------------------------------------------------------


def test_gradient_correctness():
    """20 random dense nets (<= 6-5-4-2) and 5 random conv nets (<= 2 channels,
    8x8), 64-bit, theta=0: analytic gradients vs central differences."""
    t0 = time.time()
    rng = np.random.default_rng(100)
    for trial in range(20):
        n_in = int(rng.integers(3, 7))
        h1 = int(rng.integers(2, 6))
        h2 = int(rng.integers(2, 5))
        specs = [LayerSpec("dense", fan_in=n_in, fan_out=h1),
                 LayerSpec("dense", fan_in=h1, fan_out=h2),
                 LayerSpec("dense", fan_in=h2, fan_out=2)]
        net = PhasorNetwork.create((n_in,), specs, seed=1000 + trial,
                                   dtype=np.complex128)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, n_in))
        tgt = encode_target(int(rng.integers(0, 2)), 2).phases
        _finite_diff_check(net, x, tgt, rel_tol=1e-6, abs_floor=1e-8, step=1e-5)
    for trial in range(5):
        c = int(rng.integers(1, 3))
        f = int(rng.integers(1, 3))
        flat = f * 6 * 6
        specs = [LayerSpec("conv3x3", in_channels=c, out_channels=f),
                 LayerSpec("dense", fan_in=flat, fan_out=2)]
        net = PhasorNetwork.create((c, 8, 8), specs, seed=2000 + trial,
                                   dtype=np.complex128)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (c, 8, 8)))
        tgt = encode_target(int(rng.integers(0, 2)), 2).phases
        _finite_diff_check(net, x, tgt, rel_tol=1e-6, abs_floor=1e-8, step=1e-5)
    elapsed = time.time() - t0
    report("gradient-correctness", elapsed < 60.0,
           f"25 nets checked in {elapsed:.1f}s")


def test_loss_identity():
    """MSE and cosine loss forms agree on 1e4 random all-active vectors."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        theta_hat = rng.uniform(0, 2 * np.pi, (100, 10))
        theta = rng.uniform(0, 2 * np.pi, (100, 10))
        a = loss_mse(np.exp(1j * theta_hat), theta)
        b = loss_cosine(theta_hat, theta)
        worst = max(worst, float(np.max(np.abs(a - b))))
    report("loss-identity", worst < 1e-6, f"max deviation {worst:.2e}")


@needs_mnist
def test_mnist_reproduction(mnist):
    """Conv preset, <= 20 epochs, batch 64, Adam lr 0.001 -> test error <= 2.5%."""
    trainset, test = mnist
    net = conv_preset(trainset.input_shape, seed=0)
    best = [1.0]

    def on_epoch(rec, net_, opt):
        best[0] = min(best[0], rec["test_err"])

    for chunk in range(20):
        train(net, trainset, test_set=test, epochs=1, batch_size=64,
              lr=0.001, seed=chunk, on_epoch=on_epoch, log=print)
        if best[0] <= 0.025:
            break
    report("mnist-reproduction", best[0] <= 0.025,
           f"best test error {best[0]:.4f}")


@needs_cifar
def test_cifar10_reproduction(cifar):
    """Conv preset, <= 30 epochs -> test error <= 45% with strictly
    decreasing best-so-far over the first 10 epochs; plus a 10k-example
    smoke run reaching <= 60%."""
    trainset, test = cifar
    smoke = conv_preset(trainset.input_shape, seed=0)
    t0 = time.time()
    hist, _ = train(smoke, trainset, test_set=test, epochs=3, batch_size=64,
                    limit_train=10000, seed=0, log=print)
    smoke_err = min(h["test_err"] for h in hist)
    smoke_ok = smoke_err <= 0.60 and time.time() - t0 < 1800

    net = conv_preset(trainset.input_shape, seed=1)
    hist, _ = train(net, trainset, test_set=test, epochs=30, batch_size=64,
                    seed=1, log=print)
    errs = [h["test_err"] for h in hist]
    best_so_far = np.minimum.accumulate(errs)
    trend_ok = bool(np.all(np.diff(best_so_far[:10]) < 0))
    final_ok = min(errs) <= 0.45
    report("cifar10-reproduction", smoke_ok and trend_ok and final_ok,
           f"smoke {smoke_err:.3f}, best {min(errs):.3f}, "
           f"first-10 trend {'ok' if trend_ok else 'flat'}")


@needs_mnist
def test_ideal_spike_round_trip(trained_fc_mnist):
    """Phase -> spike time -> phase preserves all 100 test predictions."""
    net, test = trained_fc_mnist
    x = encode_batch(net, test.images[:100])
    n_match = 0
    for i in range(100):
        trace = forward(net, x[i])
        raster = unroll(net, x[i], period=10.0, n_cycles=5)
        phases = raster_phases(raster, len(net.layers), net.n_outputs, cycle=4)
        units = np.where(np.isnan(phases), 0.0, np.exp(1j * phases))
        n_match += predict(units.astype(np.complex128)) == predict(trace.output)
    report("ideal-spike-round-trip", n_match == 100, f"{n_match}/100 match")


def test_synapse_resonance():
    """Isolated undamped synapse after reset: harmonic with omega = 2pi/T,
    within 2% amplitude and one-dt period at dt = 0.025 ms; better at dt/2."""
    from test_circuit import TestSynapseResonance

    helper = TestSynapseResonance()
    p, trace = helper._trace(dt=0.025, n_cycles=2)
    want_amp = p.w_spike / (p.c_m * p.omega)
    steps = int(round(p.period / p.dt))
    got_amp = np.abs(trace[:steps // 2]).max()
    amp_ok = abs(got_amp - want_amp) <= 0.02 * want_amp
    i1 = int(np.argmin(trace[:steps]))
    i2 = steps + int(np.argmin(trace[steps:2 * steps]))
    period_ok = abs((i2 - i1) * p.dt - p.period) <= p.dt
    p2, fine = helper._trace(dt=0.0125, n_cycles=1)
    fine_amp = np.abs(fine[:int(round(p2.period / p2.dt)) // 2]).max()
    shrink_ok = abs(fine_amp - want_amp) < abs(got_amp - want_amp)
    report("synapse-resonance", amp_ok and period_ok and shrink_ok,
           f"amplitude {got_amp:.4g} vs {want_amp:.4g}, "
           f"period {(i2 - i1) * p.dt:.4g} ms")


def _circuit_agreement(net, circuit, images, thr, n_cycles=15):
    agree = 0
    for image in images:
        result = run(circuit, [(image, n_cycles)], v_threshold=thr)
        got = decode_output(result.raster, 10, len(net.layers),
                            now=n_cycles * circuit.params.period)
        x = encode_batch(net, np.asarray(image)[None])[0]
        agree += got == predict(forward(net, x).output)
    return agree / len(images)


@needs_mnist
def test_circuit_fidelity(trained_fc_mnist):
    """Circuit decoding agrees with the phasor network on >= 80% of 50 test
    examples; halving dt does not reduce agreement."""
    net, test = trained_fc_mnist
    images = [test.images[i] for i in range(50)]
    circuit = build_circuit(net)
    thr, _ = calibrate_threshold(net, circuit, images[:3])
    coarse = _circuit_agreement(net, circuit, images, thr)
    fine = build_circuit(net, CircuitParams(dt=0.0125))
    fine_agree = _circuit_agreement(net, fine, images, thr)
    report("circuit-fidelity", coarse >= 0.8 and fine_agree >= coarse - 1e-12,
           f"agreement {coarse:.0%} at dt=0.025, {fine_agree:.0%} at dt=0.0125")


@needs_mnist
def test_limit_cycle_settling(trained_fc_mnist):
    """>= 90% of spiking output neurons lock (drift < 0.05 T) within 10 cycles."""
    net, test = trained_fc_mnist
    images = [test.images[i] for i in range(50)]
    circuit = build_circuit(net)
    thr, _ = calibrate_threshold(net, circuit, images[:3])
    T = circuit.params.period
    out_layer = len(net.layers)
    locked = total = 0
    for image in images:
        result = run(circuit, [(image, 15)], v_threshold=thr)
        out = result.raster.layer == out_layer
        units, spikes = result.raster.neuron[out], result.raster.time[out]
        for unit in np.unique(units):
            total += 1
            times = spikes[units == unit]
            drifts = np.abs(np.diff(times) - T)
            # locked from cycle 10 on: every later inter-spike gap within 0.05 T
            tail = drifts[times[:-1] >= 10 * T]
            early = drifts[(times[:-1] >= 9 * T) & (times[:-1] < 10 * T)]
            ok = tail.size > 0 and np.all(tail < 0.05 * T)
            ok = ok and (early.size == 0 or np.all(early < 0.05 * T))
            locked += bool(ok)
    frac = locked / max(total, 1)
    report("limit-cycle-settling", frac >= 0.9,
           f"{locked}/{total} output-neuron traces locked")


@needs_mnist
def test_phase_shift_robustness(mnist):
    """Fixed random per-input phase shifts move fc-mnist test error < 0.5 pp."""
    trainset, test = mnist
    plain = fc_mnist_net(seed=0, use_phase_shifts=False)
    train(plain, trainset, test_set=None, epochs=5, batch_size=64, seed=0)
    shifted = fc_mnist_net(seed=0, use_phase_shifts=True)
    train(shifted, trainset, test_set=None, epochs=5, batch_size=64, seed=0)
    err_plain = evaluate(plain, test)
    err_shifted = evaluate(shifted, test)
    delta = abs(err_shifted - err_plain)
    report("phase-shift-robustness", delta < 0.005,
           f"plain {err_plain:.4f}, shifted {err_shifted:.4f}")


def test_data_loaders(tmp_path):
    """Two-record IDX and CIFAR fixtures round-trip exactly; malformed files
    raise the documented error classes."""
    # IDX pair
    pixels = np.zeros((2, 4, 5), dtype=np.uint8)
    pixels[0, 1, 2] = 255
    pixels[1, 3, 4] = 128
    ip = tmp_path / "img"
    lp = tmp_path / "lbl"
    ip.write_bytes(struct.pack(">iiii", 2051, 2, 4, 5) + pixels.tobytes())
    lp.write_bytes(struct.pack(">ii", 2049, 2) + bytes([3, 9]))
    ds = load_mnist_idx(ip, lp)
    idx_ok = (ds.images.shape == (2, 1, 4, 5)
              and ds.images[0, 0, 1, 2] == 1.0
              and abs(ds.images[1, 0, 3, 4] - 128 / 255) < 1e-7
              and list(ds.labels) == [3, 9])

    # CIFAR pair of records
    rec = np.zeros((2, 3073), dtype=np.uint8)
    rec[0, 0] = 7
    rec[0, 1] = 255          # R plane, pixel (0,0) of record 0
    rec[1, 0] = 2
    rec[1, 1 + 2048 + 33] = 51  # B plane, pixel (1,1) of record 1
    cp = tmp_path / "batch.bin"
    cp.write_bytes(rec.tobytes())
    cds = load_cifar10_bin([cp])
    cifar_ok = (cds.images.shape == (2, 3, 32, 32)
                and cds.images[0, 0, 0, 0] == 1.0
                and abs(cds.images[1, 2, 1, 1] - 51 / 255) < 1e-7
                and list(cds.labels) == [7, 2])

    errors_ok = True
    try:
        load_mnist_idx(lp, lp)
        errors_ok = False
    except MagicMismatchError:
        pass
    short = tmp_path / "short"
    short.write_bytes(ip.read_bytes()[:-3])
    try:
        load_mnist_idx(short, lp)
        errors_ok = False
    except TruncatedFileError:
        pass
    bad = rec.copy()
    bad[1, 0] = 11
    bp = tmp_path / "bad.bin"
    bp.write_bytes(bad.tobytes())
    try:
        load_cifar10_bin([bp])
        errors_ok = False
    except CorruptRecordError:
        pass

    report("data-loaders", idx_ok and cifar_ok and errors_ok)


def test_skip_summary(capsys):
    """Not a criterion: records which dataset-bound criteria could not run."""
    with capsys.disabled():
        if not have_mnist():
            print("ACCEPTANCE mnist-reproduction: SKIP (MNIST files not found)")
            print("ACCEPTANCE ideal-spike-round-trip: SKIP (MNIST files not found)")
            print("ACCEPTANCE circuit-fidelity: SKIP (MNIST files not found)")
            print("ACCEPTANCE limit-cycle-settling: SKIP (MNIST files not found)")
            print("ACCEPTANCE phase-shift-robustness: SKIP (MNIST files not found)")
        if not have_cifar():
            print("ACCEPTANCE cifar10-reproduction: SKIP (CIFAR-10 files not found)")
