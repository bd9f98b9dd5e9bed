import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from phasornet.data import Dataset
from phasornet.phasor_net import LayerSpec, PhasorNetwork
from phasornet.training import train


# `pytest --hypothesis-profile=ci` prints a failing property test's
# @reproduce_failure blob, so that the log alone replays the failure.
settings.register_profile("ci", print_blob=True)


def data_dir():
    return os.environ.get("PHASORNET_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))


def mnist_paths():
    d = os.path.join(data_dir(), "mnist")
    return (os.path.join(d, "train-images-idx3-ubyte"),
            os.path.join(d, "train-labels-idx1-ubyte"),
            os.path.join(d, "t10k-images-idx3-ubyte"),
            os.path.join(d, "t10k-labels-idx1-ubyte"))


def cifar_paths():
    d = os.path.join(data_dir(), "cifar10")
    return ([os.path.join(d, f"data_batch_{i}.bin") for i in range(1, 6)],
            [os.path.join(d, "test_batch.bin")])


def have_mnist():
    return all(os.path.exists(p) for p in mnist_paths())


def have_cifar():
    tr, te = cifar_paths()
    return all(os.path.exists(p) for p in tr + te)


needs_mnist = pytest.mark.skipif(
    not have_mnist(),
    reason="MNIST IDX files not found (set PHASORNET_DATA_DIR or run `phasornet fetch-data`)")
needs_cifar = pytest.mark.skipif(
    not have_cifar(),
    reason="CIFAR-10 binary files not found (set PHASORNET_DATA_DIR or run `phasornet fetch-data`)")


def traced_peak(fn):
    """Bytes that fn() allocates at its peak, over what was allocated when it
    started, as tracemalloc counts them (numpy reports its array buffers to
    it). An allocation count, unlike the process RSS, does not depend on what
    the heap kept from earlier tests."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def synthetic_dataset(n_per_class=40, n_classes=10, side=8, noise=0.12, seed=0):
    """Prototype-plus-noise images: a quick stand-in classification task."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.1, 0.9, (n_classes, 1, side, side))
    images, labels = [], []
    for c in range(n_classes):
        batch = protos[c] + rng.normal(0.0, noise, (n_per_class, 1, side, side))
        images.append(np.clip(batch, 0.0, 1.0))
        labels.append(np.full(n_per_class, c))
    images = np.concatenate(images).astype(np.float32)
    labels = np.concatenate(labels).astype(np.int64)
    order = rng.permutation(len(labels))
    return Dataset(images[order], labels[order], name="synthetic")


def small_fc_net(n_in=64, hidden=48, n_out=10, seed=0, dtype=np.complex64):
    specs = [
        LayerSpec("dense", fan_in=n_in, fan_out=hidden),
        LayerSpec("dense", fan_in=hidden, fan_out=hidden),
        LayerSpec("dense", fan_in=hidden, fan_out=n_out),
    ]
    return PhasorNetwork.create((n_in,), specs, seed=seed, dtype=dtype)


@pytest.fixture(scope="session")
def synth_split():
    ds = synthetic_dataset(n_per_class=60, seed=3)
    n_test = 100
    test = Dataset(ds.images[:n_test], ds.labels[:n_test], name="synthetic", split="test")
    trainset = Dataset(ds.images[n_test:], ds.labels[n_test:], name="synthetic", split="train")
    return trainset, test


@pytest.fixture(scope="session")
def trained_net(synth_split):
    """A small dense net trained on the synthetic task (flattened 8x8)."""
    trainset, test = synth_split
    net = small_fc_net(seed=7)
    train(net, trainset, test_set=None, epochs=25, batch_size=32, lr=0.005, seed=7)
    return net
