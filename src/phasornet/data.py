"""Dataset ingestion: MNIST (IDX) and CIFAR-10 (binary), plus batching.

Both formats are read bit-exactly per their public layouts. Pixels are scaled
by 1/255 into [0, 1] with no mean-centering; labels stay integer.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptRecordError,
    MagicMismatchError,
    TruncatedFileError,
    ValidationError,
    check_count,
)

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixel bytes


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    name: str = ""
    split: str = ""

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValidationError(
                f"image/label count mismatch: {self.images.shape[0]} vs {self.labels.shape[0]}"
            )

    def __len__(self):
        return self.images.shape[0]

    @property
    def input_shape(self):
        return self.images.shape[1:]


def _read_be32(f, path):
    data = f.read(4)
    if len(data) != 4:
        raise TruncatedFileError("file ended inside a header field",
                                 path=path, offset=f.tell() - len(data))
    return struct.unpack(">i", data)[0]


def _read_idx(path, magic, ndim, what):
    """The uint8 payload of a big-endian IDX file with the given magic and
    number of dimensions, shaped by its header; `what` names it in errors."""
    with open(path, "rb") as f:
        found = _read_be32(f, path)
        if found != magic:
            raise MagicMismatchError(f"expected {what} magic {magic}, found {found}",
                                     path=path, offset=0)
        dims = [_read_be32(f, path) for _ in range(ndim)]
        if min(dims) < 0:
            raise CorruptRecordError(f"negative {what} dimension in header {dims}",
                                     path=path, offset=4 + 4 * dims.index(min(dims)))
        size = math.prod(dims)
        payload = f.read(size)
    if len(payload) != size:
        raise TruncatedFileError(f"expected {size} {what} bytes, found {len(payload)}",
                                 path=path, offset=4 + 4 * ndim)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_mnist_idx(images_path, labels_path, name="mnist", split=""):
    """Read the big-endian IDX pair into a (N, 1, 28, 28) dataset."""
    images = _read_idx(images_path, MNIST_IMAGE_MAGIC, 3, "image")
    if images.shape[0] == 0:
        raise CorruptRecordError("header declares 0 images", path=images_path, offset=4)
    labels = _read_idx(labels_path, MNIST_LABEL_MAGIC, 1, "label")
    if labels.size != images.shape[0]:
        raise TruncatedFileError(
            f"image count {images.shape[0]} != label count {labels.size}",
            path=labels_path, offset=4)
    if labels.max() > 9:
        bad = int(np.flatnonzero(labels > 9)[0])
        raise CorruptRecordError(f"label byte {labels[bad]} > 9 at index {bad}",
                                 path=labels_path, offset=8 + bad)
    pixels = images[:, None].astype(np.float32)
    pixels /= 255.0
    return Dataset(pixels, labels.astype(np.int64), name=name, split=split)


def load_cifar10_bin(batch_paths, name="cifar10", split=""):
    """Read CIFAR-10 binary batches (3073-byte records, R/G/B planes) into
    one float32 array sized from the file sizes, filled a file at a time."""
    sizes = []
    for path in batch_paths:  # open() raises the OS's error for a directory
        with open(path, "rb") as f:
            sizes.append(os.fstat(f.fileno()).st_size)
    if not sizes:
        raise ValidationError("no CIFAR-10 batch files given")
    for path, size in zip(batch_paths, sizes):
        if size == 0 or size % CIFAR_RECORD_BYTES != 0:
            raise TruncatedFileError(
                f"size {size} is not a positive multiple of {CIFAR_RECORD_BYTES}",
                path=path, offset=size)
    n = sum(sizes) // CIFAR_RECORD_BYTES
    images = np.empty((n, 3, 32, 32), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for path, size in zip(batch_paths, sizes):
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) != size:
            raise TruncatedFileError(f"expected {size} bytes, read {len(raw)}",
                                     path=path, offset=len(raw))
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        found = records[:, 0]
        if found.max() > 9:
            bad = int(np.flatnonzero(found > 9)[0])
            raise CorruptRecordError(
                f"label byte {found[bad]} > 9 in record {bad}",
                path=path, offset=bad * CIFAR_RECORD_BYTES)
        stop = start + len(records)
        labels[start:stop] = found
        images[start:stop] = records[:, 1:].reshape(-1, 3, 32, 32)
        start = stop
    images /= 255.0
    return Dataset(images, labels, name=name, split=split)


class BatchIterator:
    """Deterministic per-epoch permutation; the final partial batch is kept.

    Epoch e uses the permutation seeded by (seed, e), so iteration order is
    reproducible and every index is visited exactly once per epoch.
    """

    def __init__(self, dataset, batch_size, seed=0):
        check_count("batch_size", batch_size)
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.epoch = 0

    def epoch_batches(self):
        """Yield (images, labels) batches for the current epoch, then bump it."""
        n = len(self.dataset)
        rng = np.random.default_rng((self.seed, self.epoch))
        order = rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]
        self.epoch += 1
