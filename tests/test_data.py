import struct

import numpy as np
import pytest

from phasornet.data import (
    BatchIterator,
    CIFAR_RECORD_BYTES,
    load_cifar10_bin,
    load_mnist_idx,
)
from phasornet.errors import (
    CorruptRecordError,
    MagicMismatchError,
    TruncatedFileError,
    ValidationError,
)


def write_idx_pair(tmp_path, pixels, labels):
    """Hand-built IDX fixture: pixels (N, H, W) uint8, labels (N,) uint8."""
    n, h, w = pixels.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, h, w))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def write_cifar_batch(tmp_path, records):
    """records: list of (label, pixels(3072,) uint8)."""
    path = tmp_path / "data_batch_1.bin"
    with open(path, "wb") as f:
        for label, pix in records:
            f.write(bytes([label]))
            f.write(np.asarray(pix, dtype=np.uint8).tobytes())
    return path


class TestMnistLoader:
    def test_two_record_fixture_round_trips_exactly(self, tmp_path):
        pixels = np.zeros((2, 4, 5), dtype=np.uint8)
        pixels[0, 1, 2] = 255
        pixels[1, 0, 0] = 51
        labels = np.array([7, 2], dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, labels)
        ds = load_mnist_idx(ip, lp)
        assert ds.images.shape == (2, 1, 4, 5)
        assert ds.images[0, 0, 1, 2] == pytest.approx(1.0)
        assert ds.images[1, 0, 0, 0] == pytest.approx(51 / 255)
        assert ds.images[0, 0, 0, 0] == 0.0
        np.testing.assert_array_equal(ds.labels, [7, 2])

    def test_all_zero_image(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 3, 3), dtype=np.uint8),
                                np.array([0], dtype=np.uint8))
        ds = load_mnist_idx(ip, lp)
        assert np.all(ds.images == 0.0)

    def test_magic_mismatch_swapped_files(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 3, 3), dtype=np.uint8),
                                np.array([0], dtype=np.uint8))
        with pytest.raises(MagicMismatchError, match="2049"):
            load_mnist_idx(ip, ip)  # image magic 2051 passed as labels? reversed:
        with pytest.raises(MagicMismatchError):
            load_mnist_idx(lp, lp)

    def test_truncated_image_payload(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                                np.array([0, 1], dtype=np.uint8))
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFileError, match=str(ip)):
            load_mnist_idx(ip, lp)

    def test_negative_dimension(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                                np.array([0, 1], dtype=np.uint8))
        ip.write_bytes(struct.pack(">iiii", 2051, -2, 3, 3) + bytes(18))
        with pytest.raises(CorruptRecordError, match="negative image dimension"):
            load_mnist_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ip, _ = write_idx_pair(a, np.zeros((2, 3, 3), dtype=np.uint8),
                               np.array([0, 1], dtype=np.uint8))
        _, lp = write_idx_pair(b, np.zeros((3, 3, 3), dtype=np.uint8),
                               np.array([0, 1, 2], dtype=np.uint8))
        with pytest.raises(TruncatedFileError, match="count"):
            load_mnist_idx(ip, lp)


class TestCifarLoader:
    def test_single_record(self, tmp_path):
        path = write_cifar_batch(tmp_path, [(7, np.full(3072, 255))])
        ds = load_cifar10_bin([path])
        assert ds.images.shape == (1, 3, 32, 32)
        assert np.all(ds.images == 1.0)
        assert ds.labels[0] == 7

    def test_plane_order(self, tmp_path):
        pix = np.zeros(3072, dtype=np.uint8)
        pix[0] = 255        # R plane, pixel (0,0)
        pix[1024] = 128     # G plane
        pix[2048 + 33] = 51  # B plane, pixel (1,1)
        path = write_cifar_batch(tmp_path, [(0, pix)])
        ds = load_cifar10_bin([path])
        assert ds.images[0, 0, 0, 0] == pytest.approx(1.0)
        assert ds.images[0, 1, 0, 0] == pytest.approx(128 / 255)
        assert ds.images[0, 2, 1, 1] == pytest.approx(51 / 255)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(bytes(CIFAR_RECORD_BYTES - 1))
        with pytest.raises(TruncatedFileError, match="3073"):
            load_cifar10_bin([path])

    def test_corrupt_label(self, tmp_path):
        path = write_cifar_batch(tmp_path, [(3, np.zeros(3072)),
                                            (10, np.zeros(3072))])
        with pytest.raises(CorruptRecordError, match="record 1"):
            load_cifar10_bin([path])


class TestBatching:
    def _dataset(self, n=10):
        from phasornet.data import Dataset
        return Dataset(np.zeros((n, 1, 2, 2), dtype=np.float32),
                       np.arange(n, dtype=np.int64) % 10)

    def test_batch_sizes_with_partial_tail(self):
        it = BatchIterator(self._dataset(10), 3, seed=0)
        sizes = [len(lbl) for _, lbl in it.epoch_batches()]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        a = BatchIterator(self._dataset(50), 7, seed=4)
        b = BatchIterator(self._dataset(50), 7, seed=4)
        la = np.concatenate([l for _, l in a.epoch_batches()])
        lb = np.concatenate([l for _, l in b.epoch_batches()])
        np.testing.assert_array_equal(la, lb)

    def test_different_seeds_differ(self):
        a = BatchIterator(self._dataset(1000), 1000, seed=1)
        b = BatchIterator(self._dataset(1000), 1000, seed=2)
        la = np.concatenate([l for _, l in a.epoch_batches()])
        lb = np.concatenate([l for _, l in b.epoch_batches()])
        assert not np.array_equal(la, lb)

    def test_epoch_covers_every_index_once(self):
        ds = self._dataset(37)
        it = BatchIterator(ds, 5, seed=9)
        for _ in range(3):  # across epochs too
            labels = np.concatenate([l for _, l in it.epoch_batches()])
            np.testing.assert_array_equal(np.sort(labels), np.sort(ds.labels))

    def test_bad_batch_size(self):
        with pytest.raises(ValidationError):
            BatchIterator(self._dataset(5), 0)
