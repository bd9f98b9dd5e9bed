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

from conftest import traced_peak


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


def write_cifar_batch(tmp_path, records, name="data_batch_1.bin"):
    """records: list of (label, pixels(3072,) uint8)."""
    path = tmp_path / name
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

    def test_corrupt_label(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                                np.array([1, 12, 255], dtype=np.uint8))
        with pytest.raises(CorruptRecordError, match="label byte 12 > 9") as info:
            load_mnist_idx(ip, lp)
        assert info.value.offset == 9 and str(lp) in str(info.value)


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


def random_cifar_file(tmp_path, rng, n, name):
    """n random records; returns the path and the records as (n, 3073) uint8."""
    records = rng.integers(0, 256, (n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] %= 10
    path = tmp_path / name
    path.write_bytes(records.tobytes())
    return path, records


class TestCifarBatches:
    def test_files_fill_one_array_in_order(self, tmp_path):
        rng = np.random.default_rng(2)
        p1, r1 = random_cifar_file(tmp_path, rng, 5, "data_batch_1.bin")
        p2, r2 = random_cifar_file(tmp_path, rng, 3, "data_batch_2.bin")
        ds = load_cifar10_bin([p1, p2])
        records = np.concatenate([r1, r2])
        # the recipe before the in-place fill: a float32 cast, then / 255
        want = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
        assert ds.images.dtype == np.float32 and ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.images, want)
        np.testing.assert_array_equal(ds.labels, records[:, 0])

    def test_corrupt_label_in_second_file(self, tmp_path):
        rng = np.random.default_rng(3)
        p1, _ = random_cifar_file(tmp_path, rng, 2, "data_batch_1.bin")
        p2 = write_cifar_batch(tmp_path, [(1, np.zeros(3072)), (12, np.zeros(3072))],
                               name="data_batch_2.bin")
        with pytest.raises(CorruptRecordError, match="record 1") as info:
            load_cifar10_bin([p1, p2])
        assert str(p2) in str(info.value)

    def test_no_files_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="no CIFAR-10 batch files"):
            load_cifar10_bin([])


class TestLoaderMemory:
    """Each loader's traced peak stays within 1.3x of the dataset it returns:
    the float32 images are made once and scaled in place."""

    def test_mnist(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, (2000, 28, 28), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, rng.integers(0, 10, 2000))
        ds = load_mnist_idx(ip, lp)
        np.testing.assert_array_equal(
            ds.images, pixels[:, None].astype(np.float32) / 255.0)
        result = ds.images.nbytes + ds.labels.nbytes
        assert traced_peak(lambda: load_mnist_idx(ip, lp)) <= 1.3 * result

    def test_cifar(self, tmp_path):
        path, _ = random_cifar_file(tmp_path, np.random.default_rng(5), 1000,
                                    "data_batch_1.bin")
        ds = load_cifar10_bin([path])
        result = ds.images.nbytes + ds.labels.nbytes
        assert traced_peak(lambda: load_cifar10_bin([path])) <= 1.3 * result


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
