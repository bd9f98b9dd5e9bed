"""Seeded synthetic inputs with the shapes of the paper's datasets.

The real MNIST files cannot be assumed present, so every workload trains and
runs on prototype-plus-noise images: ten random prototypes, one per class,
each example its class prototype plus Gaussian pixel noise, clipped to
[0, 1]. Like MNIST digits, a prototype is mostly dark background with a
quarter of its pixels bright. The conv preset learns these steadily; with
every prototype pixel uniform in [0.1, 0.9] its loss stalled near 2.0 for
some seeds, held-out error swinging between 0.55 and 1.0 over ten epochs.
"""

import os
import struct

import numpy as np


def prototype_images(n, side, seed, noise=0.15, bright=0.25):
    """(n, 1, side, side) uint8 images and (n,) int64 labels, classes balanced
    and shuffled."""
    rng = np.random.default_rng(seed)
    shape = (10, 1, side, side)
    protos = np.where(rng.uniform(size=shape) < bright, rng.uniform(0.6, 1.0, shape), 0.0)
    labels = rng.permutation(np.arange(n) % 10)
    pixels = protos[labels] + rng.normal(0.0, noise, (n, 1, side, side))
    return np.round(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8), labels


def write_mnist_idx(directory, prefix, images, labels):
    """Write images (N, 1, H, W) uint8 and labels as a big-endian IDX pair;
    returns (images_path, labels_path)."""
    n, _, rows, cols = images.shape
    images_path = os.path.join(directory, f"{prefix}-images-idx3-ubyte")
    labels_path = os.path.join(directory, f"{prefix}-labels-idx1-ubyte")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, rows, cols))
        f.write(np.ascontiguousarray(images).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.astype(np.uint8).tobytes())
    return images_path, labels_path
