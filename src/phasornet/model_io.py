"""Model file format: self-describing, versioned, byte-exact round trip.

Layout (all integers little-endian):
    magic           4 bytes  b"PHZN"
    version         uint32   2 (version 1 files, whose header also holds an
                             unused phase_shift_seed, load the same way)
    header length   uint32
    header          UTF-8 canonical JSON (sorted keys, no whitespace)
    phase shifts    float64[n_inputs]
    per layer       W then b, complex with interleaved re/im components
    optimizer state (optional, flagged in header): int64 step, then per
                    parameter m and v as real arrays matching the component
                    count of the parameter

Parameter byte width follows the header's dtype field (complex64/complex128).
"""

import json
import math
import operator
import os

import numpy as np

from .errors import DataFormatError, ValidationError, check_positive
from .phasor_net import LayerSpec, PhasorNetwork

MAGIC = b"PHZN"
VERSION = 2

# parameter dtype -> (parameter, optimizer moment) dtypes in the file
_WIRE = {"complex64": ("<c8", "<f4"), "complex128": ("<c16", "<f8")}


# header fields of each layer kind, besides kind and theta
_LAYER_FIELDS = {"dense": ("fan_in", "fan_out"),
                 "conv3x3": ("in_channels", "out_channels")}


def _layer_to_dict(spec):
    d = {"kind": spec.kind, "theta": float(spec.theta)}
    d.update((name, getattr(spec, name)) for name in _LAYER_FIELDS[spec.kind])
    return d


def save_model(net, path, optimizer=None):
    dtype_name = np.dtype(net.dtype).name
    if dtype_name not in _WIRE:
        raise ValidationError(f"cannot save {dtype_name} parameters; "
                              f"the format holds {' or '.join(_WIRE)}")
    if net.v_threshold is not None:  # the threshold load_model accepts
        check_positive("v_threshold", net.v_threshold)
    wide, real = _WIRE[dtype_name]
    header = {
        "dtype": dtype_name,
        "input_shape": list(net.input_shape),
        "layers": [_layer_to_dict(s) for s in net.layers],
        "v_threshold": net.v_threshold,
        "has_optimizer_state": optimizer is not None,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # arrays already in the file's dtype and layout are written without a copy
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).tobytes())
        f.write(np.uint32(len(blob)).tobytes())
        f.write(blob)
        f.write(np.ascontiguousarray(net.phase_shifts, dtype="<f8"))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype=wide))
            f.write(np.ascontiguousarray(b, dtype=wide))
        if optimizer is not None:
            f.write(np.int64(optimizer.t).tobytes())
            for m, v in zip(optimizer.m, optimizer.v):
                f.write(np.ascontiguousarray(m, dtype=real))
                f.write(np.ascontiguousarray(v, dtype=real))


def _take(src, dtype, count, path, what):
    """The next count items of dtype from src = (open model file, its size),
    read straight into a fresh 1-d array."""
    f, size = src
    dtype = np.dtype(dtype)
    if size - f.tell() < count * dtype.itemsize:
        raise DataFormatError(f"file ended inside {what}", path=path, offset=f.tell())
    arr = np.empty(count, dtype=dtype)
    f.readinto(arr.view(np.uint8))
    return arr


def load_model(path, with_optimizer=False):
    """Returns net, or (net, optimizer_state) when with_optimizer is True.

    optimizer_state is None if the file carries none, else a dict with keys
    t, m, v: the Adam step count and moments that save_model wrote.
    """
    with open(path, "rb") as f:
        net, opt_state = _read_model((f, os.fstat(f.fileno()).st_size), path)
    return (net, opt_state) if with_optimizer else net


def _read_model(src, path):
    if _take(src, np.uint8, 4, path, "magic").tobytes() != MAGIC:
        raise DataFormatError(f"bad magic; not a model file", path=path, offset=0)
    version = int(_take(src, "<u4", 1, path, "version")[0])
    if version not in (1, VERSION):
        raise DataFormatError(
            f"unsupported model format version {version} (expected 1 or {VERSION})",
            path=path, offset=4)
    hlen = int(_take(src, "<u4", 1, path, "header length")[0])
    blob = _take(src, np.uint8, hlen, path, "header").tobytes()
    try:
        header = json.loads(blob.decode())
        wide, real = _WIRE[header["dtype"]]
        dtype = np.dtype(header["dtype"])
        input_shape = tuple(operator.index(d) for d in header["input_shape"])
        layers = [LayerSpec(**d) for d in header["layers"]]
        if not layers:
            raise ValueError("no layers")
        param_shapes, shape = [], input_shape
        for spec in layers:
            wshape, bshape, shape = spec.shapes(shape)
            param_shapes += [wshape, bshape]
        v_threshold = header["v_threshold"]
        # json gives exact int/float types, so a bool fails the type test
        if not (v_threshold is None
                or type(v_threshold) in (int, float) and 0 < v_threshold < math.inf):
            raise ValueError(f"v_threshold {v_threshold!r} is not a finite positive number")
        has_optimizer_state = header["has_optimizer_state"]
        if type(has_optimizer_state) is not bool:
            raise ValueError(f"has_optimizer_state {has_optimizer_state!r} is not true or false")
    except (ValueError, KeyError, TypeError) as e:
        raise DataFormatError(f"malformed header: {type(e).__name__}: {e}",
                              path=path, offset=12) from None
    at = src[0].tell()
    shifts = _take(src, "<f8", int(np.prod(input_shape)), path, "phase shifts")
    bad = np.flatnonzero(~np.isfinite(shifts))
    if bad.size:
        raise DataFormatError(f"phase shift {shifts[bad[0]]} of input {bad[0]} is not finite",
                              path=path, offset=at + 8 * int(bad[0]))
    params = [_take(src, wide, int(np.prod(shape)), path, "parameters")
              .reshape(shape).astype(dtype, copy=False) for shape in param_shapes]

    opt_state = None
    if has_optimizer_state:
        t = int(_take(src, "<i8", 1, path, "optimizer step")[0])
        m, v = [], []
        for ref in params:
            # shape of the interleaved-real view of the parameter
            rshape = ref.shape[:-1] + (ref.shape[-1] * 2,)
            m.append(_take(src, real, ref.size * 2, path, "optimizer m").reshape(rshape))
            v.append(_take(src, real, ref.size * 2, path, "optimizer v").reshape(rshape))
        opt_state = {"t": t, "m": m, "v": v}
    f, size = src
    if f.tell() != size:
        raise DataFormatError(
            f"{size - f.tell()} trailing bytes after payload", path=path, offset=f.tell())

    net = PhasorNetwork(input_shape, layers, params[0::2], params[1::2],
                        phase_shifts=shifts, v_threshold=v_threshold)
    return net, opt_state
