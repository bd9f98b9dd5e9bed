"""Model file format: self-describing, versioned, byte-exact round trip.

Layout (all integers little-endian):
    magic           4 bytes  b"PHZN"
    version         uint32   currently 1
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
import os

import numpy as np

from .errors import DataFormatError
from .phasor_net import LayerSpec, PhasorNetwork

MAGIC = b"PHZN"
VERSION = 1

_DTYPES = {"complex64": np.complex64, "complex128": np.complex128}


def _layer_to_dict(spec):
    d = {"kind": spec.kind, "theta": float(spec.theta)}
    if spec.kind == "dense":
        d["fan_in"] = spec.fan_in
        d["fan_out"] = spec.fan_out
    else:
        d["in_channels"] = spec.in_channels
        d["out_channels"] = spec.out_channels
    return d


def _layer_from_dict(d):
    return LayerSpec(
        kind=d["kind"],
        fan_in=d.get("fan_in", 0),
        fan_out=d.get("fan_out", 0),
        in_channels=d.get("in_channels", 0),
        out_channels=d.get("out_channels", 0),
        theta=d["theta"],
    )


def save_model(net, path, optimizer=None):
    dtype_name = np.dtype(net.dtype).name
    header = {
        "dtype": dtype_name,
        "input_shape": list(net.input_shape),
        "layers": [_layer_to_dict(s) for s in net.layers],
        "phase_shift_seed": net.phase_shift_seed,
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
        wide = "<c16" if dtype_name == "complex128" else "<c8"
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype=wide))
            f.write(np.ascontiguousarray(b, dtype=wide))
        if optimizer is not None:
            real = "<f8" if dtype_name == "complex128" else "<f4"
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
    t, m, v suitable for Adam.load_state.
    """
    with open(path, "rb") as f:
        net, opt_state = _read_model((f, os.fstat(f.fileno()).st_size), path)
    return (net, opt_state) if with_optimizer else net


def _read_model(src, path):
    if _take(src, np.uint8, 4, path, "magic").tobytes() != MAGIC:
        raise DataFormatError(f"bad magic; not a model file", path=path, offset=0)
    version = int(_take(src, "<u4", 1, path, "version")[0])
    if version != VERSION:
        raise DataFormatError(
            f"unsupported model format version {version} (expected {VERSION})",
            path=path, offset=4)
    hlen = int(_take(src, "<u4", 1, path, "header length")[0])
    header = json.loads(_take(src, np.uint8, hlen, path, "header").tobytes().decode())
    dtype = _DTYPES.get(header["dtype"])
    if dtype is None:
        raise DataFormatError(f"unknown dtype {header['dtype']}", path=path)
    input_shape = tuple(header["input_shape"])
    layers = [_layer_from_dict(d) for d in header["layers"]]
    n_in = int(np.prod(input_shape))
    shifts = _take(src, "<f8", n_in, path, "phase shifts")

    wide = "<c16" if header["dtype"] == "complex128" else "<c8"
    weights, biases = [], []
    for spec in layers:
        if spec.kind == "dense":
            wshape, bshape = (spec.fan_out, spec.fan_in), (spec.fan_out,)
        else:
            wshape = (spec.out_channels, spec.in_channels, 3, 3)
            bshape = (spec.out_channels,)
        for shape, dest in ((wshape, weights), (bshape, biases)):
            arr = _take(src, wide, int(np.prod(shape)), path, "parameters")
            dest.append(arr.reshape(shape).astype(dtype, copy=False))

    opt_state = None
    if header.get("has_optimizer_state"):
        real = "<f8" if header["dtype"] == "complex128" else "<f4"
        t = int(_take(src, "<i8", 1, path, "optimizer step")[0])
        m, v = [], []
        for spec, w, b in zip(layers, weights, biases):
            for ref in (w, b):
                # shape of the interleaved-real view of the parameter
                rshape = ref.shape[:-1] + (ref.shape[-1] * 2,)
                n = ref.size * 2
                m.append(_take(src, real, n, path, "optimizer m").reshape(rshape))
                v.append(_take(src, real, n, path, "optimizer v").reshape(rshape))
        opt_state = {"t": t, "m": m, "v": v}
    f, size = src
    if f.tell() != size:
        raise DataFormatError(
            f"{size - f.tell()} trailing bytes after payload", path=path, offset=f.tell())

    net = PhasorNetwork(
        input_shape, layers, weights, biases,
        phase_shifts=shifts,
        phase_shift_seed=header["phase_shift_seed"],
        v_threshold=header["v_threshold"],
    )
    return net, opt_state
