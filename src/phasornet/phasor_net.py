"""The phasor network: encoders, activation, forward pass, loss, backprop.

Neuron states live on the unit circle (or at exactly zero when thresholded
off). Inference is h^{(l)} = f(W h^{(l-1)} + b, Theta) with the thresholding
and normalizing activation f(z) = z/|z| if |z| - Theta > 0 else 0. The loss
is the phase-alignment objective L = 0.5 ||y - yhat||^2 = N_y - sum cos(dtheta)
for all-active outputs. Backprop pulls each cotangent through z -> z/|z| as
its tangent projection, the real 2x2 Jacobian of the map applied per unit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .complex_core import matvec, conv2d_valid
from .errors import DimensionError, ValidationError, check_count

POSITIVE_PHASE = np.pi
NEGATIVE_PHASE = 0.0


@dataclass
class LayerSpec:
    """One layer: dense (fan_in -> fan_out) or 3x3 valid conv (channels)."""

    kind: str  # "dense" | "conv3x3"
    fan_in: int = 0
    fan_out: int = 0
    in_channels: int = 0
    out_channels: int = 0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dense", "conv3x3"):
            raise ValidationError(f"unknown layer kind: {self.kind!r}")
        for name in ("fan_in", "fan_out", "in_channels", "out_channels"):
            check_count(name, getattr(self, name), 0)
        if not (np.isfinite(self.theta) and self.theta >= 0):  # NaN fails too
            raise ValidationError(f"threshold must be finite and >= 0, got {self.theta}")

    def shapes(self, in_shape):
        """(weight, bias, output) shapes of this layer for an input of
        in_shape, conv activations as (C, H, W). Raises DimensionError when
        the input does not conform."""
        in_shape = tuple(in_shape)
        if not in_shape or min(in_shape) < 1:
            raise DimensionError(f"layer input shape {in_shape} has no units")
        if self.kind == "dense":
            n = math.prod(in_shape)
            if n != self.fan_in:
                raise DimensionError(
                    f"dense layer expects fan_in {self.fan_in}, got {n} (shape {in_shape})"
                )
            return (self.fan_out, self.fan_in), (self.fan_out,), (self.fan_out,)
        if len(in_shape) != 3 or min(in_shape[1:]) < 3:
            raise DimensionError(
                f"conv3x3 layer requires (C,H,W) input with H, W >= 3, got shape {in_shape}"
            )
        c, h, w = in_shape
        if c != self.in_channels:
            raise DimensionError(f"conv3x3 expects {self.in_channels} channels, got {c}")
        k = self.out_channels
        return (k, c, 3, 3), (k,), (k, h - 2, w - 2)


@dataclass
class TargetEncoding:
    """Class phases: the positive class sits pi out of phase with the rest."""

    phases: np.ndarray


@dataclass
class ForwardTrace:
    """Per-layer activations, active masks and reciprocal magnitudes from
    forward(), plus each conv layer's im2col input columns (None for dense
    layers). inv[l] is 1/|z| of layer l's pre-activation z, exactly 0 where
    the unit is inactive; backward() reads it and the columns in place of z,
    which is not kept. The columns keep the batch axis even for a single
    example."""

    x: np.ndarray
    h: list
    masks: list
    inv: list
    cols: list

    @property
    def output(self):
        return self.h[-1]


@dataclass
class Gradients:
    weights: list
    biases: list


class PhasorNetwork:
    """Ordered layers with complex weights/biases and per-layer thresholds."""

    def __init__(self, input_shape, layers, weights, biases,
                 phase_shifts=None, v_threshold=None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = list(layers)
        self.weights = list(weights)
        self.biases = list(biases)
        n_in = int(np.prod(self.input_shape))
        if phase_shifts is None:
            phase_shifts = np.zeros(n_in, dtype=np.float64)
        self.phase_shifts = np.asarray(phase_shifts, dtype=np.float64)
        if self.phase_shifts.shape != (n_in,):
            raise DimensionError(
                f"phase shift vector has shape {self.phase_shifts.shape}, expected ({n_in},)"
            )
        self.v_threshold = v_threshold
        self._check_shapes()

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, input_shape, layer_specs, seed=0, dtype=np.complex64,
               use_phase_shifts=False):
        """Initialize weights with independent Gaussian re/im parts of
        standard deviation 1/sqrt(fan_in); biases zero. Each float64 draw is
        written straight into its part of the dtype array, so no complex128
        copy of a weight is made."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        shape = tuple(input_shape)
        for spec in layer_specs:
            wshape, bshape, shape = spec.shapes(shape)
            std = 1.0 / np.sqrt(np.prod(wshape[1:]))
            w = np.empty(wshape, dtype=dtype)
            w.real = rng.normal(0.0, std, wshape)
            w.imag = rng.normal(0.0, std, wshape)
            weights.append(w)
            biases.append(np.zeros(bshape, dtype=dtype))
        shifts = None
        if use_phase_shifts:
            shifts = make_phase_shifts(int(np.prod(input_shape)), seed)
        return cls(input_shape, layer_specs, weights, biases, phase_shifts=shifts)

    def activation_shapes(self):
        """Shapes of h^(0) .. h^(L): input shape plus each layer's output."""
        shapes = [self.input_shape]
        for spec in self.layers:
            shapes.append(spec.shapes(shapes[-1])[2])
        return shapes

    def _check_shapes(self):
        if not self.layers:
            raise DimensionError("a network needs at least one layer")
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise DimensionError("weights/biases count does not match layer count")
        for spec, shape, w, b in zip(self.layers, self.activation_shapes(),
                                     self.weights, self.biases):
            want_w, want_b, _ = spec.shapes(shape)
            if w.shape != want_w or b.shape != want_b:
                raise DimensionError(
                    f"parameter shapes {w.shape}/{b.shape} do not match spec {want_w}/{want_b}"
                )

    # -- conveniences -------------------------------------------------------

    @property
    def dtype(self):
        return self.weights[0].dtype

    @property
    def n_outputs(self):
        """Output units: fan_out of a dense last layer, channels of a conv,
        read off the last bias, whose shape LayerSpec.shapes fixed."""
        return len(self.biases[-1])

    def parameters(self):
        """Flat list of (weight, bias) arrays, layer order."""
        return interleave(self.weights, self.biases)


def interleave(weights, biases):
    """[w0, b0, w1, b1, ...]: the flat parameter order Adam and model files use."""
    return [a for pair in zip(weights, biases) for a in pair]


# -- encoders ----------------------------------------------------------------


def input_phases(pixels, shifts):
    """(B, n) float64 input phases pi*(1 - p) + s of a batch of B images of
    n pixels in [0,1], s the model's fixed per-input shifts.

    Large values get small phases (early spikes): phase is inversely
    proportional to pixel magnitude.
    """
    p = np.asarray(pixels, dtype=np.float64)
    p = p.reshape(p.shape[0], -1)
    # written so that NaN, which fails every comparison, is rejected too
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValidationError(
            f"pixels must lie in [0,1]; got range [{p.min()}, {p.max()}]"
        )
    if p.shape[1] != len(shifts):
        raise DimensionError(f"{len(shifts)} phase shifts do not match {p.shape[1]} pixels")
    return np.pi * (1.0 - p) + shifts


def make_phase_shifts(n, seed):
    """Fixed per-input random phase shifts, uniform over [0, 2*pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, n)


def encode_target(cls, n_classes):
    """Binary-phase-keyed target: positive class at pi, the rest at 0."""
    return TargetEncoding(encode_target_phases(np.array([cls]), n_classes)[0])


def encode_target_phases(labels, n_classes):
    """Batched variant: (B,) int labels -> (B, n_classes) phase array."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels out of range [0, {n_classes})")
    phases = np.full((labels.shape[0], n_classes), NEGATIVE_PHASE, dtype=np.float64)
    phases[np.arange(labels.shape[0]), labels] = POSITIVE_PHASE
    return phases


# -- activation and its pull-back --------------------------------------------


def tpam_activation(z, theta=0.0):
    """Project onto the unit circle if |z| - theta > 0, else exactly zero.

    Returns (h, mask, inv): the activations, the boolean mask of active units
    and the reciprocal magnitudes 1/|z|, exactly 0 where inactive. A NaN
    pre-activation is inactive, and its output is NaN, not zero.
    """
    z = np.asarray(z)
    mag = np.abs(z)
    mask = mag > theta  # |z| - theta > 0, without forming the difference
    # numpy divides by a real-valued complex as a product with its reciprocal,
    # so z * (1/|z|) equals z / |z| bit for bit
    inv = np.reciprocal(mag, out=np.zeros_like(mag), where=mask)
    return z * inv, mask, inv


def _activation_pullback(g, h, inv):
    """Pull a real-pair cotangent g (as complex: Re->dL/du, Im->dL/dv)
    through h = z/|z|, given h and inv = 1/|z| (0 where inactive).

    The Jacobian of z -> z/|z| projects onto the tangent i*h of the unit
    circle and scales by 1/|z|, so the pull-back is i*h * Im(conj(h)*g) * inv;
    inactive units (h = inv = 0) get exact zeros, and a NaN unit stays NaN.
    Works on one complex and one real buffer.
    """
    gz = np.conjugate(h)
    gz *= g
    t = np.multiply(gz.imag, inv)
    np.multiply(h, t, out=gz)
    gz *= 1j
    return gz


# -- forward / loss / backward -----------------------------------------------


def forward(net, x):
    """Run inference, retaining activations, masks, reciprocal magnitudes
    and conv columns (see ForwardTrace).

    x: complex array shaped like net.input_shape, or with a leading batch
    axis. All entries are expected to be unit phasors (or zero).
    """
    x = np.asarray(x, dtype=net.dtype)
    single = x.shape == net.input_shape
    if single:
        x = x[None]
    if x.shape[1:] != net.input_shape:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match network input {net.input_shape}"
        )
    h = x
    hs, masks, invs, cols = [], [], [], []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        c = None
        if spec.kind == "dense":
            if h.ndim > 2:
                h = h.reshape(h.shape[0], -1)
            z = matvec(w, h, b)
        else:
            z, c = conv2d_valid(h, w, b, return_cols=True)
        h, mask, inv = tpam_activation(z, spec.theta)
        hs.append(h)
        masks.append(mask)
        invs.append(inv)
        cols.append(c)
    if single:
        x = x[0]
        hs = [a[0] for a in hs]
        masks = [m[0] for m in masks]
        invs = [r[0] for r in invs]
    return ForwardTrace(x=x, h=hs, masks=masks, inv=invs, cols=cols)


def loss_cosine(output_phases, target_phases):
    """L = N_y - sum_i cos(theta_i - thetahat_i) (all outputs active)."""
    d = np.asarray(target_phases, dtype=np.float64) - np.asarray(output_phases, dtype=np.float64)
    return d.shape[-1] - np.cos(d).sum(axis=-1)


def loss_mse(output, target_phases):
    """L = 0.5 ||y - yhat||^2 with y_i = e^{i theta_i}.

    Works for inactive outputs too: yhat_i = 0 contributes 0.5 per unit.
    """
    y = np.exp(1j * np.asarray(target_phases, dtype=np.float64))
    d = y - np.asarray(output, dtype=np.complex128)
    return 0.5 * (d.real ** 2 + d.imag ** 2).sum(axis=-1)


def backward(net, trace, target_phases):
    """Gradients of the batch-mean loss w.r.t. every weight/bias component.

    target_phases: (n_out,) or (B, n_out) real phase targets matching the
    trace batch. Returns complex gradient arrays whose re/im parts are the
    partials w.r.t. the corresponding parameter components (thresholds are
    not trained).
    """
    target_phases = np.asarray(target_phases, dtype=np.float64)
    single = trace.x.shape == net.input_shape
    hs = [trace.x] + list(trace.h)
    invs = trace.inv
    if single:
        hs = [h[None] for h in hs]
        invs = [r[None] for r in invs]
        target_phases = target_phases[None]
    batch = hs[0].shape[0]
    if target_phases.shape != hs[-1].shape:
        raise DimensionError(
            f"target phases {target_phases.shape} do not match output {hs[-1].shape}"
        )

    y = np.exp(1j * target_phases).astype(net.dtype)
    g = (hs[-1] - y) / batch  # d(mean loss)/d yhat as re/im pairs

    g_weights = [None] * len(net.layers)
    g_biases = [None] * len(net.layers)
    in_shapes = net.activation_shapes()
    # layer 0's input gradient is the network input's, which nothing uses
    for l in range(len(net.layers) - 1, -1, -1):
        spec, w = net.layers[l], net.weights[l]
        gz = _activation_pullback(g, hs[l + 1], invs[l])
        if spec.kind == "dense":
            g_weights[l] = gz.T @ np.conj(hs[l].reshape(batch, -1))
            g_biases[l] = gz.sum(axis=0)
            if l:
                # conj(gz) @ w conjugates the batch-sized operand, not w
                g = np.conjugate(gz) @ w
                np.conjugate(g, out=g)
                g = g.reshape((batch,) + in_shapes[l])
        else:
            g_weights[l] = _kernels.conv2d_backward_kernels(trace.cols[l], gz)
            g_biases[l] = gz.sum(axis=(0, 2, 3))
            if l:
                g = _kernels.conv2d_backward_input(gz, w)
    return Gradients(weights=g_weights, biases=g_biases)


# -- prediction --------------------------------------------------------------


def predict(output):
    """Class = the active output unit most out of phase with the rest.

    Scores argmax_i mean_{j != i} (1 - cos(theta_i - theta_j)) over active
    units; inactive units are excluded. Returns None when nothing is active.
    """
    p = int(predict_batch(np.asarray(output)[None])[0])
    return None if p < 0 else p


def predict_batch(outputs):
    """predict() over the rows of a (B, n_out) batch; -1 marks "no prediction"."""
    outputs = np.asarray(outputs)
    mag = np.abs(outputs)
    active = mag > 0.0
    n_active = active.sum(axis=1, keepdims=True)
    u = np.where(active, outputs / np.where(active, mag, 1.0), 0.0)
    # sum_{j != i} cos(ti - tj) = Re(conj(u_i) * total) - 1 for unit phasors
    cos_sum = np.real(np.conj(u) * u.sum(axis=1, keepdims=True)) - 1.0
    # a lone active unit scores 1 - 0/1; inactive units never win
    scores = np.where(active, 1.0 - cos_sum / np.maximum(n_active - 1, 1), -np.inf)
    pred = np.argmax(scores, axis=1)
    pred[n_active[:, 0] == 0] = -1
    return pred
