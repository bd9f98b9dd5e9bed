"""The phasor network: encoders, activation, forward pass, loss, backprop.

Neuron states live on the unit circle (or at exactly zero when thresholded
off). Inference is h^{(l)} = f(W h^{(l-1)} + b, Theta) with the thresholding
and normalizing activation f(z) = z/|z| if |z| - Theta > 0 else 0. The loss
is the phase-alignment objective L = 0.5 ||y - yhat||^2 = N_y - sum cos(dtheta)
for all-active outputs, and gradients are assembled from the real 2x2
Jacobian of z -> z/|z| applied per unit.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .complex_core import matvec, conv2d_valid
from .errors import DimensionError, ValidationError

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
        if self.theta < 0:
            raise ValidationError(f"threshold must be >= 0, got {self.theta}")


@dataclass
class TargetEncoding:
    """Class phases: the positive class sits pi out of phase with the rest."""

    phases: np.ndarray
    positive_phase: float = POSITIVE_PHASE
    negative_phase: float = NEGATIVE_PHASE


@dataclass
class ForwardTrace:
    """Per-layer pre-activations, activations and active masks from forward(),
    plus each conv layer's im2col input columns (None for dense layers),
    which backward() reuses. The columns keep the batch axis even for a
    single example."""

    x: np.ndarray
    z: list
    h: list
    masks: list
    cols: list

    @property
    def output(self):
        return self.h[-1]


@dataclass
class Gradients:
    weights: list
    biases: list
    thetas: list  # dL/dTheta per layer; reported as zero (threshold not trained)


class PhasorNetwork:
    """Ordered layers with complex weights/biases and per-layer thresholds."""

    def __init__(self, input_shape, layers, weights, biases,
                 phase_shifts=None, phase_shift_seed=0, v_threshold=None):
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
        self.phase_shift_seed = int(phase_shift_seed)
        self.v_threshold = v_threshold
        self._check_shapes()

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, input_shape, layer_specs, seed=0, dtype=np.complex64,
               use_phase_shifts=False, phase_shift_seed=None):
        """Initialize weights with independent Gaussian re/im parts of
        standard deviation 1/sqrt(fan_in); biases zero."""
        rng = np.random.default_rng(seed)
        cls._shape_chain(input_shape, layer_specs)  # validates consistency
        weights, biases = [], []
        for spec in layer_specs:
            if spec.kind == "dense":
                std = 1.0 / np.sqrt(spec.fan_in)
                w = rng.normal(0.0, std, (spec.fan_out, spec.fan_in)) \
                    + 1j * rng.normal(0.0, std, (spec.fan_out, spec.fan_in))
                b = np.zeros(spec.fan_out, dtype=np.complex128)
            else:
                fan_in = spec.in_channels * 9
                std = 1.0 / np.sqrt(fan_in)
                shape = (spec.out_channels, spec.in_channels, 3, 3)
                w = rng.normal(0.0, std, shape) + 1j * rng.normal(0.0, std, shape)
                b = np.zeros(spec.out_channels, dtype=np.complex128)
            weights.append(w.astype(dtype))
            biases.append(b.astype(dtype))
        if phase_shift_seed is None:
            phase_shift_seed = seed
        shifts = None
        if use_phase_shifts:
            shifts = make_phase_shifts(int(np.prod(input_shape)), phase_shift_seed)
        return cls(input_shape, layer_specs, weights, biases,
                   phase_shifts=shifts, phase_shift_seed=phase_shift_seed)

    @staticmethod
    def _shape_chain(input_shape, layer_specs):
        """Activation shape entering each layer (conv shapes as (C, H, W))."""
        shapes = []
        cur = tuple(input_shape)
        for spec in layer_specs:
            shapes.append(cur)
            if spec.kind == "conv3x3":
                if len(cur) != 3:
                    raise DimensionError(
                        f"conv3x3 layer requires (C,H,W) input, got shape {cur}"
                    )
                c, h, w = cur
                if c != spec.in_channels:
                    raise DimensionError(
                        f"conv3x3 expects {spec.in_channels} channels, got {c}"
                    )
                cur = (spec.out_channels, h - 2, w - 2)
            else:
                n = int(np.prod(cur))
                if n != spec.fan_in:
                    raise DimensionError(
                        f"dense layer expects fan_in {spec.fan_in}, got {n} (shape {cur})"
                    )
                cur = (spec.fan_out,)
        shapes.append(cur)
        return shapes[:-1]

    def activation_shapes(self):
        """Shapes of h^(0) .. h^(L): input shape plus each layer's output."""
        chain = self._shape_chain(self.input_shape, self.layers)
        last = self.layers[-1]
        if last.kind == "dense":
            final = (last.fan_out,)
        else:
            c, h, w = chain[-1]
            final = (last.out_channels, h - 2, w - 2)
        return chain + [final]

    def _check_shapes(self):
        chain = self._shape_chain(self.input_shape, self.layers)
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise DimensionError("weights/biases count does not match layer count")
        for spec, w, b in zip(self.layers, self.weights, self.biases):
            if spec.kind == "dense":
                want_w, want_b = (spec.fan_out, spec.fan_in), (spec.fan_out,)
            else:
                want_w = (spec.out_channels, spec.in_channels, 3, 3)
                want_b = (spec.out_channels,)
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
        spec = self.layers[-1]
        return spec.fan_out if spec.kind == "dense" else spec.out_channels

    def astype(self, dtype):
        return PhasorNetwork(
            self.input_shape,
            self.layers,
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
            phase_shifts=self.phase_shifts.copy(),
            phase_shift_seed=self.phase_shift_seed,
            v_threshold=self.v_threshold,
        )

    def parameters(self):
        """Flat list of (weight, bias) arrays, layer order."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params):
        for i in range(len(self.layers)):
            self.weights[i] = params[2 * i]
            self.biases[i] = params[2 * i + 1]
        self._check_shapes()


# -- encoders ----------------------------------------------------------------


def encode_input(pixels, dtype=np.complex64):
    """Map pixel values in [0,1] to unit phasors with phase pi*(1 - p).

    Large values get small phases (early spikes): phase is inversely
    proportional to pixel magnitude.
    """
    p = np.asarray(pixels, dtype=np.float64)
    # written so that NaN, which fails every comparison, is rejected too
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValidationError(
            f"pixels must lie in [0,1]; got range [{p.min()}, {p.max()}]"
        )
    theta = np.pi * (1.0 - p)
    return np.exp(1j * theta).astype(dtype)


def make_phase_shifts(n, seed):
    """Fixed per-input random phase shifts, uniform over [0, 2*pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, n)


def apply_input_phase_shift(x, shifts):
    """Rotate each input phasor by its fixed shift: x_i <- x_i e^{i s_i}.

    shifts is a flat vector over input components; x may carry a leading
    batch axis and/or a (C, H, W) layout with the same number of components.
    """
    x = np.asarray(x)
    shifts = np.asarray(shifts, dtype=np.float64)
    rot = np.exp(1j * shifts).astype(x.dtype)
    if x.size == rot.size:
        rot = rot.reshape(x.shape)
    elif x.size % rot.size == 0 and int(np.prod(x.shape[1:])) == rot.size:
        rot = rot.reshape((1,) + x.shape[1:])
    else:
        raise DimensionError(
            f"phase shift vector of {rot.size} entries does not match input {x.shape}"
        )
    return x * rot


def encode_target(cls, n_classes):
    """Binary-phase-keyed target: positive class at pi, the rest at 0."""
    cls = int(cls)
    if not 0 <= cls < n_classes:
        raise ValidationError(f"class {cls} out of range [0, {n_classes})")
    phases = np.full(n_classes, NEGATIVE_PHASE, dtype=np.float64)
    phases[cls] = POSITIVE_PHASE
    return TargetEncoding(phases)


def encode_target_phases(labels, n_classes):
    """Batched variant: (B,) int labels -> (B, n_classes) phase array."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels out of range [0, {n_classes})")
    phases = np.full((labels.shape[0], n_classes), NEGATIVE_PHASE, dtype=np.float64)
    phases[np.arange(labels.shape[0]), labels] = POSITIVE_PHASE
    return phases


# -- activation and its Jacobian ---------------------------------------------


def tpam_activation(z, theta=0.0, return_mask=False):
    """Project onto the unit circle if |z| - theta > 0, else exactly zero.

    With return_mask, also returns the boolean mask of active units. A NaN
    pre-activation is inactive, and its output is NaN, not zero.
    """
    z = np.asarray(z)
    mag = np.abs(z)
    mask = mag > theta  # |z| - theta > 0, without forming the difference
    # numpy divides by a real-valued complex as a product with its reciprocal,
    # so z * (1/|z|) equals z / |z| bit for bit
    inv = np.reciprocal(mag, out=np.zeros_like(mag), where=mask)
    h = z * inv
    return (h, mask) if return_mask else h


def activation_jacobian(z):
    """Real 2x2 Jacobian [[du/da, du/db], [dv/da, dv/db]] of z -> z/|z|.

    Singular at z = 0; callers must route |z| <= Theta units to zero gradient.
    """
    a, b = float(np.real(z)), float(np.imag(z))
    r = np.hypot(a, b)
    if r == 0.0:
        raise ValidationError("activation Jacobian is singular at z = 0")
    r3 = r ** 3
    return np.array([[b * b / r3, -a * b / r3], [-a * b / r3, a * a / r3]])


def _activation_backward(g, z, mask):
    """Pull a real-pair cotangent g (as complex: Re->dL/du, Im->dL/dv)
    through the normalization; exact zero through inactive units."""
    a = np.real(z)
    b = np.imag(z)
    r = np.abs(z)
    r3 = np.where(mask, r, 1.0) ** 3
    s = (np.real(g) * b - np.imag(g) * a) / r3
    gz = (s * b - 1j * (s * a)).astype(z.dtype)
    return np.where(mask, gz, np.zeros((), dtype=z.dtype))


# -- forward / loss / backward -----------------------------------------------


def forward(net, x):
    """Run inference, retaining pre-activations, activations and masks.

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
    zs, hs, masks, cols = [], [], [], []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        c = None
        if spec.kind == "dense":
            if h.ndim > 2:
                h = h.reshape(h.shape[0], -1)
            z = matvec(w, h, b)
        else:
            z, c = conv2d_valid(h, w, b, return_cols=True)
        h, mask = tpam_activation(z, spec.theta, return_mask=True)
        zs.append(z)
        hs.append(h)
        masks.append(mask)
        cols.append(c)
    if single:
        x = x[0]
        zs = [z[0] for z in zs]
        hs = [a[0] for a in hs]
        masks = [m[0] for m in masks]
    return ForwardTrace(x=x, z=zs, h=hs, masks=masks, cols=cols)


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


def loss_phase_gradient(theta, theta_hat):
    """dL/dthetahat = sin(theta - thetahat)."""
    return np.sin(np.asarray(theta, dtype=np.float64) - np.asarray(theta_hat, dtype=np.float64))


def backward(net, trace, target_phases):
    """Gradients of the batch-mean loss w.r.t. every weight/bias component.

    target_phases: (n_out,) or (B, n_out) real phase targets matching the
    trace batch. Returns complex gradient arrays whose re/im parts are the
    partials w.r.t. the corresponding parameter components; dL/dTheta slots
    are zero (thresholds are not trained).
    """
    if isinstance(target_phases, TargetEncoding):
        target_phases = target_phases.phases
    target_phases = np.asarray(target_phases, dtype=np.float64)
    single = trace.x.shape == net.input_shape
    hs = [trace.x] + list(trace.h)
    zs, masks = trace.z, trace.masks
    if single:
        hs = [h[None] for h in hs]
        zs = [z[None] for z in zs]
        masks = [m[None] for m in masks]
        target_phases = target_phases[None]
    batch = hs[0].shape[0]
    if target_phases.shape != zs[-1].shape:
        raise DimensionError(
            f"target phases {target_phases.shape} do not match output {zs[-1].shape}"
        )

    y = np.exp(1j * target_phases).astype(net.dtype)
    g = (hs[-1] - y) / batch  # d(mean loss)/d yhat as re/im pairs

    g_weights = [None] * len(net.layers)
    g_biases = [None] * len(net.layers)
    shape_chain = PhasorNetwork._shape_chain(net.input_shape, net.layers)
    # layer 0's input gradient is the network input's, which nothing uses
    for l in range(len(net.layers) - 1, -1, -1):
        spec, w = net.layers[l], net.weights[l]
        gz = _activation_backward(g, zs[l], masks[l])
        if spec.kind == "dense":
            g_weights[l] = gz.T @ np.conj(hs[l].reshape(batch, -1))
            g_biases[l] = gz.sum(axis=0)
            if l:
                g = (gz @ np.conj(w)).reshape((batch,) + shape_chain[l])
        else:
            g_weights[l] = _kernels.conv2d_backward_kernels(trace.cols[l], gz)
            g_biases[l] = gz.sum(axis=(0, 2, 3))
            if l:
                g = _kernels.conv2d_backward_input(gz, w)
    return Gradients(
        weights=g_weights,
        biases=g_biases,
        thetas=[0.0] * len(net.layers),
    )


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
