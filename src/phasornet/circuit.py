"""Circuit-level spiking simulator: soma/dendrite ODEs, resonant synapses,
delayed spike delivery, threshold-and-refractory firing, integrated on a
grid of dt by the exact step map of the linear ODEs (_circuit_kernels).

Every nonzero complex weight becomes one synapse with weight |W| and delay
phase(W) * T/2pi; a nonzero bias becomes a synapse driven by a reference
generator spiking at t = 0 each cycle. Input units are stimulus generators
spiking at their encoded phase times every cycle. Every synapse oscillator
resonates at exactly the cycle frequency, 2pi/T, so each dendrite
reconstructs the phasor sum of its inputs and the soma's threshold crossing
re-encodes the phase as a spike time.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _circuit_kernels as ck
from ._kernels import im2col
from .errors import NumericError, ValidationError, check_count, check_positive
from .phasor_net import forward, input_phases, preactivation, predict, predict_batch
from .spikemap import (TWO_PI, SpikeRaster, phase_to_time, raster_phases, synapse_delay,
                       time_to_phase)
from .training import encode_batch


@dataclass(frozen=True)
class CircuitParams:
    """Integration and circuit constants. Units: ms, mV, pA, pF, nS.

    Every synapse is an undamped oscillator resonant at exactly the cycle
    frequency, omega = 2pi/T. The step map is exact at any dt, but deliveries
    land on the dt grid and crossings are interpolated on it, so dt may be at
    most period/100, which is its default. Frozen, so that the kernel can
    cache its constants by the parameter values.
    """

    period: float = 10.0  # cycle period T, ms
    dt: float = None  # integration step, ms; default period/100
    n_cycles: int = 15
    c_m = 10.0  # membrane capacitance, pF; a constant, not a field
    w_spike = 0.3  # synapse reset activation, pA; a constant, not a field

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", self.period / 100)
        check_positive("period", self.period)
        check_positive("dt", self.dt)
        check_count("n_cycles", self.n_cycles)
        if self.dt > self.period / 100:
            raise ValidationError(
                f"period/dt ratio {self.period / self.dt:.1f} < 100; decrease dt"
            )

    @property
    def g_l(self):
        """Leak conductance, pi*C_m/T."""
        return np.pi * self.c_m / self.period

    @property
    def g_c(self):
        """Soma-dendrite conductance, 60*pi*C_m/T."""
        return 60.0 * np.pi * self.c_m / self.period

    @property
    def tau_d(self):
        """Dendrite averaging time constant, 0.8*T."""
        return 0.8 * self.period

    @property
    def omega(self):
        """Synapse oscillator angular frequency, 2pi/T."""
        return TWO_PI / self.period


@dataclass
class CircuitModel:
    """Flattened synapse/neuron topology ready for the integration kernel.

    The syn_* arrays come grouped by run, a source's synapses:
    out_ptr[s]:out_ptr[s + 1]. Construction puts each run in sending order
    for params.dt, by grid phase (synapses of equal phase keep their order,
    which build_circuit makes by owner), and builds the kernel's send plan
    (phase_key; see _circuit_kernels.send_plan). The synapse arrays, out_ptr
    and the plan are read-only, so an edit cannot leave the plan stale:
    dataclasses.replace makes a new circuit, with its own plan.
    """

    params: CircuitParams
    n_gen: int  # input generators + 1 reference generator
    n_neurons: int
    neuron_layer: np.ndarray  # (N,) raster layer index, 1-based
    layer_offsets: list  # first global neuron id per network layer
    layer_sizes: list
    syn_w: np.ndarray
    syn_delay: np.ndarray
    syn_owner: np.ndarray
    out_ptr: np.ndarray
    phase_shifts: np.ndarray
    phase_key: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order, self.phase_key = ck.send_plan(self)
        self.syn_w, self.syn_delay, self.syn_owner = (
            a.take(order) for a in (self.syn_w, self.syn_delay, self.syn_owner))
        self.out_ptr = self.out_ptr.view()  # read-only below; the caller's array is not
        for a in (self.syn_w, self.syn_delay, self.syn_owner, self.out_ptr, self.phase_key):
            a.flags.writeable = False

    @property
    def n_synapses(self):
        return self.syn_w.shape[0]

    @cached_property
    def out_syn(self):
        """The synapse at each out_ptr position, arange(n_synapses); built on first read."""
        return np.arange(self.n_synapses)

    @property
    def n_outputs(self):
        return self.layer_sizes[-1]


@dataclass
class CircuitResult:
    raster: SpikeRaster
    vm_max: np.ndarray  # per-neuron maximum membrane potential seen
    trace_times: np.ndarray = None  # time after each step, ms
    trace_vm: np.ndarray = None  # (n_steps, n_recorded)
    total_time: float = 0.0
    deliveries: int = 0  # one per arrival; two arrivals in one step reset a synapse once


def build_circuit(net, params=None):
    """One soma per hidden/output unit, one synapse per nonzero weight/bias.

    A layer's synapses are the nonzero entries of its [W | b] over the
    columns its forward pass multiplies: the im2col columns of its input for
    a conv layer, the whole input for a dense one, each with one more row
    for the reference generator, so the bias is that generator's weight.
    Synapses are stored once, in sending order, the one order the kernel
    reads: by source (input generators, the reference generator, then
    neurons), then by grid phase frac(delay / dt), then by owning neuron.
    Source s sends through synapses out_ptr[s]:out_ptr[s + 1], its run.
    This groups them by run; CircuitModel orders each run and builds the
    send plan.
    """
    if params is None:
        params = CircuitParams()
    shapes = net.activation_shapes()
    layer_sizes = [int(np.prod(s)) for s in shapes[1:]]
    n_in = int(np.prod(net.input_shape))
    n_gen = n_in + 1  # inputs + reference generator (drives biases, phase 0)
    ref_gen = n_in
    n_neurons = sum(layer_sizes)
    layer_offsets = np.cumsum([0] + layer_sizes[:-1]).tolist()
    neuron_layer = np.repeat(np.arange(1, len(layer_sizes) + 1), layer_sizes)

    owners, srcs, coeffs = [], [], []
    for l, spec in enumerate(net.layers):
        # the layer's input units as an image of their source ids; a conv
        # layer reads them through the im2col map its forward pass multiplies
        first = n_gen + layer_offsets[l - 1] if l > 0 else 0
        units = first + np.arange(int(np.prod(shapes[l]))).reshape(shapes[l])
        cols = im2col(units[None])[0] if spec.kind == "conv3x3" else units.reshape(-1, 1)
        # one more row for the reference generator, which the bias column weighs
        cols = np.vstack([cols, np.full(cols.shape[1], ref_gen)])
        w = net.weights[l]
        coeff = np.hstack([w.reshape(w.shape[0], -1), net.biases[l][:, None]])
        f, r = np.nonzero(coeff)
        positions = cols.shape[1]
        owners.append((layer_offsets[l] + f[:, None] * positions
                       + np.arange(positions)).reshape(-1))
        srcs.append(cols[r].reshape(-1))
        coeffs.append(np.repeat(coeff[f, r], positions))
    owner, src = np.concatenate(owners), np.concatenate(srcs)
    mag, delay = synapse_delay(np.concatenate(coeffs), params.period)
    # grouped by run (source), then by owner; a (source, owner) pair is one synapse
    order = np.argsort(src * n_neurons + owner)
    out_ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n_gen + n_neurons))])

    return CircuitModel(
        params=params,
        n_gen=n_gen,
        n_neurons=n_neurons,
        neuron_layer=neuron_layer,
        layer_offsets=layer_offsets,
        layer_sizes=layer_sizes,
        syn_w=mag[order],
        syn_delay=delay[order],
        syn_owner=owner[order].astype(np.int32),
        out_ptr=out_ptr,
        phase_shifts=net.phase_shifts.copy(),
    )


def stimulus_phase_offsets(circuit, image):
    """Spike-time offsets within a cycle for all generators (reference last):
    the exact float64 times of the image's input_phases."""
    theta = input_phases(np.asarray(image)[None], circuit.phase_shifts)[0]
    return np.concatenate([phase_to_time(theta, circuit.params.period), [0.0]])


def run(circuit, stimuli, v_threshold=None, record_neurons=()):
    """Integrate the circuit over a stimulus sequence.

    stimuli: non-empty list of (image, n_cycles); examples switch
    instantaneously.
    record_neurons: global neuron ids whose V_m trace is kept every step.
    Returns a CircuitResult whose raster contains generator volleys as layer
    0 plus every soma spike (layers 1..L), sorted by time.
    """
    p = circuit.params
    if v_threshold is None:
        raise ValidationError(
            "no spike threshold set; pass v_threshold, e.g. from calibrate_threshold"
        )
    check_positive("spike threshold", v_threshold)
    rec_ids = np.asarray(sorted(record_neurons), dtype=np.int64)
    if rec_ids.size and not (rec_ids[0] >= 0 and rec_ids[-1] < circuit.n_neurons):
        raise ValidationError(
            f"recorded neuron ids must lie in [0, {circuit.n_neurons}), got {rec_ids.tolist()}")
    starts, offsets, t0 = [], [], 0.0  # each stimulus starts where the one before it ends
    for image, n_cycles in stimuli:
        check_count("n_cycles", n_cycles)
        starts.append(t0 + np.arange(n_cycles) * p.period)
        offsets += [stimulus_phase_offsets(circuit, image)] * n_cycles
        t0 += n_cycles * p.period
    if not starts:
        raise ValidationError("stimuli must hold at least one (image, n_cycles) pair")
    # every generator's spike time in every cycle, the reference generator last
    gen_times = np.concatenate(starts)[:, None] + np.array(offsets)
    total_cycles = gen_times.shape[0]
    n_steps = int(round(total_cycles * p.period / p.dt))
    with np.errstate(over="ignore", invalid="ignore"):  # blow-ups raise below
        kernel = ck.Integrator(circuit, float(v_threshold), n_steps, gen_times)
        rec_vm = np.zeros((n_steps, rec_ids.shape[0]))
        err, step = kernel.run(rec_ids, rec_vm)
    if err >= 0:
        raise NumericError(
            f"integration blew up at neuron {err}, t = {step * p.dt:.3f} ms")

    n_in = circuit.n_gen - 1  # input generators are layer 0; the reference is not
    times, neurons = kernel.spikes()
    layers = circuit.neuron_layer[neurons]
    local = neurons - np.asarray(circuit.layer_offsets, dtype=np.int64)[layers - 1]
    # Among equal times the columns are already in (layer, neuron) order:
    # generators first, then the kernel's passes, layer by layer, row-major
    time = np.concatenate([gen_times[:, :-1].reshape(-1), times])
    order = np.argsort(time, kind="stable")
    raster = SpikeRaster(
        np.concatenate([np.zeros(total_cycles * n_in, dtype=np.int64), layers]).take(order),
        np.concatenate([np.tile(np.arange(n_in), total_cycles), local]).take(order),
        time.take(order), p.period, total_cycles)
    return CircuitResult(
        raster=raster,
        vm_max=kernel.vm_max,
        trace_times=np.arange(1, n_steps + 1) * p.dt,
        trace_vm=rec_vm,
        total_time=total_cycles * p.period,
        deliveries=kernel.deliveries,
    )


# -- decoding ----------------------------------------------------------------

WINDOW_CYCLES = 3  # cycles of output spikes that each decode reads


def _window_phasors(raster, n_outputs, output_layer, times):
    """Per-unit sums of e^{i theta} over the output spikes in each closed
    window [t - WINDOW_CYCLES * T, t]: (len(times), n_outputs), exactly 0 for
    a unit silent in the window."""
    out = raster.layer == output_layer
    spikes = raster.time[out]
    # row k + 1 holds spike k's phasor in its unit's column; row 0 is the empty prefix
    cum = np.zeros((spikes.size + 1, n_outputs), dtype=np.complex128)
    cum[np.arange(1, spikes.size + 1), raster.neuron[out]] = np.exp(
        1j * time_to_phase(spikes, raster.period))
    np.cumsum(cum, axis=0, out=cum)
    times = np.asarray(times, dtype=np.float64)
    lo = spikes.searchsorted(times - WINDOW_CYCLES * raster.period)
    hi = spikes.searchsorted(times, side="right")
    return cum[hi] - cum[lo]


def decode_output(raster, n_outputs, output_layer, now):
    """Class = predict() over the output units' circular-mean spike phases in
    [now - window, now]; None when no output spiked."""
    return predict(_window_phasors(raster, n_outputs, output_layer, [now])[0])


def decode_over_time(raster, n_outputs, output_layer, times):
    """decode_output at each sample time; -1 where no output spiked."""
    return predict_batch(_window_phasors(raster, n_outputs, output_layer, times))


Fidelity = namedtuple("Fidelity", "residual active_spiking inactive_spiking")


def fidelity(net, raster, image):
    """How closely the last cycle of a raster carries the phasor network's
    activations for `image`, as a Fidelity of (L,) arrays, one entry per
    layer:

    residual: mean |spike phase - activation phase|, rad, over the active
        units that spike in the last cycle, after removing the layer's one
        circular-mean offset (nan where no active unit spikes);
    active_spiking: share of the active units that spike in the last cycle;
    inactive_spiking: share of the inactive units that spike in it (nan
        where every unit is active).
    """
    trace = forward(net, encode_batch(net, np.asarray(image).reshape(1, -1))[0])
    out = np.full((3, len(net.layers)), np.nan)
    for l, (h, active) in enumerate(zip(trace.h, trace.masks)):
        h, active = h.reshape(-1), active.reshape(-1)
        phases = raster_phases(raster, l + 1, h.size, raster.n_cycles - 1)
        spiked = ~np.isnan(phases)
        both = active & spiked
        if both.any():
            turn = np.exp(1j * (phases[both] - np.angle(h[both])))
            out[0, l] = np.abs(np.angle(turn * np.exp(-1j * np.angle(turn.mean())))).mean()
        if active.any():
            out[1, l] = both.sum() / active.sum()
        if not active.all():
            out[2, l] = (spiked & ~active).sum() / (~active).sum()
    return Fidelity(*out)


# -- steady state and threshold calibration ----------------------------------


def soma_response(params):
    """(G, lag) of a locked unit, in closed form.

    Every input spikes once per cycle into a synapse resonant at omega, so a
    unit whose phasor-net pre-activation is z sees a dendrite sinusoid of
    amplitude |z| w_spike / (C_m omega), and its V_m, the dendrite filtered by
    H(s) = (g_c/C_m) s tau_d / ((1 + s tau_d)(s + (g_l + g_c)/C_m)), is a
    sinusoid of amplitude G |z| with G = |H(i omega)| w_spike / (C_m omega),
    peaking at phase arg z + 3pi/2 - arg H(i omega). lag is that peak's offset,
    plus omega dt / 2, the mean half step that landing on the grid adds to
    every delivery.
    """
    p = params
    s = 1j * p.omega
    h = p.g_c / p.c_m * s * p.tau_d / ((1 + s * p.tau_d) * (s + (p.g_l + p.g_c) / p.c_m))
    gain = abs(h) * p.w_spike / (p.c_m * p.omega)
    return gain, 1.5 * np.pi - np.angle(h) + p.omega * p.dt / 2


def steady_state(net, x, v_threshold, params):
    """Per layer, the spike phasors of the locked circuit at v_threshold for
    an encoded input batch x (B, *net.input_shape): e^(i spike phase) where a
    unit fires, exactly 0 where it stays silent. No circuit is run.

    A unit fires iff G |z| > v_threshold, i.e. |z| > theta_eff = v_threshold
    / G, crossing the threshold on its V_m's rising edge, arccos(theta_eff /
    |z|) before the peak; z is the layer's pre-activation over these spike
    phasors, with the bias at phase 0, where the reference generator sends
    it (see soma_response).
    """
    gain, lag = soma_response(params)
    theta_eff = v_threshold / gain
    h, out = np.asarray(x, dtype=net.dtype), []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        z = preactivation(spec, w, b, h)[0]
        mag = np.abs(z)
        active = mag > theta_eff
        ratio = np.divide(theta_eff, mag, out=np.ones_like(mag), where=active)
        phase = np.angle(z) - np.arccos(ratio) + lag
        h = np.where(active, np.exp(1j * phase), 0).astype(net.dtype)
        out.append(h)
    return out


def calibrate_threshold(net, circuit, images, n_candidates=8, n_cycles=None):
    """Scan thresholds over a decade around the first hidden layer's locked
    V_m amplitude, G median|z| over images[0]'s nonzero first-layer
    pre-activations, and keep the one whose steady state decodes the phasor
    network's class on the most images. No candidate runs the circuit: each
    is scored by predict() over steady_state's output layer.

    Ties break toward the smaller threshold (smaller phase distortion): the
    candidates ascend, only a strictly better score replaces the best, and
    the scan stops once a candidate agrees on every image. Returns
    (threshold, agreement), the agreement being the model's; net and circuit
    are left untouched. No candidate or no image is a ValidationError, and
    all-zero first-layer pre-activations a NumericError. n_cycles is unused:
    perfbench/ still passes it, so it stays until the benchmark's next change.
    """
    check_count("n_candidates", n_candidates)
    if len(images) == 0:
        raise ValidationError("calibration needs at least one image, got 0")
    x = encode_batch(net, np.stack([np.asarray(im).reshape(-1) for im in images]))
    first = np.abs(preactivation(net.layers[0], net.weights[0], net.biases[0], x[:1])[0])
    first = first[first > 0]
    if first.size == 0:
        raise NumericError("no first-layer pre-activation is nonzero; check the circuit")
    amp = soma_response(circuit.params)[0] * float(np.median(first))
    candidates = amp * np.logspace(np.log10(0.03), np.log10(0.3), n_candidates)
    wants = predict_batch(forward(net, x).output.reshape(len(images), -1))
    best_thr, best_agree, n = None, -1, len(images)
    for thr in candidates:
        agree = _model_agreement(net, x, float(thr), circuit.params, wants)
        if agree > best_agree:
            best_agree, best_thr = agree, float(thr)
        if best_agree == n:  # no later candidate can beat it
            break
    return best_thr, best_agree / n


def _model_agreement(net, x, v_threshold, params, wants):
    """Images on which steady_state's output decodes to wants' class."""
    got = predict_batch(steady_state(net, x, v_threshold, params)[-1].reshape(len(x), -1))
    return int(((got == wants) & (got >= 0)).sum())
