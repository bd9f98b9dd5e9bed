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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _circuit_kernels as ck
from ._kernels import im2col
from .errors import NumericError, ValidationError, check_count, check_positive
from .phasor_net import forward, input_phases, predict, predict_batch
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
    """Flattened synapse/neuron topology ready for the integration kernel;
    the syn_* arrays are in sending order for params.dt: by source and the
    layer it feeds, then by grid phase, then by owner (see build_circuit)."""

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
    neurons), then by the layer they feed, which splits only the reference
    generator's, then by grid phase frac(delay / dt), then by owning
    neuron. Source s sends through synapses out_ptr[s]:out_ptr[s + 1].
    """
    if params is None:
        params = CircuitParams()
    shapes = net.activation_shapes()
    layer_sizes = [int(np.prod(s)) for s in shapes[1:]]
    n_in = int(np.prod(net.input_shape))
    n_gen = n_in + 1  # inputs + reference generator (drives biases, phase 0)
    ref_gen = n_in
    n_neurons = sum(layer_sizes)
    layer_offsets = list(np.cumsum([0] + layer_sizes[:-1]))
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
    # sending order: by run (source, then the layer it feeds), then by grid
    # phase, then by owner
    order = np.lexsort((owner, ck.grid_phase(delay, params.dt),
                        src * len(layer_sizes) + neuron_layer[owner]))
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
        syn_owner=owner[order],
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
    raster = SpikeRaster.sorted(
        np.concatenate([np.zeros(total_cycles * n_in, dtype=np.int64), layers]),
        np.concatenate([np.tile(np.arange(n_in), total_cycles), local]),
        np.concatenate([gen_times[:, :-1].reshape(-1), times]),
        p.period, total_cycles)
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


# -- threshold calibration ---------------------------------------------------


def observe_amplitude(circuit, image, n_cycles=None):
    """Subthreshold V_m oscillation amplitude of the first hidden layer,
    measured with an unreachably high threshold (nothing spikes)."""
    p = circuit.params
    if n_cycles is None:
        n_cycles = p.n_cycles
    result = run(circuit, [(image, n_cycles)], v_threshold=1e30)
    first = circuit.layer_offsets[0]
    size = circuit.layer_sizes[0]
    amps = result.vm_max[first:first + size]
    amps = amps[amps > 0]
    if amps.size == 0:
        raise NumericError("no subthreshold activity observed; check the circuit")
    return float(np.median(amps))


def calibrate_threshold(net, circuit, images, n_candidates=8, n_cycles=None):
    """Coarse scan over a decade around the observed subthreshold amplitude,
    maximizing agreement between circuit decoding and phasor prediction.

    Ties break toward the smaller threshold (smaller phase distortion). The
    candidates ascend and only a strictly better score replaces the best, so
    the scan stops once a candidate agrees on every image, and a candidate's
    images stop once it can no longer beat the best; the result is the full
    scan's. Returns (threshold, agreement); net and circuit are left untouched.
    No candidate or no image is a ValidationError.
    """
    p = circuit.params
    check_count("n_candidates", n_candidates)
    if len(images) == 0:
        raise ValidationError("calibration needs at least one image, got 0")
    if n_cycles is None:
        n_cycles = p.n_cycles
    amp = observe_amplitude(circuit, images[0], n_cycles)
    candidates = amp * np.logspace(np.log10(0.03), np.log10(0.3), n_candidates)
    x = encode_batch(net, np.stack([np.asarray(im).reshape(-1) for im in images]))
    wants = predict_batch(forward(net, x).output.reshape(len(images), -1)).tolist()
    best_thr, best_agree = None, -1
    out_layer, n = len(net.layers), len(images)
    for thr in candidates:
        agree = 0
        for i, (image, want) in enumerate(zip(images, wants)):
            if agree + n - i <= best_agree:  # cannot beat the best any more
                break
            result = run(circuit, [(image, n_cycles)], v_threshold=float(thr))
            agree += want == decode_output(result.raster, circuit.n_outputs, out_layer,
                                           now=n_cycles * p.period)
        if agree > best_agree:
            best_agree, best_thr = agree, float(thr)
        if best_agree == n:  # no later candidate can beat it
            break
    return best_thr, best_agree / n
