"""Circuit-level spiking simulator: soma/dendrite ODEs, resonant synapses,
delayed spike delivery, threshold-and-refractory firing, forward Euler.

Every nonzero complex weight becomes one synapse with weight |W| and delay
phase(W) * T/2pi; a nonzero bias becomes a synapse driven by a reference
generator spiking at t = 0 each cycle. Input units are stimulus generators
spiking at their encoded phase times every cycle. With default parameters the
synapse oscillator resonates at exactly the cycle frequency, 1/sqrt(L*C_m) =
2pi/T, so each dendrite reconstructs the phasor sum of its inputs and the
soma's threshold crossing re-encodes the phase as a spike time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _circuit_kernels as ck
from .complex_core import phase as cphase
from .errors import NumericError, ValidationError
from .phasor_net import encode_input, apply_input_phase_shift, forward, predict
from .spikemap import TWO_PI, SpikeRaster, synapse_delay, time_to_phase


@dataclass
class CircuitParams:
    """Integration and circuit constants. Units: ms, mV, pA, pF, nS.

    tau_s = 0 denotes an undamped synapse oscillator (the damping term is
    dropped entirely); the defaults put the oscillator resonance exactly at
    the cycle frequency.
    """

    period: float = 10.0  # cycle period T, ms
    dt: float = 0.025
    c_m: float = 10.0  # membrane capacitance, pF
    g_l: float = None  # leak conductance; default pi*C_m/T
    g_c: float = None  # soma-dendrite conductance; default 60*pi*C_m/T
    v_l: float = 0.0  # leak reversal potential, mV
    l_res: float = None  # resonance constant; default 1/((2pi/T)^2 C_m)
    w_spike: float = 0.3  # synapse reset activation, pA
    tau_d: float = None  # dendrite averaging time constant; default 0.8*T
    tau_s: float = 0.0  # synapse damping time constant; 0 = undamped
    v_threshold: float = None  # soma spike threshold, mV (calibrated if None)
    n_cycles: int = 15

    def __post_init__(self):
        if self.g_l is None:
            self.g_l = np.pi * self.c_m / self.period
        if self.g_c is None:
            self.g_c = 60.0 * np.pi * self.c_m / self.period
        if self.l_res is None:
            self.l_res = 1.0 / ((TWO_PI / self.period) ** 2 * self.c_m)
        if self.tau_d is None:
            self.tau_d = 0.8 * self.period
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.period / self.dt < 100:
            raise ValidationError(
                f"period/dt ratio {self.period / self.dt:.1f} < 100; decrease dt"
            )
        if self.tau_s < 0:
            raise ValidationError(f"tau_s must be >= 0, got {self.tau_s}")

    @property
    def omega(self):
        """Synapse oscillator angular frequency, 1/sqrt(L*C_m)."""
        return 1.0 / np.sqrt(self.l_res * self.c_m)

    @property
    def inv_tau_s(self):
        return 0.0 if self.tau_s == 0.0 else 1.0 / self.tau_s


@dataclass
class CircuitModel:
    """Flattened synapse/neuron topology ready for the integration kernel."""

    params: CircuitParams
    input_shape: tuple
    n_gen: int  # input generators + 1 reference generator
    n_neurons: int
    neuron_layer: np.ndarray  # (N,) raster layer index, 1-based
    layer_offsets: list  # first global neuron id per network layer
    layer_sizes: list
    syn_ptr: np.ndarray
    syn_w: np.ndarray
    syn_delay: np.ndarray
    syn_owner: np.ndarray
    out_ptr: np.ndarray
    out_syn: np.ndarray
    phase_shifts: np.ndarray

    @property
    def n_synapses(self):
        return self.syn_w.shape[0]

    @property
    def n_outputs(self):
        return self.layer_sizes[-1]

    def output_offset(self):
        return self.layer_offsets[-1]


@dataclass
class CircuitResult:
    raster: SpikeRaster
    vm_max: np.ndarray  # per-neuron maximum membrane potential seen
    trace_times: np.ndarray = None
    trace_vm: np.ndarray = None  # (n_steps, n_recorded)
    segment_starts: list = field(default_factory=list)
    total_time: float = 0.0
    deliveries: int = 0  # one per arrival; two arrivals in one step reset a synapse once


def build_circuit(net, params=None):
    """One soma per hidden/output unit, one synapse per nonzero weight/bias."""
    if params is None:
        params = CircuitParams()
    shapes = net.activation_shapes()
    layer_sizes = [int(np.prod(s)) for s in shapes[1:]]
    n_in = int(np.prod(net.input_shape))
    n_gen = n_in + 1  # inputs + reference generator (drives biases, phase 0)
    ref_gen = n_in
    n_neurons = sum(layer_sizes)
    layer_offsets = list(np.cumsum([0] + layer_sizes[:-1]))
    neuron_layer = np.concatenate([
        np.full(sz, l + 1, dtype=np.int64) for l, sz in enumerate(layer_sizes)
    ])

    owners, srcs, coeffs = [], [], []  # per layer: its weights, then its biases
    for l, spec in enumerate(net.layers):
        w, b = net.weights[l], net.biases[l]
        own_base = layer_offsets[l]
        src_base = n_gen + layer_offsets[l - 1] if l > 0 else 0
        if spec.kind == "dense":
            owner_local, src_local = np.nonzero(w)
            coeff = w[owner_local, src_local]
        else:
            c_in, h, wd = shapes[l]
            f, oh, ow = shapes[l + 1]
            ff, ii, jj, cc, pp, qq = np.meshgrid(
                np.arange(f), np.arange(oh), np.arange(ow),
                np.arange(c_in), np.arange(3), np.arange(3),
                indexing="ij")
            coeff = np.ascontiguousarray(w[ff, cc, pp, qq]).reshape(-1)
            keep = coeff != 0
            coeff = coeff[keep]
            owner_local = ((ff * oh + ii) * ow + jj).reshape(-1)[keep]
            src_local = ((cc * h + (ii + pp)) * wd + (jj + qq)).reshape(-1)[keep]
        owners.append(own_base + owner_local.astype(np.int64))
        srcs.append(src_base + src_local.astype(np.int64))
        coeffs.append(coeff)
        # bias synapses, driven by the reference generator
        bidx = np.nonzero(b)[0]
        if spec.kind == "conv3x3":
            # one synapse per output unit of each biased channel
            _, oh, ow = shapes[l + 1]
            owner_local = (bidx[:, None] * (oh * ow) + np.arange(oh * ow)).reshape(-1)
            bidx = np.repeat(bidx, oh * ow)
        else:
            owner_local = bidx
        owners.append(own_base + owner_local.astype(np.int64))
        srcs.append(np.full(owner_local.size, ref_gen, dtype=np.int64))
        coeffs.append(b[bidx])
    owner, src = np.concatenate(owners), np.concatenate(srcs)
    mag, delay = synapse_delay(np.concatenate(coeffs), params.period)

    # incoming CSR: synapses sorted by owning neuron, stable within a neuron
    order = np.argsort(owner, kind="stable")
    owner, src, mag, delay = owner[order], src[order], mag[order], delay[order]
    syn_ptr = np.zeros(n_neurons + 1, dtype=np.int64)
    np.add.at(syn_ptr, owner + 1, 1)
    syn_ptr = np.cumsum(syn_ptr)

    # outgoing CSR by source (generators first, then neurons)
    n_src = n_gen + n_neurons
    out_order = np.argsort(src, kind="stable")
    out_syn = out_order.astype(np.int64)
    out_ptr = np.zeros(n_src + 1, dtype=np.int64)
    np.add.at(out_ptr, src + 1, 1)
    out_ptr = np.cumsum(out_ptr)

    return CircuitModel(
        params=params,
        input_shape=net.input_shape,
        n_gen=n_gen,
        n_neurons=n_neurons,
        neuron_layer=neuron_layer,
        layer_offsets=layer_offsets,
        layer_sizes=layer_sizes,
        syn_ptr=syn_ptr,
        syn_w=mag,
        syn_delay=delay,
        syn_owner=owner,
        out_ptr=out_ptr,
        out_syn=out_syn,
        phase_shifts=net.phase_shifts.copy(),
    )


def stimulus_phase_offsets(circuit, image):
    """Spike-time offsets within a cycle for all generators (reference last)."""
    x = encode_input(np.asarray(image).reshape(-1))
    x = apply_input_phase_shift(x, circuit.phase_shifts)
    theta = cphase(x) % TWO_PI
    offsets = theta * circuit.params.period / TWO_PI
    return np.concatenate([offsets, [0.0]])


def run(circuit, stimuli, v_threshold=None, record_neurons=()):
    """Integrate the circuit over a stimulus sequence.

    stimuli: list of (image, n_cycles); examples switch instantaneously.
    record_neurons: global neuron ids whose V_m trace is kept every step.
    Returns a CircuitResult whose raster contains generator volleys as layer
    0 plus every soma spike (layers 1..L), sorted by time.
    """
    p = circuit.params
    if v_threshold is None:
        v_threshold = p.v_threshold
    if v_threshold is None:
        raise ValidationError(
            "no spike threshold set; pass v_threshold or calibrate the circuit"
        )
    total_cycles = sum(nc for _, nc in stimuli)
    rec_ids = np.asarray(sorted(record_neurons), dtype=np.int64)
    total_steps = int(round(total_cycles * p.period / p.dt))
    rec_vm = np.zeros((total_steps, rec_ids.shape[0]))
    kernel = ck.Integrator(circuit, float(v_threshold), total_steps)

    columns = []  # (layer, neuron, time) of the generator volleys, then the soma spikes
    seg_start = 0.0
    step_base = 0
    segment_starts = []
    for image, n_cycles in stimuli:
        segment_starts.append(seg_start)
        offsets = stimulus_phase_offsets(circuit, image)
        n_steps = int(round(n_cycles * p.period / p.dt))
        n_in = offsets.shape[0] - 1  # input generators are layer 0; the reference is not
        columns.append((np.zeros(n_in * n_cycles, dtype=np.int64),
                        np.repeat(np.arange(n_in), n_cycles),
                        ((seg_start + np.arange(n_cycles) * p.period)
                         + offsets[:-1, None]).reshape(-1)))
        with np.errstate(over="ignore", invalid="ignore"):  # blow-ups raise below
            err, done = kernel.run_segment(seg_start, step_base, n_steps, offsets,
                                           n_cycles, rec_ids,
                                           rec_vm[step_base:step_base + n_steps])
        if err >= 0:
            t_err = seg_start + done * p.dt
            raise NumericError(
                f"integration blew up at neuron {err}, t = {t_err:.3f} ms"
            )
        seg_start += n_cycles * p.period
        step_base += n_steps

    times, neurons = kernel.spikes()
    layers = circuit.neuron_layer[neurons]
    local = neurons - np.asarray(circuit.layer_offsets, dtype=np.int64)[layers - 1]
    columns.append((layers, local, times))
    raster = SpikeRaster.sorted(*(np.concatenate(c) for c in zip(*columns)),
                                p.period, total_cycles)
    return CircuitResult(
        raster=raster,
        vm_max=kernel.vm_max,
        trace_times=np.arange(1, total_steps + 1) * p.dt,
        trace_vm=rec_vm,
        segment_starts=segment_starts,
        total_time=seg_start,
        deliveries=kernel.deliveries,
    )


# -- decoding ----------------------------------------------------------------


def decode_output(raster, n_outputs, output_layer, now, window_cycles=3):
    """Class = output unit furthest out of phase with the rest.

    For each spike of unit i within [now - window, now], average the
    distances to the nearest later and nearest earlier spike of the other
    output units; score unit i by the mean over its spikes; return the
    argmax (ties to the lowest index) or None when no output spiked.
    """
    t = raster.time
    lo = now - window_cycles * raster.period
    w = slice(t.searchsorted(lo), t.searchsorted(now, side="right"))
    out = raster.layer[w] == output_layer
    return _decode_window(raster.neuron[w][out], t[w][out], n_outputs)


def _decode_window(units, times, n_outputs):
    """decode_output's rule on the output spikes of one window, in time order."""
    spiking = np.flatnonzero(np.bincount(units, minlength=n_outputs))
    if spiking.size <= 1:  # a sole spiking unit wins by default
        return int(spiking[0]) if spiking.size else None
    scores = np.full(n_outputs, -np.inf)
    for i in spiking:
        mine = units == i
        # the other units' spikes, between sentinels: a missing side is inf away
        own, others = times[mine], np.concatenate(([-np.inf], times[~mine], [np.inf]))
        d_later = others[others.searchsorted(own, side="left")] - own
        d_earlier = own - others[others.searchsorted(own, side="right") - 1]
        one_sided = np.isinf(d_later) | np.isinf(d_earlier)
        scores[i] = np.mean(np.where(one_sided, np.minimum(d_later, d_earlier),
                                     0.5 * (d_later + d_earlier)))
    return int(np.argmax(scores))


def decode_over_time(raster, n_outputs, output_layer, times, window_cycles=3):
    """Decoded class at each sample time; -1 where nothing spiked yet."""
    out_layer = raster.layer == output_layer
    units, spikes = raster.neuron[out_layer], raster.time[out_layer]
    times = np.asarray(times, dtype=np.float64)
    los = spikes.searchsorted(times - window_cycles * raster.period)
    his = spikes.searchsorted(times, side="right")
    out = np.empty(times.size, dtype=np.int64)
    for k, (a, b) in enumerate(zip(los.tolist(), his.tolist())):
        d = _decode_window(units[a:b], spikes[a:b], n_outputs)
        out[k] = -1 if d is None else d
    return out


def output_spike_phases(raster, n_outputs, output_layer, now, window_cycles=3):
    """Mean phase (circular) per output unit over the decode window."""
    lo = now - window_cycles * raster.period
    t = raster.time
    sel = (raster.layer == output_layer) & (lo <= t) & (t <= now)
    acc = np.zeros(n_outputs, dtype=np.complex128)
    np.add.at(acc, raster.neuron[sel], np.exp(1j * time_to_phase(t[sel], raster.period)))
    return np.where(np.abs(acc) > 0, np.angle(acc), np.nan)


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

    Ties break toward the smaller threshold (smaller phase distortion).
    """
    p = circuit.params
    if n_cycles is None:
        n_cycles = p.n_cycles
    amp = observe_amplitude(circuit, images[0], n_cycles)
    candidates = amp * np.logspace(np.log10(0.03), np.log10(0.3), n_candidates)
    best_thr, best_agree = None, -1
    out_layer = len(net.layers)
    for thr in candidates:
        agree = 0
        for image in images:
            result = run(circuit, [(image, n_cycles)], v_threshold=float(thr))
            got = decode_output(result.raster, circuit.n_outputs, out_layer,
                                now=n_cycles * p.period)
            x = encode_input(np.asarray(image).reshape(net.input_shape))
            x = apply_input_phase_shift(x, net.phase_shifts)
            want = predict(forward(net, x).output.reshape(-1))
            if got is not None and got == want:
                agree += 1
        if agree > best_agree:
            best_agree, best_thr = agree, float(thr)
    net.v_threshold = best_thr
    p.v_threshold = best_thr
    return best_thr, best_agree / max(len(images), 1)
