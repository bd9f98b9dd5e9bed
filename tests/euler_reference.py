"""Forward-Euler reference integrator for the circuit backend, tests only.

This is the circuit's original integration loop: every synapse oscillator is
stepped explicitly each grid step and deliveries go through a binary heap of
(time, synapse, repeats-left) entries. Generator volleys keep one entry per
synapse in flight and re-push it with time + T while repeats remain. The
closed-form kernel in phasornet._circuit_kernels is checked against it.
"""

import heapq

import numpy as np

from phasornet._circuit_kernels import GRID_EPS
from phasornet.circuit import stimulus_phase_offsets
from phasornet.errors import NumericError
from phasornet.spikemap import SpikeRaster


def program_generators(seg_start, gen_offsets, n_cycles, out_ptr, out_syn,
                       syn_delay, heap):
    for g in range(gen_offsets.shape[0]):
        t_first = seg_start + gen_offsets[g]
        for oi in range(out_ptr[g], out_ptr[g + 1]):
            s = int(out_syn[oi])
            heapq.heappush(heap, (t_first + syn_delay[s], s, n_cycles - 1))


def run_segment(t0, n_steps, dt, period,
                g_l, g_c, v_l, c_m, tau_d, l_res, w_spike, inv_tau_s, v_th,
                syn_w, syn_delay, out_ptr, out_syn, n_gen,
                vm, vdbar, refr, vs, ws, vm_max,
                heap, syn_owner, events):
    """Integrate n_steps grid steps; returns (failing neuron or -1, step)."""
    n = vm.shape[0]
    for k in range(n_steps):
        now = t0 + k * dt
        while heap and heap[0][0] <= now + GRID_EPS:
            t, s, r = heapq.heappop(heap)
            vs[s] = 0.0
            ws[s] = w_spike
            if r > 0:
                heapq.heappush(heap, (t + period, s, r - 1))
        vd = np.bincount(syn_owner, weights=syn_w * vs, minlength=n)
        vs_old = vs.copy()
        vs -= dt * (ws / c_m)
        ws += dt * (vs_old / l_res - ws * inv_tau_s)
        vm_old = vm.copy()
        vm += dt * (g_l * (v_l - vm_old) + g_c * (vd - vm_old - vdbar)) / c_m
        vdbar += dt * (vd - vdbar) / tau_d
        if not np.all(np.isfinite(vm)):
            return int(np.flatnonzero(~np.isfinite(vm))[0]), k
        crossing = (refr == 0) & (vm_old < v_th) & (vm >= v_th)
        for ni in np.flatnonzero(crossing):
            frac = (v_th - vm_old[ni]) / (vm[ni] - vm_old[ni])
            tstar = now + dt * frac
            events.append((float(tstar), int(ni)))
            refr[ni] = 1
            src = n_gen + ni
            for oi in range(out_ptr[src], out_ptr[src + 1]):
                s2 = int(out_syn[oi])
                heapq.heappush(heap, (tstar + syn_delay[s2], s2, 0))
        clearing = (refr == 1) & (vm < 0.0) & ~crossing
        refr[clearing] = 0
        np.maximum(vm_max, vm, out=vm_max)
    return -1, n_steps


def run(circuit, stimuli, v_threshold):
    """Raster of the soma spikes (layers >= 1) and per-neuron vm_max."""
    p = circuit.params
    n, s = circuit.n_neurons, circuit.n_synapses
    vm, vdbar, vm_max = np.zeros(n), np.zeros(n), np.zeros(n)
    refr = np.zeros(n, dtype=np.uint8)
    vs, ws = np.zeros(s), np.zeros(s)
    heap, events = [], []
    seg_start = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for image, n_cycles in stimuli:
            offsets = stimulus_phase_offsets(circuit, image)
            n_steps = int(round(n_cycles * p.period / p.dt))
            program_generators(seg_start, offsets, n_cycles, circuit.out_ptr,
                               circuit.out_syn, circuit.syn_delay, heap)
            err, done = run_segment(
                seg_start, n_steps, p.dt, p.period,
                p.g_l, p.g_c, p.v_l, p.c_m, p.tau_d, p.l_res, p.w_spike,
                p.inv_tau_s, float(v_threshold),
                circuit.syn_w, circuit.syn_delay, circuit.out_ptr,
                circuit.out_syn, circuit.n_gen,
                vm, vdbar, refr, vs, ws, vm_max, heap, circuit.syn_owner, events)
            if err >= 0:
                raise NumericError(f"integration blew up at neuron {err}")
            seg_start += n_cycles * p.period
    times = np.array([t for t, _ in events])
    neurons = np.array([ni for _, ni in events], dtype=np.int64)
    layers = circuit.neuron_layer[neurons]
    local = neurons - np.asarray(circuit.layer_offsets, dtype=np.int64)[layers - 1]
    n_cycles = sum(nc for _, nc in stimuli)
    return SpikeRaster.sorted(layers, local, times, p.period, n_cycles), vm_max
