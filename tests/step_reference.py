"""Exact-step reference integrator for the circuit backend, tests only.

This is the circuit's integration as a plain per-synapse loop: every synapse
oscillator is stepped explicitly each grid step by its 2x2 map e^(dt A_s),
each soma's (V_m, Vdbar) by rows 2-3 of the 5x5 map e^(dt A) of
(V, W, V_m, Vdbar, 1) from its summed dendrite (V, W), and deliveries go
through a binary heap of (time, synapse, repeats-left) entries. Both maps
come from np.linalg.eig of the continuous system's generator, not from the
kernel's Taylor series. Generator volleys keep one entry per synapse in
flight and re-push it with time + T while repeats remain. A run
has one clock: every stimulus's generators are queued up front at that
stimulus's start time, and step k runs from k*dt to (k + 1)*dt over the
whole sequence. The block kernel in phasornet._circuit_kernels is checked
against it.
"""

import heapq
from collections import namedtuple

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


Reference = namedtuple("Reference", "raster vm_max trace_vm deliveries")


def generator(p):
    """The continuous system d/dt (V, W, V_m, Vdbar, 1) = A (V, W, V_m, Vdbar, 1):
    the synapse oscillator C_m dv/dt = -w, dw/dt = omega^2 C_m v, the soma
    C_m dV_m/dt = -g_l V_m + g_c (V - V_m - Vdbar) and the dendrite
    average tau_d dVdbar/dt = V - Vdbar."""
    return np.array([
        [0.0, -1.0 / p.c_m, 0.0, 0.0, 0.0],
        [p.omega ** 2 * p.c_m, 0.0, 0.0, 0.0, 0.0],
        [p.g_c / p.c_m, 0.0, -(p.g_l + p.g_c) / p.c_m, -p.g_c / p.c_m, 0.0],
        [1.0 / p.tau_d, 0.0, 0.0, -1.0 / p.tau_d, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0]])


def exact_step(a, dt):
    """e^(dt a) by eigendecomposition (a must be diagonalizable)."""
    mu, vec = np.linalg.eig(a)
    return ((vec * np.exp(mu * dt)) @ np.linalg.inv(vec)).real


def fire_step(vm_old, vm, refr, v_th):
    """One step of the threshold rule: neurons that rise through v_th while
    not refractory fire and turn refractory; V_m < 0 clears refractoriness.
    Returns the firing neurons; refr (uint8) is updated in place."""
    crossing = (refr == 0) & (vm_old < v_th) & (vm >= v_th)
    refr[crossing] = 1
    refr[(refr == 1) & (vm < 0.0) & ~crossing] = 0
    return np.flatnonzero(crossing)


def run_segment(n_steps, dt, period, syn_step, soma_step, w_spike, v_th,
                syn_w, syn_delay, out_ptr, out_syn, n_gen,
                vm, vdbar, refr, vs, ws, vm_max,
                heap, syn_owner, events, rec_ids, rec_vm, pops):
    """Integrate n_steps grid steps, each synapse by the 2x2 map syn_step and
    each soma by soma_step, rows 2-3 of the 5x5 map; records V_m of rec_ids in
    rec_vm and counts heap pops in pops[0]. Returns (failing neuron or -1,
    step)."""
    n = vm.shape[0]
    for k in range(n_steps):
        now = k * dt
        while heap and heap[0][0] <= now + GRID_EPS:
            t, s, r = heapq.heappop(heap)
            pops[0] += 1
            vs[s] = 0.0
            ws[s] = w_spike
            if r > 0:
                heapq.heappush(heap, (t + period, s, r - 1))
        vd = np.bincount(syn_owner, weights=syn_w * vs, minlength=n)
        wd = np.bincount(syn_owner, weights=syn_w * ws, minlength=n)
        vs[:], ws[:] = syn_step @ np.stack([vs, ws])
        vm_old = vm.copy()
        vm[:], vdbar[:] = soma_step @ np.stack([vd, wd, vm_old, vdbar, np.ones(n)])
        if not np.all(np.isfinite(vm)):
            return int(np.flatnonzero(~np.isfinite(vm))[0]), k
        for ni in fire_step(vm_old, vm, refr, v_th):
            frac = (v_th - vm_old[ni]) / (vm[ni] - vm_old[ni])
            tstar = now + dt * frac
            events.append((float(tstar), int(ni)))
            src = n_gen + ni
            for oi in range(out_ptr[src], out_ptr[src + 1]):
                s2 = int(out_syn[oi])
                heapq.heappush(heap, (tstar + syn_delay[s2], s2, 0))
        np.maximum(vm_max, vm, out=vm_max)
        rec_vm[k] = vm[rec_ids]
    return -1, n_steps


def run(circuit, stimuli, v_threshold, record_neurons=()):
    """Soma-spike raster (layers >= 1), per-neuron vm_max, the V_m trace of
    each recorded neuron (steps, recorded) and the number of deliveries."""
    p = circuit.params
    n, s = circuit.n_neurons, circuit.n_synapses
    vm, vdbar, vm_max = np.zeros(n), np.zeros(n), np.zeros(n)
    refr = np.zeros(n, dtype=np.uint8)
    vs, ws = np.zeros(s), np.zeros(s)
    heap, events, pops = [], [], [0]
    rec_ids = np.asarray(sorted(record_neurons), dtype=np.int64)
    seg_start = 0.0
    for image, n_cycles in stimuli:
        program_generators(seg_start, stimulus_phase_offsets(circuit, image), n_cycles,
                           circuit.out_ptr, circuit.out_syn, circuit.syn_delay, heap)
        seg_start += n_cycles * p.period
    n_cycles = sum(nc for _, nc in stimuli)
    n_steps = int(round(n_cycles * p.period / p.dt))
    trace = np.zeros((n_steps, rec_ids.size))
    a = generator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        err, _ = run_segment(
            n_steps, p.dt, p.period, exact_step(a[:2, :2], p.dt),
            exact_step(a, p.dt)[2:4], p.w_spike, float(v_threshold),
            circuit.syn_w, circuit.syn_delay, circuit.out_ptr,
            circuit.out_syn, circuit.n_gen,
            vm, vdbar, refr, vs, ws, vm_max, heap, circuit.syn_owner, events,
            rec_ids, trace, pops)
    if err >= 0:
        raise NumericError(f"integration blew up at neuron {err}")
    times = np.array([t for t, _ in events])
    neurons = np.array([ni for _, ni in events], dtype=np.int64)
    layers = circuit.neuron_layer[neurons]
    local = neurons - np.asarray(circuit.layer_offsets, dtype=np.int64)[layers - 1]
    raster = SpikeRaster.sorted(layers, local, times, p.period, n_cycles)
    return Reference(raster, vm_max, trace, pops[0])
