"""Closed-form, event-driven integration kernel for the circuit backend.

Synapses. Between resets a forward-Euler synapse (v, w) follows one fixed
linear map, M = [[1, -dt/C_m], [dt/L, 1 - dt/tau_s]], and every delivery
resets it to (0, w_spike). Its voltage n steps after its last reset is
therefore sum_j c_j lam_j^n over the two eigenvalues of M: a complex pair,
or two reals when over-damped. A neuron's dendrite sum, sum_s w_s v_s, is
carried as one complex accumulator per eigenvalue (exact integration of
linear subthreshold dynamics, Rotter & Diesmann 1999): Z *= lam each step,
and a delivery to synapse s at step k adds w_s c (1 - lam^(k - k_s)), which
swaps its old trajectory for a fresh one. A step costs O(neurons +
deliveries) instead of O(synapses).

Deliveries. A spike reaches synapse s at t + delay[s] and resets it on the
first grid step whose time plus GRID_EPS reaches that, never earlier than
the step after it was sent. Generator volleys are known for a whole segment
and are bucketed by step once. Soma spikes go into a calendar queue (Brown
1988): a ring of per-step slots, each a row of synapse ids, whose row
capacity doubles when a slot fills. Delays are under T, so ceil(T/dt) + 2
slots cover every pending delivery. Spike timestamps are linearly
interpolated between grid points.
"""

import numpy as np

from .errors import ValidationError

GRID_EPS = 1e-9


def synapse_modes(params):
    """Eigenvalues lam (2,) of the Euler synapse map and coefficients c (2,)
    such that a synapse reset n steps ago has v = Re sum_j c_j lam_j^n."""
    p = params
    a, b, damp = p.dt / p.c_m, p.dt / p.l_res, p.dt * p.inv_tau_s
    root = np.sqrt(complex(damp * damp - 4.0 * a * b))
    if root == 0:
        raise ValidationError("critically damped synapse (tau_s = sqrt(L*C_m)/2) "
                              "has a repeated eigenvalue; change tau_s slightly")
    lam = np.array([(2.0 - damp + root) / 2.0, (2.0 - damp - root) / 2.0])
    # v(0) = 0 and v(1) = -a*w_spike fix c_1 = -c_2
    c1 = -a * p.w_spike / (lam[0] - lam[1])
    return lam, np.array([c1, -c1])


def csr_rows(ptr, rows):
    """Positions ptr[r]:ptr[r+1] of every row r, concatenated."""
    lo, hi = ptr[rows], ptr[rows + 1]
    counts = hi - lo
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return starts + np.arange(starts.size), counts


class Integrator:
    """Circuit state carried across the stimulus segments of one run."""

    def __init__(self, circuit, v_threshold, total_steps):
        p = circuit.params
        self.circuit = circuit
        self.v_th = v_threshold
        n, s = circuit.n_neurons, circuit.n_synapses
        self.lam, c = synapse_modes(p)
        self.wc = circuit.syn_w[:, None] * c
        # 1 - lam^age for every age a run can reach. A synapse never reset
        # starts at age `never` or more, where the table holds 1.
        self.never = total_steps + 1
        self.decay = np.ones((2 * self.never, 2), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            self.decay[:self.never] -= self.lam ** np.arange(self.never)[:, None]
        self.last = np.full(s, -self.never, dtype=np.int64)
        self.stamp = np.zeros(s, dtype=np.int64)
        self.z = np.zeros((n, 2), dtype=np.complex128)
        self.vm = np.zeros(n)
        self.vdbar = np.zeros(n)
        self.armed = np.ones(n, dtype=bool)  # not refractory
        self.above = self.vm >= v_threshold
        self.vm_max = np.zeros(n)
        self.n_slots = int(np.ceil(p.period / p.dt)) + 2
        self.ring = np.zeros((self.n_slots, 16), dtype=np.int64)
        self.fill = np.zeros(self.n_slots, dtype=np.int64)
        pos, counts = csr_rows(circuit.out_ptr, np.arange(circuit.n_gen))
        self.gen_syn = circuit.out_syn[pos]
        self.gen_src = np.repeat(np.arange(circuit.n_gen), counts)
        self.carry_step = np.zeros(0, dtype=np.int64)
        self.carry_syn = np.zeros(0, dtype=np.int64)
        self.spike_t, self.spike_n = [], []
        self.deliveries = 0

    def _schedule_generators(self, t0, grid, step_base, n_steps, offsets, n_cycles):
        """Every generator delivery of the segment, plus those carried over
        from the last one, as synapse ids sorted by step and per-step bounds."""
        steps, syns = [self.carry_step], [self.carry_syn]
        t = (t0 + offsets[self.gen_src]) + self.circuit.syn_delay[self.gen_syn]
        for _ in range(n_cycles):
            steps.append(step_base + grid.searchsorted(t))
            syns.append(self.gen_syn)
            t = t + self.circuit.params.period
        steps, syns = np.concatenate(steps), np.concatenate(syns)
        order = np.argsort(steps, kind="stable")
        steps, syns = steps[order], syns[order]
        bounds = np.searchsorted(steps, step_base + np.arange(n_steps + 1))
        self.carry_step, self.carry_syn = steps[bounds[-1]:], syns[bounds[-1]:]
        return syns, bounds.tolist()

    def _deliver(self, ids, step, dedupe):
        self.deliveries += ids.size
        if dedupe:  # a synapse delivered twice in one step resets once
            pos = np.arange(ids.size)
            self.stamp[ids] = pos
            ids = ids[self.stamp[ids] == pos]
        np.add.at(self.z, self.circuit.syn_owner[ids],
                  self.wc[ids] * self.decay[step - self.last[ids]])
        self.last[ids] = step

    def _push(self, syn, steps):
        slot = steps % self.n_slots
        order = slot.argsort()
        slot, syn = slot[order], syn[order]
        pos = self.fill[slot] + np.arange(slot.size) - slot.searchsorted(slot)
        need = int(pos.max()) + 1
        if need > self.ring.shape[1]:
            cap = self.ring.shape[1]
            while cap < need:
                cap *= 2
            ring = np.zeros((self.n_slots, cap), dtype=np.int64)
            ring[:, :self.ring.shape[1]] = self.ring
            self.ring = ring
        self.ring[slot, pos] = syn
        np.add.at(self.fill, slot, 1)

    def run_segment(self, t0, step_base, n_steps, offsets, n_cycles, rec_ids, rec_vm):
        """Integrate one stimulus segment; returns (failing neuron or -1, step)."""
        circ, p = self.circuit, self.circuit.params
        dt, v_th, lam = p.dt, self.v_th, self.lam
        g_l, g_c, v_l, c_m, tau_d = p.g_l, p.g_c, p.v_l, p.c_m, p.tau_d
        vm, vdbar, armed, above, z = self.vm, self.vdbar, self.armed, self.above, self.z
        z_re = z.view(np.float64)  # columns: re, im of each mode
        z_re0, z_re1 = z_re[:, 0], z_re[:, 2]
        # only volleys carried over a stimulus switch can hit a synapse twice
        dedupe_until = int(self.carry_step[-1]) - step_base + 1 if self.carry_step.size else 0
        # now + GRID_EPS of every step a delivery sent in this segment can reach:
        # a spike time's arrival step is the first whose entry is >= it
        grid = t0 + np.arange(n_steps + 2 * self.n_slots) * dt + GRID_EPS
        gen_syn, bounds = self._schedule_generators(t0, grid, step_base, n_steps,
                                                    offsets, n_cycles)
        for k in range(n_steps):
            now = t0 + k * dt
            step = step_base + k
            slot = step % self.n_slots
            lo, hi, queued = bounds[k], bounds[k + 1], self.fill[slot]
            if queued:
                self.fill[slot] = 0
                self._deliver(np.concatenate((gen_syn[lo:hi], self.ring[slot, :queued])),
                              step, k < dedupe_until)
            elif lo < hi:
                self._deliver(gen_syn[lo:hi], step, k < dedupe_until)
            vd = z_re0 + z_re1
            z *= lam
            vm_old = vm
            vm = vm_old + dt * (g_l * (v_l - vm_old) + g_c * (vd - vm_old - vdbar)) / c_m
            vdbar += dt * (vd - vdbar) / tau_d
            if not np.isfinite(vm).all():
                self.vm = vm
                return int(np.flatnonzero(~np.isfinite(vm))[0]), k
            was_above, above = above, vm >= v_th
            fired = ((above > was_above) & armed).nonzero()[0]  # rose through v_th
            armed |= vm < 0.0
            if fired.size:
                armed[fired] = False
                frac = (v_th - vm_old[fired]) / (vm[fired] - vm_old[fired])
                tstar = now + dt * frac
                self.spike_t.append(tstar)
                self.spike_n.append(fired)
                pos, counts = csr_rows(circ.out_ptr, circ.n_gen + fired)
                if pos.size:
                    syn = circ.out_syn[pos]
                    t = np.repeat(tstar, counts) + circ.syn_delay[syn]
                    arrive = np.maximum(grid.searchsorted(t), k + 1)
                    self._push(syn, step_base + arrive)
            np.maximum(self.vm_max, vm, out=self.vm_max)
            if rec_ids.shape[0]:
                rec_vm[k, :] = vm[rec_ids]
        self.vm, self.above = vm, above
        return -1, n_steps

    def spikes(self):
        """Soma spikes in firing order: (times, global neuron ids)."""
        if not self.spike_t:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        return np.concatenate(self.spike_t), np.concatenate(self.spike_n)
