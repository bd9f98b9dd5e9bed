"""Block-in-time integration kernel for the circuit backend.

Linear state. Between resets a forward-Euler synapse (v, w) follows one fixed
linear map M = [[1, -dt/C_m], [dt/L, 1 - dt/tau_s]], and a delivery resets it
to (0, w_spike). A neuron's dendrite therefore needs only the weighted sum
(V, W) = sum_s w_s (v_s, w_s): it follows M too, and a delivery to synapse s
adds w_s ((0, w_spike) - M^age (0, w_spike)), which swaps the synapse's old
trajectory, reset `age` steps ago, for a fresh one. M^age (0, w_spike) comes
in closed form from the map's eigenvalues (synapse_modes). A spike resets
neither the soma nor the dendrite, so (V, W, V_m, Vdbar) is a linear filter
of the deliveries, and BLOCK steps of it are one lower-triangular Toeplitz
product plus an initial-state basis (the propagator method of Rotter &
Diesmann 1999). The product is taken in SUB-step diagonal blocks, which pass
their effect on later steps through the 4-dimensional state (propagators).

Blocks. The circuit is feed-forward, and a delivery never lands on the step
that sent it. Within a block the layers are integrated in order: when layer l
starts, every delivery it gets in the block is known, from the generators,
from earlier blocks, and from the spikes layer l-1 fired in this block. All
of them travel one path: keys synapse * BLOCK + step-in-block, queued in
per-(layer, block) buckets. A bucket is sorted once when its block comes, so
repeat deliveries to a synapse take their reset age from the one before, and
then injected in bulk. Synapses are numbered as the circuit stores them, in
sending order (by source, then by owner), so a spike's deliveries are one
contiguous run.

Clock. A run over a stimulus sequence has one clock: step j starts at j*dt
and ends at (j + 1)*dt, and the run is round(total cycles * period / dt)
steps. A stimulus switch restarts nothing: the stimulus's generator volleys
start at its exact start time, the sum of n_cycles * period over the stimuli
before it, and land on the grid like every other delivery.

Firing. A neuron fires where V_m rises through the threshold, unless it is
refractory; V_m < 0 ends refractoriness (fire). Spike times are linearly
interpolated between grid points. A spike at t reaches synapse s at
t + delay[s] and resets it on the first step whose time plus GRID_EPS reaches
that, never earlier than the step after the spike (_arrival).
"""

import numpy as np

from .errors import ValidationError

GRID_EPS = 1e-9
BLOCK = 256  # steps integrated per block, a power of two
SUB = 32  # steps per diagonal block of the block's propagator, a power of two
SHIFT = BLOCK.bit_length() - 1


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


def reset_table(params, never):
    """(0, w_spike) - M^age (0, w_spike) for ages 0 .. 2 * never - 1, as
    V + iW: what one delivery adds to a unit-weight dendrite state. Ages of
    `never` or more belong to a synapse never reset, whose state is 0."""
    p = params
    lam, c = synapse_modes(p)
    powers = lam ** np.arange(never)[:, None]
    table = np.full(2 * never, 1j * p.w_spike)
    table[:never] -= (powers @ c).real + 1j * (powers @ (c * (1.0 - lam) * p.c_m / p.dt)).real
    table[0] = 0.0  # a second arrival in the step of a reset resets nothing
    return table


def euler_powers(params, k):
    """Powers 0..k of one forward-Euler step of (V, W, V_m, Vdbar, 1), (k + 1, 5, 5)."""
    p = params
    a, g = p.dt / p.c_m, p.dt * p.g_c / p.c_m
    step = np.array([
        [1.0, -a, 0.0, 0.0, 0.0],
        [p.dt / p.l_res, 1.0 - p.dt * p.inv_tau_s, 0.0, 0.0, 0.0],
        [g, 0.0, 1.0 - p.dt * (p.g_l + p.g_c) / p.c_m, -g, p.dt * p.g_l * p.v_l / p.c_m],
        [p.dt / p.tau_d, 0.0, 0.0, 1.0 - p.dt / p.tau_d, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0]])
    powers = [np.eye(5)]
    for _ in range(k):
        powers.append(step @ powers[-1])
    return np.array(powers)


def _response(powers, lag, out_rows, in_rows):
    """Matrix whose (a, b) entry is powers[lag[a, b]][out_rows[b], in_rows[a]]:
    input a's effect on output b after that many steps, 0 where lag < 0."""
    lag = np.asarray(lag)
    out = np.broadcast_to(np.asarray(out_rows), lag.shape)
    inp = np.broadcast_to(np.asarray(in_rows)[:, None], lag.shape)
    live = lag >= 0
    m = np.zeros(lag.shape)
    m[live] = powers[lag[live], out[live], inp[live]]
    return m


def propagators(params):
    """The block's linear map, as a lower-triangular Toeplitz product cut
    into SUB-step diagonal blocks that talk through the 4-dimensional state.

    local (2 SUB, SUB + 4): one sub-block's deliveries (V, W at each of its
    steps, interleaved) to V_m after each of its steps, and to the state
    (V, W, V_m, Vdbar) they leave at its end.
    carry (4 BLOCK / SUB + 5, BLOCK + 3): those end states of every
    sub-block, then the state entering the block (V, W, V_m, Vdbar, 1), to
    V_m after every step of the later sub-blocks and to (V, W, Vdbar)
    entering the next block."""
    powers = euler_powers(params, BLOCK)
    q = np.arange(SUB)
    lag = q - q[:, None] + 1  # from a delivery at step d to V_m after step q
    lag[lag <= 0] = -1
    lag = np.hstack([lag, np.repeat(SUB - q[:, None], 4, axis=1)])
    local = np.stack([_response(powers, lag, [2] * SUB + [0, 1, 2, 3], [comp] * SUB)
                      for comp in (0, 1)], axis=1).reshape(2 * SUB, SUB + 4)
    ends = SUB * np.arange(1, BLOCK // SUB + 1)
    lag = np.arange(BLOCK) + 1 - ends[:, None]  # from a sub-block's end to V_m after step j
    lag[lag <= 0] = -1
    lag = np.repeat(np.hstack([lag, np.repeat(BLOCK - ends[:, None], 3, axis=1)]), 4, axis=0)
    out_rows = [2] * BLOCK + [0, 1, 3]
    carry = _response(powers, lag, out_rows, np.tile(np.arange(4), BLOCK // SUB))
    entry = _response(powers, np.broadcast_to(np.r_[np.arange(1, BLOCK + 1), [BLOCK] * 3],
                                              (5, BLOCK + 3)), out_rows, np.arange(5))
    return local, np.vstack([carry, entry])


def fire(vm, vm_prev, armed, v_th):
    """Spikes of V_m trajectories vm (N, m) under the threshold rule.

    vm_prev (N,) is V_m before the first step, and armed (N,) tells whether
    each neuron may fire (it is updated in place to its value after the last
    step). A neuron fires where V_m rises through v_th > 0 while armed;
    firing disarms it, and a step with V_m < 0 arms it. So an upcrossing
    fires if V_m < 0 since the row's previous upcrossing, or, for its first
    upcrossing, if the neuron was armed on entry or V_m < 0 since. Returns
    (row, step) of each spike in row-major order."""
    n, m = vm.shape
    above = vm >= v_th
    up = np.empty_like(above)  # rose through v_th
    np.less(vm_prev, v_th, out=up[:, 0])
    up[:, 0] &= above[:, 0]
    np.greater(above[:, 1:], above[:, :-1], out=up[:, 1:])
    ups = np.flatnonzero(up)
    row, step = np.divmod(ups, m)
    # whether V_m < 0 on each stretch of a row that starts at the row's
    # first step or at an upcrossing and runs to the next of either
    starts = np.arange(n) * m
    cuts = np.union1d(starts, ups)
    dips = np.minimum.reduceat(np.ascontiguousarray(vm).reshape(-1), cuts) < 0.0
    last = np.searchsorted(cuts, starts + m) - 1  # each row's last stretch
    entered = armed.copy()
    quiet = np.ones(n, dtype=bool)  # rows without an upcrossing
    quiet[row] = False
    np.logical_or(dips[last], entered & quiet, out=armed)
    first = np.diff(row, prepend=-1) != 0  # the row's first upcrossing
    dipped = (step > 0) & dips[np.searchsorted(cuts, ups) - 1]  # on the stretch before it
    fired = dipped | (first & entered[row])
    return row[fired], step[fired]


class Integrator:
    """Circuit state and pending deliveries of one run over a stimulus sequence."""

    def __init__(self, circuit, v_threshold, n_steps, stimuli):
        """stimuli: (start time, generator offsets, n_cycles) per stimulus."""
        p = circuit.params
        self.circuit, self.v_th, self.total = circuit, v_threshold, n_steps
        never = self.total + 1  # an age no reset reaches: the synapse was never reset
        self.table = reset_table(p, never)
        self.local, carry = propagators(p)
        self.carry_vm, self.carry_end = carry[:, :BLOCK].copy(), carry[:, BLOCK:].copy()
        n, first = circuit.n_neurons, np.asarray(circuit.layer_offsets)
        owner = circuit.syn_owner
        layer = circuit.neuron_layer[owner] - 1
        self.weight = circuit.syn_w
        self.col = (owner - first[layer]) * BLOCK  # row of the owner in its layer
        self.out_delay = circuit.syn_delay
        self.last = np.full(owner.size, -never, dtype=np.int64)
        self.state = np.zeros((n, 5))  # V, W, V_m, Vdbar, 1
        self.state[:, 4] = 1.0
        self.armed = np.ones(n, dtype=bool)  # not refractory
        self.vm_max = np.zeros(n)
        # The generator synapses come first, grouped by the layer they feed:
        # the input generators feed layer 0 only, and the reference generator
        # comes last with its bias synapses in owner order.
        self.gen_src = np.repeat(np.arange(circuit.n_gen),
                                 np.diff(circuit.out_ptr[:circuit.n_gen + 1]))
        self.gen_bounds = np.searchsorted(layer[:self.gen_src.size],
                                          np.arange(len(circuit.layer_sizes) + 1))
        self.pending = {}  # (layer, block) -> arrays of synapse * BLOCK + step in block
        self.spike_t, self.spike_n = [], []
        self.deliveries = 0
        for t0, offsets, n_cycles in stimuli:
            self._send_generators(t0, offsets, n_cycles)

    def _arrival(self, t, earliest):
        """Step on which a delivery due at time t lands: the first step whose
        time plus GRID_EPS reaches t, and not before step `earliest`."""
        dt = self.circuit.params.dt
        j = np.ceil((t - GRID_EPS) / dt).astype(np.int64)
        j += j * dt + GRID_EPS < t  # the division can land one step short
        j -= (j - 1) * dt + GRID_EPS >= t  # or one step long
        return np.maximum(j, earliest)

    def _send(self, layer, steps, syn):
        """Queue deliveries to `layer`'s synapses on the given steps."""
        blocks = steps >> SHIFT
        lo = int(blocks.min())
        rel = (blocks - lo).astype(np.min_scalar_type(int(blocks.max()) - lo))
        order = np.argsort(rel, kind="stable")  # a radix sort for these small ints
        keys = ((syn << SHIFT) | (steps & (BLOCK - 1)))[order]
        bounds = np.cumsum(np.bincount(rel)).tolist()
        for b, (i, j) in enumerate(zip([0] + bounds[:-1], bounds)):
            if j > i:
                self.pending.setdefault((layer, lo + b), []).append(keys[i:j])

    def _send_generators(self, t0, offsets, n_cycles):
        """Queue every generator volley of a stimulus starting at time t0.
        Each cycle's times add the period to the last cycle's, as a heap that
        re-queues a volley would."""
        c = self.circuit
        t = (t0 + offsets[self.gen_src]) + self.out_delay[:self.gen_src.size]
        for _ in range(n_cycles):
            steps = self._arrival(t, 0)
            for l, (lo, hi) in enumerate(zip(self.gen_bounds[:-1], self.gen_bounds[1:])):
                if hi > lo:
                    self._send(l, steps[lo:hi], np.arange(lo, hi))
            t = t + c.params.period

    def _deliveries(self, layer, block, m):
        """Deliveries to `layer` in the block's first m steps: the (V, W) they
        add at each neuron and step, as N * BLOCK pairs; None when there are
        none."""
        parts = self.pending.pop((layer, block), None)
        if not parts:
            return None
        keys = np.sort(np.concatenate(parts))
        syn, i = keys >> SHIFT, keys & (BLOCK - 1)
        if m < BLOCK:  # the run ends inside this block
            syn, i = syn[i < m], i[i < m]
            if not syn.size:
                return None
        self.deliveries += syn.size
        step = i + block * BLOCK
        prev = self.last[syn]
        repeat = syn[1:] == syn[:-1]
        if repeat.any():  # a synapse's later deliveries age from its earlier ones
            at = np.flatnonzero(repeat) + 1
            prev[at] = step[at - 1]
            end = np.append(~repeat, True)
            self.last[syn[end]] = step[end]
        else:
            self.last[syn] = step
        amount = self.table.take(step - prev)
        amount *= self.weight[syn]
        x = np.zeros(self.circuit.layer_sizes[layer] * BLOCK, dtype=np.complex128)
        np.add.at(x, self.col[syn] + i, amount)
        return x.view(np.float64)

    def run(self, rec_ids, rec_vm):
        """Integrate every step; returns (failing neuron or -1, step)."""
        n_layers = len(self.circuit.layer_sizes)
        for block in range((self.total + BLOCK - 1) // BLOCK):
            m = min(BLOCK, self.total - block * BLOCK)
            bad = [self._layer_block(l, block, m, rec_ids, rec_vm) for l in range(n_layers)]
            bad = [b for b in bad if b is not None]
            if bad:
                return min(bad, key=lambda b: (b[1], b[0]))
        return -1, self.total

    def _layer_block(self, l, block, m, rec_ids, rec_vm):
        """Integrate layer l over the block's first m steps, fire its spikes
        and queue their deliveries; returns (neuron, step) on a blow-up."""
        c = self.circuit
        v_th, b0 = self.v_th, block * BLOCK
        first, size = c.layer_offsets[l], c.layer_sizes[l]
        state = self.state[first:first + size]
        vm_prev = state[:, 2].copy()
        x = self._deliveries(l, block, m)
        if x is None:  # only the rows of the entering state apply
            carry_in = state
        else:
            local = x.reshape(-1, 2 * SUB) @ self.local  # (N * BLOCK / SUB, SUB + 4)
            carry_in = np.concatenate((local[:, SUB:].reshape(size, -1), state), axis=1)
        vm = carry_in @ self.carry_vm[-carry_in.shape[1]:]
        if x is not None:
            by_sub = vm.reshape(-1, SUB)
            np.add(by_sub, local[:, :SUB], out=by_sub)
        state[:, (0, 1, 3)] = carry_in @ self.carry_end[-carry_in.shape[1]:]
        state[:, 2] = vm[:, BLOCK - 1]
        vm = vm[:, :m]
        top = vm.max(axis=1)
        if not (np.isfinite(top).all() and np.isfinite(vm[:, -1]).all()):
            k = int(np.flatnonzero(~np.isfinite(vm).all(axis=0))[0])
            return first + int(np.flatnonzero(~np.isfinite(vm[:, k]))[0]), b0 + k
        vm_max = self.vm_max[first:first + size]
        np.maximum(vm_max, top, out=vm_max)
        cols = np.flatnonzero((rec_ids >= first) & (rec_ids < first + size))
        if cols.size:
            rec_vm[b0:b0 + m, cols] = vm[rec_ids[cols] - first].T
        n, k = fire(vm, vm_prev, self.armed[first:first + size], v_th)
        if not n.size:
            return None
        v_new = vm[n, k]
        v_old = np.where(k > 0, vm[n, k - 1], vm_prev[n])
        sent = b0 + k
        tstar = sent * c.params.dt + c.params.dt * ((v_th - v_old) / (v_new - v_old))
        neurons = first + n
        self.spike_t.append(tstar)
        self.spike_n.append(neurons)
        pos, counts = csr_rows(c.out_ptr, c.n_gen + neurons)
        if pos.size:
            self._send(l + 1, self._arrival(np.repeat(tstar, counts) + self.out_delay[pos],
                                            np.repeat(sent + 1, counts)), pos)
        return None

    def spikes(self):
        """Soma spikes: (times, global neuron ids)."""
        if not self.spike_t:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        return np.concatenate(self.spike_t), np.concatenate(self.spike_n)
