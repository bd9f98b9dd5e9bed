"""Layer-chunk integration kernel for the circuit backend.

Exact step map. Between deliveries the state (V, W, V_m, Vdbar) obeys a
linear ODE with constant coefficients, so one step of it is the fixed map
e^(dt A), computed once (step_powers): it has no discretisation error, and
dt sets only the grid that deliveries land on and that threshold crossings
are found on. Between resets a synapse (v, w) follows the map's 2x2 synapse
block M = e^(dt A_s), A_s = [[0, -1/C_m], [omega^2 C_m, 0]]: an undamped
oscillator resonant at omega = 2pi/T. A delivery resets it to (0, w_spike).
A neuron's dendrite therefore needs only the weighted sum
(V, W) = sum_s w_s (v_s, w_s): it follows M too, and a delivery to synapse s
adds w_s ((0, w_spike) - M^age (0, w_spike)), which swaps the synapse's old
trajectory, reset `age` steps ago, for a fresh one. M^n (0, w_spike) is
(-(w_spike / (C_m omega)) sin(omega t), w_spike cos(omega t)) at t = n dt
(reset_table). A spike resets neither the soma nor the
dendrite, so (V, W, V_m, Vdbar) is a linear filter of the deliveries, and
BLOCK steps of it are one lower-triangular Toeplitz product plus an
initial-state basis (the propagator method of Rotter & Diesmann 1999). The
product is taken in SUB-step diagonal blocks, which pass their effect on
later steps through the 4-dimensional state (propagators).
The propagators and the reset table depend only on the parameter values and
the step count, and are built once for each (constants).

Chunks. The circuit is feed-forward, and a delivery never lands on the step
that sent it. A run is cut into the fewest chunks of equal whole-block
sizes that the largest layer fits in BUDGET (neuron, step) entries (a
6-block run under a 4-block budget is two chunks of 3), and within a chunk
the layers are integrated in order: when layer l starts, every delivery it gets
in the chunk is known, from the generators, from earlier chunks, and from
the spikes layer l-1 fired in this chunk. A layer too large for one block
within the budget is integrated in row slices. One pass over a slice injects
its deliveries, takes the sub-block products of every block at once, carries
the 4-wide entering state from block to block, takes V_m of the whole chunk
in one product, fires, and sends the spikes' deliveries.

Deliveries. Each is queued, in a bucket per (layer, chunk), as its owner's
row * chunk + step in the chunk, its synapse and its reset age, all int32.
The age is fixed when the delivery is sent. Synapses are numbered as the
circuit stores them, in sending order (by source, then by owner), so a
spike's deliveries are one contiguous run, and a synapse has one source.
fire returns spikes in (neuron, step) order, so the delivery before a
spike's to a synapse is the one at the same position of the run of the
previous spike, when that came from the same neuron, or else the last one
sent to it (last). Generator spikes are read from the run's timetable, one
row of spike times per cycle with the reference generator last. A cycle's
row is queued when the chunk its cycle starts in comes up; the rows queued
together form a (cycle, synapse) grid whose rows age from the row before.

Null deliveries. A delivery whose reset-table entry is exactly 0 adds
nothing: a second arrival in the step of a reset (age 0) and, when a period
is a whole number P of steps (the default dt = period/100 always is), an
arrival k * P steps after the synapse's last reset, which swaps the synapse's
trajectory for itself (as computed, the entry would be rounding: 3.1e-17
at one period, at most 5.1e-16 over 15, against w_spike = 0.3). Such a
delivery is counted in `deliveries` and sets its synapse's last reset, but
_queue drops it, by the table's nonzero mask `live`, before it is queued,
sorted, gathered or injected. On a phase-locked net most deliveries are
null. Where period/dt is not an integer, only age 0 is null, and rasters are
bit-identical to injecting every delivery; elsewhere spike times move in the
last digits, with the same spike sequences.

Summation order. The chunk's products add the same terms as one block at a
time would, in another order, so spike times can move in the last digits,
with the same spike sequence and deliveries.

Clock. A run over a stimulus sequence has one clock: step j starts at j*dt
and ends at (j + 1)*dt, and the run is round(total cycles * period / dt)
steps. Generator spike times are given, not accumulated: the timetable
(built by circuit.run) puts cycle k of a stimulus that starts at t0 at
(t0 + k * period) + offset, so a stimulus switch restarts nothing, and the
times land on the grid like every other delivery.

Firing. A neuron fires where V_m rises through the threshold, unless it is
refractory; V_m < 0 ends refractoriness (fire). Spike times are linearly
interpolated between grid points. A spike at t reaches synapse s at
t + delay[s] and resets it on the first step whose time plus GRID_EPS reaches
that, never earlier than the step after the spike (_arrival).
"""

import functools

import numpy as np

GRID_EPS = 1e-9
BLOCK = 256  # steps per block of the block propagator, a power of two
SUB = 32  # steps per diagonal block of the block's propagator, a power of two
BUDGET = 1 << 17  # (neuron, step) entries integrated in one pass


def csr_rows(ptr, rows):
    """Positions ptr[r]:ptr[r+1] of every row r, concatenated."""
    lo, hi = ptr[rows], ptr[rows + 1]
    counts = hi - lo
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return starts + np.arange(starts.size), counts


def reset_table(params, never):
    """(0, w_spike) - M^age (0, w_spike) for ages 0 .. 2 * never - 1, as
    V + iW: what one delivery adds to a unit-weight dendrite state,
    (w_spike / (C_m omega)) sin(omega t) + i w_spike (1 - cos(omega t)) at
    t = age * dt. Ages of `never` or more belong to a synapse never reset,
    whose state is 0. The null ages, whose entry is exactly 0, are age 0 and,
    when a period is a whole number P of steps, every k * P below `never`."""
    p = params
    phase = p.omega * p.dt * np.arange(never)
    table = np.full(2 * never, 1j * p.w_spike)
    table[:never] = p.w_spike / (p.c_m * p.omega) * np.sin(phase)
    table[:never] += 1j * p.w_spike * (1.0 - np.cos(phase))
    table[0] = 0.0  # a second arrival in the step of a reset resets nothing
    ratio = p.period / p.dt
    cycle = round(ratio)
    if abs(ratio - cycle) <= 4 * np.spacing(ratio):  # a period is whole steps, up to rounding
        table[cycle:never:cycle] = 0.0  # whole periods on, a reset swaps a trajectory for itself
    return table


def _expm(a):
    """e^a of a small square matrix: a Taylor series of a / 2^s, where the
    max-row-sum norm of a / 2^s is below 1/2, squared s times."""
    s = max(0, np.frexp(np.abs(a).sum(axis=1).max())[1] + 1)
    x = a / 2.0 ** s
    term = out = np.eye(len(a))
    for k in range(1, 18):  # the first term left out is below 2^-18 / 18! < 1e-21
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def step_powers(params, k):
    """Powers 0..k of the exact step map e^(dt A) of (V, W, V_m, Vdbar),
    (k + 1, 4, 4), where A is the continuous system's generator."""
    p = params
    g = p.g_c / p.c_m
    a = np.array([
        [0.0, -1.0 / p.c_m, 0.0, 0.0],
        [p.omega ** 2 * p.c_m, 0.0, 0.0, 0.0],
        [g, 0.0, -(p.g_l + p.g_c) / p.c_m, -g],
        [1.0 / p.tau_d, 0.0, 0.0, -1.0 / p.tau_d]])
    step = _expm(p.dt * a)
    powers = [np.eye(4)]
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
    carry (4 BLOCK / SUB + 4, BLOCK + 4): those end states of every
    sub-block, then the state entering the block (V, W, V_m, Vdbar), to
    V_m after every step of the later sub-blocks and to (V, W, V_m, Vdbar)
    entering the next block."""
    powers = step_powers(params, BLOCK)
    q = np.arange(SUB)
    lag = q - q[:, None] + 1  # from a delivery at step d to V_m after step q
    lag[lag <= 0] = -1
    lag = np.hstack([lag, np.repeat(SUB - q[:, None], 4, axis=1)])
    local = np.stack([_response(powers, lag, [2] * SUB + [0, 1, 2, 3], [comp] * SUB)
                      for comp in (0, 1)], axis=1).reshape(2 * SUB, SUB + 4)
    ends = SUB * np.arange(1, BLOCK // SUB + 1)
    lag = np.arange(BLOCK) + 1 - ends[:, None]  # from a sub-block's end to V_m after step j
    lag[lag <= 0] = -1
    lag = np.repeat(np.hstack([lag, np.repeat(BLOCK - ends[:, None], 4, axis=1)]), 4, axis=0)
    out_rows = [2] * BLOCK + [0, 1, 2, 3]
    carry = _response(powers, lag, out_rows, np.tile(np.arange(4), BLOCK // SUB))
    entry = _response(powers, np.broadcast_to(np.r_[np.arange(1, BLOCK + 1), [BLOCK] * 4],
                                              (4, BLOCK + 4)), out_rows, np.arange(4))
    return local, np.vstack([carry, entry])


@functools.lru_cache(maxsize=8)
def constants(params, n_steps):
    """(reset table, its nonzero ("live") mask, local, carry's V_m part,
    carry's end part) for a run of n_steps. They are built once per
    parameter values and step count, and are read-only, as every run with
    those values shares them."""
    local, carry = propagators(params)
    table = reset_table(params, n_steps + 1)
    parts = (table, table != 0, local,
             np.ascontiguousarray(carry[:, :BLOCK]), np.ascontiguousarray(carry[:, BLOCK:]))
    for a in parts:
        a.flags.writeable = False
    return parts


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
    cuts = np.concatenate((starts, ups[step > 0]))  # an upcrossing at step 0 starts its row
    cuts.sort(kind="stable")  # a merge of two sorted runs
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

    def __init__(self, circuit, v_threshold, n_steps, gen_times):
        """gen_times: (cycles, generators) spike time of every generator in
        every cycle, the reference generator last, so its column holds the
        cycle starts."""
        p = circuit.params
        self.circuit, self.v_th, self.total = circuit, v_threshold, n_steps
        self.table, self.live, self.local, self.carry_vm, self.carry_end = constants(p, n_steps)
        n, first = circuit.n_neurons, np.asarray(circuit.layer_offsets)
        sizes = circuit.layer_sizes
        # the fewest chunks the budget allows, of equal whole-block sizes
        blocks, nb = -(-n_steps // BLOCK), max(1, BUDGET // (BLOCK * max(sizes)))
        nb = -(-blocks // -(-blocks // nb))
        self.chunk = nb * BLOCK  # steps per chunk
        self.rows = max(1, BUDGET // self.chunk)  # rows per slice of a layer
        owner = circuit.syn_owner
        layer = circuit.neuron_layer[owner] - 1
        self.weight = circuit.syn_w
        # Delivery keys, steps and ages are int32: a layer holds fewer than
        # 2**31 (neuron, step) entries of a chunk, and a run fewer steps.
        self.key = ((owner - first[layer]) * self.chunk).astype(np.int32)  # owner's row
        self.out_delay = circuit.syn_delay
        self.last = np.full(owner.size, -(n_steps + 1), dtype=np.int32)  # never reset
        self.state = np.zeros((n, 4))  # V, W, V_m, Vdbar
        self.armed = np.ones(n, dtype=bool)  # not refractory
        self.vm_max = np.zeros(n)
        # one slice's work arrays, reused by every pass; x holds V_m once the
        # sub-block products have read it
        rows = min(self.rows, max(sizes))
        self.x = np.zeros(rows * self.chunk, dtype=np.complex128)
        self.sub = np.empty((rows * self.chunk // SUB, SUB + 4))
        self.cin = np.empty((rows, nb, 4 * BLOCK // SUB + 4))
        # The generator synapses come first, grouped by the layer they feed:
        # the input generators feed layer 0 only, and the reference generator
        # comes last with its bias synapses in owner order.
        self.gen_src = np.repeat(np.arange(circuit.n_gen),
                                 np.diff(circuit.out_ptr[:circuit.n_gen + 1]))
        self.gen_bounds = np.searchsorted(layer[:self.gen_src.size],
                                          np.arange(len(sizes) + 1))
        self.gen_times = gen_times
        self.gen_sent = 0  # cycles whose volleys are queued
        self.pending = {}  # (layer, chunk) -> (key, synapse, age) arrays
        self.spike_t, self.spike_n = [], []
        self.deliveries = 0

    def _arrival(self, t, earliest):
        """Step on which a delivery due at time t lands: the first step whose
        time plus GRID_EPS reaches t, and not before step `earliest`."""
        dt = self.circuit.params.dt
        j = np.ceil((t - GRID_EPS) / dt)  # whole numbers in float64, exact up to 2**53
        j += j * dt + GRID_EPS < t  # the division can land one step short
        j -= (j - 1) * dt + GRID_EPS >= t  # or one step long
        return np.maximum(j, earliest).astype(np.int32)

    def _queue(self, layer, steps, syn, age):
        """Queue deliveries to `layer`'s synapses on the given steps, with the
        reset age of each. Those past the run's end are dropped; null ones,
        whose reset adds nothing, are counted and then dropped too."""
        keep = steps < self.total
        self.deliveries += int(np.count_nonzero(keep))
        keep &= self.live.take(age, mode="clip")  # ages past the table are past the end
        keep = np.flatnonzero(keep)
        if not keep.size:
            return
        if keep.size < steps.size:
            steps, syn, age = steps.take(keep), syn.take(keep), age.take(keep)
        lo, hi = int(steps.min()) // self.chunk, int(steps.max()) // self.chunk
        chunk = steps // self.chunk if hi > lo else None
        for k in range(lo, hi + 1):
            s, st, a = syn, steps, age
            if chunk is not None:
                at = np.flatnonzero(chunk == k)
                s, st, a = syn.take(at), steps.take(at), age.take(at)
            key = self.key.take(s)
            key += st
            key -= k * self.chunk
            self.pending.setdefault((layer, k), []).append(
                (key, s.astype(np.int32, copy=False), a.astype(np.int32, copy=False)))

    def _send_generators(self, until):
        """Queue the generator volleys of every cycle that starts before time
        `until`, as a (cycle, synapse) grid; each delivery's age counts from
        the row before."""
        start, self.gen_sent = self.gen_sent, int(np.searchsorted(self.gen_times[:, -1], until))
        if self.gen_sent <= start:
            return
        n = self.gen_src.size
        times = self.gen_times[start:self.gen_sent].take(self.gen_src, axis=1)
        times += self.out_delay[:n]
        steps = self._arrival(times, 0)
        age = np.diff(steps, axis=0, prepend=self.last[None, :n])
        self.last[:n] = steps[-1]
        for l, (lo, hi) in enumerate(zip(self.gen_bounds[:-1], self.gen_bounds[1:])):
            if hi > lo:
                self._queue(l, steps[:, lo:hi].ravel(),
                            np.tile(np.arange(lo, hi, dtype=np.int32), len(steps)),
                            age[:, lo:hi].ravel())

    def _deliveries(self, layer, chunk):
        """The (key, synapse, age) deliveries to each row slice of `layer` in
        the chunk, keys counted from the slice's first row."""
        n_slices = -(-self.circuit.layer_sizes[layer] // self.rows)
        parts = self.pending.pop((layer, chunk), [(np.zeros(0, dtype=np.int32),) * 3])
        got = [np.concatenate(a) for a in zip(*parts)] if len(parts) > 1 else parts[0]
        if n_slices == 1:
            return [got]
        span = self.rows * self.chunk
        piece = (got[0] // span).astype(np.min_scalar_type(n_slices))
        order = np.argsort(piece, kind="stable")  # a radix sort for these small ints
        key, syn, age = (a.take(order) for a in got)
        bounds = np.r_[0, np.cumsum(np.bincount(piece, minlength=n_slices))]
        return [(key[i:j] - s * span, syn[i:j], age[i:j])
                for s, (i, j) in enumerate(zip(bounds[:-1], bounds[1:]))]

    def run(self, rec_ids, rec_vm):
        """Integrate every step; returns (failing neuron or -1, step)."""
        c, p = self.circuit, self.circuit.params
        for chunk in range(-(-self.total // self.chunk)):
            self._send_generators(((chunk + 1) * self.chunk + 1) * p.dt)
            bad = []
            for l, size in enumerate(c.layer_sizes):
                for r0, got in zip(range(0, size, self.rows), self._deliveries(l, chunk)):
                    b = self._pass(l, chunk, r0, min(r0 + self.rows, size), got,
                                   rec_ids, rec_vm)
                    if b is not None:
                        bad.append(b)
            if bad:
                return min(bad, key=lambda b: (b[1], b[0]))
        return -1, self.total

    def _pass(self, l, chunk, r0, r1, got, rec_ids, rec_vm):
        """Integrate rows r0:r1 of layer l over the chunk, given their
        deliveries `got`, fire their spikes and queue their deliveries;
        returns (neuron, step) on a blow-up."""
        c = self.circuit
        v_th, width, c0 = self.v_th, self.chunk, chunk * self.chunk
        m, nb, rows = min(width, self.total - c0), width // BLOCK, r1 - r0
        first = c.layer_offsets[l] + r0
        state = self.state[first:first + rows]
        vm_prev = state[:, 2].copy()
        x, cin = self.x[:rows * width], self.cin[:rows]
        key, syn, age = got
        x.fill(0.0)
        np.add.at(x, key, self.table.take(age) * self.weight.take(syn))
        sub = np.matmul(x.view(np.float64).reshape(-1, 2 * SUB), self.local,
                        out=self.sub[:rows * width // SUB])
        cin[:, :, :-4] = sub[:, SUB:].reshape(rows, nb, -1)
        for b in range(nb):  # the state entering each block
            cin[:, b, -4:] = state
            np.matmul(cin[:, b], self.carry_end, out=state)
        vm = np.matmul(cin.reshape(rows * nb, -1), self.carry_vm,
                       out=x.view(np.float64)[:rows * width].reshape(rows * nb, BLOCK))
        by_sub = vm.reshape(-1, SUB)
        np.add(by_sub, sub[:, :SUB], out=by_sub)
        vm = vm.reshape(rows, width)[:, :m]
        top = vm.max(axis=1)
        if not (np.isfinite(top).all() and np.isfinite(vm[:, -1]).all()):
            k = int(np.flatnonzero(~np.isfinite(vm).all(axis=0))[0])
            return first + int(np.flatnonzero(~np.isfinite(vm[:, k]))[0]), c0 + k
        vm_max = self.vm_max[first:first + rows]
        np.maximum(vm_max, top, out=vm_max)
        cols = np.flatnonzero((rec_ids >= first) & (rec_ids < first + rows))
        if cols.size:
            rec_vm[c0:c0 + m, cols] = vm[rec_ids[cols] - first].T
        n, k = fire(vm, vm_prev, self.armed[first:first + rows], v_th)
        if not n.size:
            return None
        v_new = vm[n, k]
        v_old = np.where(k > 0, vm[n, k - 1], vm_prev[n])
        frac = (v_th - v_old) / (v_new - v_old)
        sent = c0 + k
        tstar = sent * c.params.dt + c.params.dt * frac
        neurons = first + n
        self.spike_t.append(tstar)
        self.spike_n.append(neurons)
        if l + 1 < len(c.layer_sizes):
            self._send(l + 1, neurons, sent, tstar)
        return None

    def _send(self, layer, neurons, sent, tstar):
        """Queue to `layer` the deliveries of spikes in (neuron, time) order,
        sent on the given steps at times tstar."""
        c = self.circuit
        pos, counts = csr_rows(c.out_ptr, c.n_gen + neurons)
        if not pos.size:
            return
        steps = self._arrival(np.repeat(tstar, counts) + self.out_delay.take(pos),
                              np.repeat(sent + 1, counts))
        # A neuron's spikes send through the same run of synapses: the
        # delivery before one of a later spike's is at the same position of
        # the run before it; that of a neuron's first spike here is `last`.
        age = steps - self.last.take(pos)
        same = np.zeros(neurons.size, dtype=bool)
        np.equal(neurons[1:], neurons[:-1], out=same[1:])
        if same.any():
            later = np.flatnonzero(np.repeat(same, counts))
            back = later - np.repeat(counts[same], counts[same])
            age[later] = steps.take(later) - steps.take(back)
            final = np.flatnonzero(np.repeat(np.append(~same[1:], True), counts))
            self.last[pos.take(final)] = steps.take(final)
        else:
            self.last[pos] = steps
        self._queue(layer, steps, pos, age)

    def spikes(self):
        """Soma spikes: (times, global neuron ids)."""
        if not self.spike_t:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        return np.concatenate(self.spike_t), np.concatenate(self.spike_n)
