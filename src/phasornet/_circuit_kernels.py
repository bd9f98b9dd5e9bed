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
6-block run under a 4-block budget is two chunks of 3; a layer of up to 170
neurons takes a 1500-step run in one chunk), and within a chunk
the layers are integrated in order: when layer l starts, every delivery it gets
in the chunk is known, from the generators, from earlier chunks, and from
the spikes layer l-1 fired in this chunk. A layer too large for one block
within the budget is integrated in row slices. One pass over a slice injects
its deliveries into the sub-blocks they land in and takes those sub-blocks'
products only (a sub-block without a delivery adds exactly 0), carries the
4-wide entering state from block to block, takes V_m of the whole chunk in
one product, fires, and sends the spikes' deliveries.

Deliveries. Each is queued, in a bucket per (layer, chunk), as its owner's
row * chunk + step in the chunk, its synapse and its reset age, all int32.
A run is the synapses one source sends through to one layer: an input
generator's, the reference generator's to each layer, a neuron's. Synapses
are numbered as the circuit stores them, in sending order: by run, then by
grid phase frac(delay / dt), then by owner, so a spike's deliveries are one
contiguous run, and a synapse has one source. The circuit carries the send
plan, built once with it (send_plan): each run's bounds and a float32
search key, 2 run + grid phase. Generator volleys and soma spikes take one
send path (_send): a generator volley is a spike of each generator run at
its timetable time, one timetable row per cycle with the reference generator
last, and every layer's generator runs are sent together, when the chunk
their cycle starts in comes up. A synapse's previous delivery came from its
run's previous spike, whose time and earliest step the kernel keeps for
every run, so a delivery's age is arrival(t + d) - arrival(t_prev + d),
fixed when it is sent.

Null deliveries. A delivery whose reset-table entry is exactly 0 adds
nothing: a second arrival in the step of a reset (age 0) and, when a period
is a whole number P of steps (steps_per_period; the default dt = period/100
always is), an arrival k * P steps after the synapse's last reset, which
swaps the synapse's trajectory for itself (as computed, the entry would be
rounding: 3.1e-17 at one period, at most 5.1e-16 over 15, against
w_spike = 0.3). A null delivery is counted in `deliveries`, but never
queued, sorted, gathered or injected. On a phase-locked net most deliveries
are null, and most of those are never computed either (the band rule): when
a spike comes m >= 1 whole periods after its run's previous one, give or
take a drift |delta| < 1 step, a synapse's arrival moves by exactly m * P
steps unless its arrival cell boundary lies between the two spikes' arrival
positions. Those synapses form one or two slices of the run's grid phases,
found by searchsorted and widened on each side by MARGIN steps against
rounding and by GRID_EPS / dt steps for the send-step clamp: a soma spike
lies in (sent dt, (sent + 1) dt], so the clamp to step sent + 1 moves only a
delay below GRID_EPS from a spike within GRID_EPS of its step's start, whose
arrival lies within GRID_EPS / dt steps of the spike's own cell boundary.
The search key is float32, and the window's ends are rounded to float32
too, so rounding, which keeps order, can only widen a slice, by up to a
float32 spacing of the key (6e-5 steps on a net of a few hundred runs): it
computes more deliveries, never fewer. Only those slices are computed, and
_queue drops the null ones among them by the table's nonzero mask `live`.
Of the others, a delivery due after the run's last step is not one: within
a period of the run's end, they are counted by comparing each due time with
the last step's (_past). Where period/dt is not whole, every spike computes
its whole run and only age 0 is null. The band rule changes no raster: what it skips is null, and one
spike's deliveries go to distinct owners, so the order of the synapses
within a run changes no summation order. Dropping null deliveries does,
where period/dt is whole: against injecting every delivery, spike times move
in the last digits, with the same spike sequences.

Summation order. The chunk's products add the same terms as one block at a
time would, in another order, so spike times can move in the last digits,
with the same spike sequence and deliveries. So can the sub-block product,
whose row count varies with the deliveries and so may change the BLAS
kernel that computes a row.

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
BUDGET = 1 << 18  # (neuron, step) entries integrated in one pass
MARGIN = 1e-6  # steps the band rule widens its window by on each side against rounding


def csr_rows(ptr, rows):
    """Positions ptr[r]:ptr[r+1] of every row r, concatenated."""
    lo, hi = ptr[rows], ptr[rows + 1]
    counts = hi - lo
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return starts + np.arange(starts.size), counts


def steps_per_period(params):
    """P when a period is a whole number P of steps, up to 4 ulp of rounding
    in period/dt, else None."""
    ratio = params.period / params.dt
    cycle = round(ratio)
    return cycle if abs(ratio - cycle) <= 4 * np.spacing(ratio) else None


def grid_phase(delay, dt):
    """Each delay's position in its grid cell, frac(delay / dt)."""
    x = delay / dt
    return x - np.floor(x)


def send_plan(circuit):
    """(order, run_ptr, phase_key) of a circuit whose synapses are grouped by
    run. order puts each run in sending order, by grid phase; synapses of
    equal phase keep the order they came in, which build_circuit makes by
    owner. Run r's synapses are run_ptr[r]:run_ptr[r + 1]. phase_key is
    2 run + grid phase in sending order, ascending, as float32; a key
    rounded up to a whole number stays below the next run's keys.

    Runs: input generator g is run g, the reference generator's run to
    layer l is run n_gen - 1 + l, so layer 0's generator runs are
    0 .. n_gen - 1, and neuron k's run follows them all."""
    ptr, ref = circuit.out_ptr, circuit.n_gen - 1
    layer = circuit.neuron_layer[circuit.syn_owner[ptr[ref]:ptr[ref + 1]]]
    bias = ptr[ref] + np.searchsorted(layer, np.arange(1, len(circuit.layer_sizes) + 1))
    run_ptr = np.concatenate((ptr[:ref], bias, ptr[ref + 1:]))
    run = np.repeat(np.arange(run_ptr.size - 1), np.diff(run_ptr))
    key = grid_phase(circuit.syn_delay, circuit.params.dt)
    key += 2.0 * run
    order = np.argsort(key, kind="stable")
    return order, run_ptr, key.take(order).astype(np.float32)


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
    cycle = steps_per_period(p)
    if cycle:
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
    dips = np.logical_or.reduceat((vm < 0.0).reshape(-1), cuts)
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
        cycle starts. The circuit carries its send plan (send_plan), so
        nothing here is per synapse."""
        p = circuit.params
        self.circuit, self.v_th, self.total = circuit, v_threshold, n_steps
        self.table, self.live, self.local, self.carry_vm, self.carry_end = constants(p, n_steps)
        n, sizes = circuit.n_neurons, circuit.layer_sizes
        # the fewest chunks the budget allows, of equal whole-block sizes
        blocks, nb = -(-n_steps // BLOCK), max(1, BUDGET // (BLOCK * max(sizes)))
        nb = -(-blocks // -(-blocks // nb))
        self.chunk = nb * BLOCK  # steps per chunk
        self.n_chunks = -(-n_steps // self.chunk)
        self.rows = max(1, BUDGET // self.chunk)  # rows per slice of a layer
        self.weight, self.out_delay = circuit.syn_w, circuit.syn_delay
        self.owner = circuit.syn_owner
        self.run_ptr, self.phase_key = circuit.run_ptr, circuit.phase_key
        self.neuron_run = circuit.n_gen - 1 + len(sizes)
        n_runs = self.run_ptr.size - 1
        self.state = np.zeros((n, 4))  # V, W, V_m, Vdbar
        self.armed = np.ones(n, dtype=bool)  # not refractory
        self.vm_max = np.zeros(n)
        # one slice's V_m and carry input, reused by every pass
        rows = min(self.rows, max(sizes))
        self.vm = np.empty(rows * self.chunk)
        self.cin = np.empty((rows, nb, 4 * BLOCK // SUB + 4))
        # steps the band rule widens its window by on each side: MARGIN
        # against rounding, and GRID_EPS / dt for the send-step clamp
        self.margin = MARGIN + GRID_EPS / p.dt
        self.period_steps = steps_per_period(p)
        self.never = n_steps + 1
        # a spike after `horizon` can have deliveries due after `last_step`,
        # the last step's time plus GRID_EPS, so past the run's end
        self.horizon = (n_steps - 2) * p.dt - p.period
        self.last_step = (n_steps - 1) * p.dt + GRID_EPS
        # Each run's previous spike time and earliest arrival step. A run that
        # has not spiked has its spike 2 never steps back and reset on step
        # -never, so its first deliveries have ages of never or more.
        self.prev_t = np.full(n_runs, -2.0 * self.never * p.dt)
        self.prev_floor = np.full(n_runs, -float(self.never))
        self.gen_times = gen_times
        self.gen_sent = 0  # cycles whose volleys are queued
        self.pending = {}  # (layer, chunk) -> (key, synapse, age) arrays
        self.spike_t, self.spike_n = [], []
        self.deliveries = 0

    def _arrival(self, t, earliest):
        """Step on which a delivery due at time t lands: the first step whose
        time plus GRID_EPS reaches t, and not before step `earliest`."""
        dt = self.circuit.params.dt
        j = np.ceil((t - GRID_EPS) * (1.0 / dt))  # whole numbers in float64, exact up to 2**53
        g = j * dt
        g += GRID_EPS
        j[np.flatnonzero(g < t)] += 1.0  # the estimate can land one step short
        np.subtract(j, 1.0, out=g)
        g *= dt
        g += GRID_EPS
        j[np.flatnonzero(g >= t)] -= 1.0  # or one step long
        np.maximum(j, earliest, out=j)  # a float `earliest` saves a cast per element
        return j.astype(np.int32)

    def _queue(self, layer, steps, syn, age):
        """Queue deliveries on the given steps to the given synapses, owned
        by neurons of `layer` (one for all, or one per delivery), with the
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
            if np.ndim(layer):
                layer = layer.take(keep)
        bucket = steps // self.chunk  # (layer, chunk) as layer * chunks + chunk
        bucket += layer * self.n_chunks
        lo, hi = int(bucket.min()), int(bucket.max())
        for b in range(lo, hi + 1):
            s, st, a = syn, steps, age
            if hi > lo:
                at = np.flatnonzero(bucket == b)
                if not at.size:
                    continue
                s, st, a = syn.take(at), steps.take(at), age.take(at)
            l, k = divmod(b, self.n_chunks)
            # Delivery keys, steps and ages are int32: a layer holds fewer
            # than 2**31 (neuron, step) entries of a chunk, and a run fewer
            # steps.
            key = self.owner.take(s)  # the owner's row, then its entry
            key -= self.circuit.layer_offsets[l]
            key *= self.chunk
            key += st
            key -= k * self.chunk
            self.pending.setdefault((l, k), []).append(
                (key, s.astype(np.int32, copy=False), a.astype(np.int32, copy=False)))

    def _send_generators(self, until):
        """Send the generator volleys of every cycle that starts before time
        `until`: each generator run spikes once a cycle, at its timetable
        time. Runs 0 .. n_gen - 1 feed layer 0; the reference generator's
        run n_gen - 1 + l feeds layer l, at the reference generator's time."""
        start, self.gen_sent = self.gen_sent, int(np.searchsorted(self.gen_times[:, -1], until))
        if self.gen_sent <= start:
            return
        times = self.gen_times[start:self.gen_sent]
        k, n_gen = times.shape
        n_layers = len(self.circuit.layer_sizes)
        col = np.r_[np.arange(n_gen), np.full(n_layers - 1, n_gen - 1)]  # each run's time column
        layer = np.r_[np.zeros(n_gen, dtype=np.intp), np.arange(1, n_layers)]
        self._send(np.tile(layer, k), np.tile(np.arange(col.size), k),
                   times[:, col].reshape(-1), np.zeros(k * col.size))

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
        for chunk in range(self.n_chunks):
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
        cin = self.cin[:rows]
        subs, local = self._inject(got, rows * width // SUB)
        ends = cin.reshape(rows * nb, -1)[:, :-4].reshape(rows * nb, -1, 4)  # a view
        ends.fill(0.0)
        ends[np.divmod(subs, ends.shape[1])] = local[:, SUB:]
        for b in range(nb):  # the state entering each block
            cin[:, b, -4:] = state
            np.matmul(cin[:, b], self.carry_end, out=state)
        vm = np.matmul(cin.reshape(rows * nb, -1), self.carry_vm,
                       out=self.vm[:rows * width].reshape(rows * nb, BLOCK))
        by_sub = vm.reshape(-1, SUB)
        by_sub[subs] += local[:, :SUB]
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
            self._send(l + 1, self.neuron_run + neurons, tstar, sent + 1.0)
        return None

    def _inject(self, got, n_sub):
        """(sub-blocks, their products) of a pass's deliveries `got`: the
        sub-blocks of its n_sub that a delivery lands in, ascending, and
        `local` times their injected (V, W), whose (SUB + 4) columns are V_m
        after each of their steps and the state they leave at their end.
        Every other sub-block adds exactly 0, so it is not injected or
        multiplied."""
        key, syn, age = got
        at = key.astype(np.intp)  # indexing by int32 casts on every use
        at //= SUB  # each delivery's sub-block
        hit = np.zeros(n_sub, dtype=bool)
        hit[at] = True
        # a delivery's place among the hit sub-blocks' entries is its key,
        # moved down SUB entries for each sub-block without a delivery
        # before its own
        shift = np.cumsum(hit) - 1 - np.arange(n_sub)
        shift *= SUB
        np.take(shift, at, out=at)
        at += key
        subs = np.flatnonzero(hit)
        x = np.zeros((subs.size, SUB), dtype=np.complex128)
        add = self.table.take(age)
        add *= self.weight.take(syn)
        np.add.at(x.reshape(-1), at, add)
        return subs, x.view(np.float64).reshape(-1, 2 * SUB) @ self.local

    def _send(self, layer, runs, t, floor):
        """Queue to `layer` (one for all, or one per spike) the deliveries of
        spikes of the given runs at times t, landing on step `floor` (a
        float) or later; a run's spikes come in time order. Only the
        deliveries _computed names are computed; the others are null, and
        counted unless they land past the run's end."""
        # each spike's run's previous spike: earlier in this call, or kept
        order = np.argsort(runs, kind="stable")
        r, ts, fs = runs.take(order), t.take(order), floor.take(order)
        again = r[1:] == r[:-1]
        tp, fp = self.prev_t.take(r), self.prev_floor.take(r)
        tp[1:][again], fp[1:][again] = ts[:-1][again], fs[:-1][again]
        final = np.append(~again, True)
        self.prev_t[r[final]], self.prev_floor[r[final]] = ts[final], fs[final]
        t_prev, floor_prev = np.empty_like(tp), np.empty_like(fp)
        t_prev[order], floor_prev[order] = tp, fp

        pos, per, past = self._computed(runs, t, t_prev)
        sent = self.run_ptr.take(runs + 1) - self.run_ptr.take(runs)
        self.deliveries += int(sent.sum()) - pos.size - past  # null, never computed
        if not pos.size:
            return
        delay = self.out_delay.take(pos)
        steps = self._arrival(np.repeat(t, per) + delay, np.repeat(floor, per))
        age = steps - self._arrival(np.repeat(t_prev, per) + delay, np.repeat(floor_prev, per))
        self._queue(np.repeat(layer, per) if np.ndim(layer) else layer, steps, pos, age)

    def _computed(self, runs, t, t_prev):
        """(positions, count per spike, past) of the deliveries to compute for
        spikes of the given runs at times t, whose runs spiked before at
        t_prev: a band spike's band slices, every other spike's whole run.
        `past` counts the others that land past the run's end, which are not
        deliveries."""
        lo, hi = self.run_ptr.take(runs), self.run_ptr.take(runs + 1)
        wrap_end, start, end = hi.copy(), hi.copy(), hi.copy()
        band = self._band(t, t_prev)
        if band is not None:
            # The arrival-cell positions whose cell boundary the drift
            # crosses, [min(drift, 0), max(drift, 0)] widened by the margin,
            # as grid phases: [a, z] mod 1, one slice or two
            b, drift = band
            cell = (t.take(b) - GRID_EPS) / self.circuit.params.dt
            a = np.minimum(drift, 0.0) - self.margin - (cell - np.floor(cell))
            a -= np.floor(a)
            z = a + (np.abs(drift) + 2 * self.margin)
            base = 2.0 * runs.take(b)
            s = self._search(base + a, "left")
            wrap_end[b], start[b] = lo.take(b), s
            end[b] = self._search(base + np.minimum(z, 1.0), "right")
            wrap = np.flatnonzero(z > 1.0)
            if wrap.size:
                w = self._search(base.take(wrap) + (z.take(wrap) - 1.0), "right")
                wrap_end[b.take(wrap)] = np.minimum(w, s.take(wrap))
        # per spike: [lo, wrap_end) is its whole run, or a band spike's
        # wrapped slice, and [start, end) its main slice
        bounds = np.stack((lo, wrap_end, start, end), axis=1).reshape(-1)
        pos, counts = csr_rows(bounds, np.arange(0, bounds.size, 2))
        return pos, counts.reshape(-1, 2).sum(axis=1), \
            0 if band is None else self._past(band[0], t, wrap_end, start, end, hi)

    def _search(self, keys, side):
        """Positions of float64 keys in the float32 search key. A key is
        rounded to float32 as the search key was, and rounding keeps order,
        so a synapse whose 2 run + grid phase lies in a searched range stays
        in it; searching unrounded keys could miss one. It also keeps numpy
        from casting the whole search key up."""
        return self.phase_key.searchsorted(keys.astype(np.float32), side=side)

    def _past(self, b, t, wrap_end, start, end, hi):
        """How many of band spikes b's uncomputed deliveries, [wrap_end,
        start) and [end, hi) of each run, land past the run's end: those due
        after the last step's time plus GRID_EPS, as _arrival compares it."""
        late = b.compress(t.take(b) > self.horizon)
        if not late.size:
            return 0
        rest = np.stack((wrap_end, start, end, hi), axis=1).take(late, axis=0).reshape(-1)
        pos, counts = csr_rows(rest, np.arange(0, rest.size, 2))
        due = np.repeat(t.take(late), counts.reshape(-1, 2).sum(axis=1))
        due += self.out_delay.take(pos)
        return int(np.count_nonzero(due > self.last_step))

    def _band(self, t, t_prev):
        """(spikes, drift) of the spikes the band rule applies to: each comes
        m >= 1 whole periods after its run's previous spike, give or take a
        drift |delta| < 1 - 2 margin steps, with m * P a null age (so not a
        run's first spike). A synapse's delivery then lands m * P steps
        after its last, a null one, unless its arrival cell boundary lies
        between the two spikes' arrival positions. None where there is no
        such spike, as where a period is not whole steps."""
        P = self.period_steps
        if not P:
            return None
        span = (t - t_prev) / self.circuit.params.dt
        m = np.rint(span / P)
        drift = span - m * P
        band = np.flatnonzero((m >= 1) & (m * P < self.never)
                              & (np.abs(drift) < 1.0 - 2 * self.margin))
        return (band, drift.take(band)) if band.size else None

    def spikes(self):
        """Soma spikes: (times, global neuron ids)."""
        if not self.spike_t:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        return np.concatenate(self.spike_t), np.concatenate(self.spike_n)
