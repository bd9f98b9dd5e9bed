"""spiking: a trained network run as a spiking network, both backends.

The 64-128-128-10 dense "bench net" is trained briefly in setup on synthetic
8x8 images and turned into a circuit. The run is a sequence of rounds: a
threshold calibration on two training images, then EXAMPLES_PER_ROUND
held-out examples, each through circuit.run for 15 cycles and decode_output.
Before every one of these circuit operations the ideal backend unrolls the
current example for 15 cycles, writes the raster to CSV, reads it back and
decodes it at 150 sample times, as `cli spikes` does, so that its short
operations are sampled at moments spread over the whole run.

The ideal raster is exact: the phases of its last cycle, read back with
spikemap.raster_phases, must give predict(forward(...)), and a run fails if
they do not. decode_output scores a unit by the gaps to its nearest
neighbours' spikes, where predict averages 1 - cos over all pairs, so the
two rules can pick different classes on the same exact raster. How often
they agree is measured (circuit.decode_rule_agreement) and not checked, like
the circuit's agreement with the prediction (agreement).

The traced run also puts the conv preset on one 1x28x28 image from an IDX
split through the ideal backend: 191k events, the ROADMAP baseline's unroll
and decode_over_time rows. That raster takes seconds per operation, too few
samples per run to be a steady end-to-end figure on a machine whose speed
swings, so it is reported per layer only; its class is checked and its
decode_output rule agreement counted like the bench net's.
"""

import gc
import os
import statistics

import numpy as np

from phasornet import (_circuit_kernels, circuit, cli, data, phasor_net,
                       spikemap, training)
from phasornet.circuit import CircuitParams
from phasornet.data import Dataset
from phasornet.phasor_net import LayerSpec, PhasorNetwork

import metrics
import synth

N_CYCLES = 15
DECODE_SAMPLES = 150  # one per ms over 15 cycles of 10 ms, as `cli spikes`
CALIBRATION_IMAGES = 2
CALIBRATION_CANDIDATES = 3
CALIBRATION_CYCLES = 5
# Even, so that a round is an odd number of units: the traced run alternates
# traced and untraced units, and its calibrations must fall on both.
EXAMPLES_PER_ROUND = 2
IDEAL_REPEATS = 2  # ideal-backend passes before each circuit operation
N_BENCH_TRAIN = 500
BENCH_EPOCHS = 10  # brief: the circuit needs a working classifier, not a tuned one
N_BENCH_HELD_OUT = 100
N_MNIST = 16
CSV_TOLERANCE_MS = 1e-9

def bench_net(seed):
    specs = [LayerSpec("dense", fan_in=64, fan_out=128),
             LayerSpec("dense", fan_in=128, fan_out=128),
             LayerSpec("dense", fan_in=128, fan_out=10)]
    return PhasorNetwork.create((64,), specs, seed=seed)


def delivery_count(circ, raster, last_step_time):
    """Synaptic deliveries a run made, from its raster and the outgoing CSR.

    A spike from source s at time t reaches each outgoing synapse k at
    t + delay[k]; the kernel delivers it on the first step at or after that
    time, so it counts when that time is at most the last step time. Layer 0
    events are the input generators; the reference generator, which drives
    the biases, fires at the start of every cycle and is not in the raster.
    """
    period = circ.params.period
    sources, times = [], []
    for e in raster.events:
        src = e.neuron if e.layer == 0 else (
            circ.n_gen + circ.layer_offsets[e.layer - 1] + e.neuron)
        sources.append(src)
        times.append(e.time)
    n_cycles = int(round((last_step_time + circ.params.dt) / period))
    sources += [circ.n_gen - 1] * n_cycles
    times += [c * period for c in range(n_cycles)]
    horizon = last_step_time + _circuit_kernels.GRID_EPS
    total = 0
    for src, t in zip(sources, times):
        out = circ.out_syn[circ.out_ptr[src]:circ.out_ptr[src + 1]]
        total += int(np.count_nonzero(t + circ.syn_delay[out] <= horizon))
    return total


def same_events(a, b):
    """Same (layer, neuron) sequence and times within CSV_TOLERANCE_MS."""
    if len(a.events) != len(b.events):
        return False
    return all(x.layer == y.layer and x.neuron == y.neuron
               and abs(x.time - y.time) <= CSV_TOLERANCE_MS
               for x, y in zip(a.events, b.events))


def raster_class(raster, net):
    """predict() on the output phases of the raster's last cycle."""
    phases = spikemap.raster_phases(raster, len(net.layers), net.n_outputs,
                                    cycle=raster.n_cycles - 1)
    return phasor_net.predict(np.where(np.isnan(phases), 0.0, np.exp(1j * phases)))


def ideal_event_count(net, x):
    """Active units of each layer, times the cycles that layer spikes in."""
    trace = phasor_net.forward(net, x)
    active = [int(np.count_nonzero(x))] + [int(m.sum()) for m in trace.masks]
    return sum(n * (N_CYCLES - layer) for layer, n in enumerate(active))


class SpikingWorkload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.attempts = 0
        self.examples = 0
        self.agreed = 0
        self.rounds = 0
        self.units = 0
        self.threshold = None
        self.calibrations = []  # best agreement of each calibration
        self.rule_agreed = []  # per checked ideal raster: decode_output == predict
        self.counts = {}

    def setup(self):
        images, labels = synth.prototype_images(N_MNIST, 28, self.seed)
        paths = synth.write_mnist_idx(self.workdir, "t10k", images, labels)
        mnist = data.load_mnist_idx(*paths, split="test")
        self.conv_net = cli._build_net(dict(cli.DEFAULTS, arch="conv", seed=self.seed),
                                       mnist.input_shape)
        self.conv_x = training.encode_batch(self.conv_net, mnist.images[:1])[0]

        images, labels = synth.prototype_images(N_BENCH_TRAIN + N_BENCH_HELD_OUT, 8,
                                                self.seed + 1)
        flat = images.reshape(len(images), 64).astype(np.float32) / 255.0
        self.bench_train = Dataset(flat[:N_BENCH_TRAIN], labels[:N_BENCH_TRAIN])
        self.held_out = Dataset(flat[N_BENCH_TRAIN:], labels[N_BENCH_TRAIN:])
        self.net = bench_net(self.seed)
        training.train(self.net, self.bench_train, None, epochs=BENCH_EPOCHS,
                       batch_size=32, lr=0.005, seed=self.seed)
        self.circuit = circuit.build_circuit(self.net, CircuitParams(n_cycles=N_CYCLES))
        self.csv_path = os.path.join(self.workdir, "raster_ideal.csv")

    def unit(self, tracer, ledger):
        """One circuit operation: a calibration at the start of each round,
        else the next held-out example. The ideal backend runs first."""
        image = self.held_out.images[self.attempts % N_BENCH_HELD_OUT]
        x = training.encode_batch(self.net, image[None])[0]
        want = phasor_net.predict(phasor_net.forward(self.net, x).output)
        calibrating = self.units % (1 + EXAMPLES_PER_ROUND) == 0
        self.units += 1
        for i in range(IDEAL_REPEATS):
            raster, classes = self._ideal(tracer, ledger, self.net, x, "bench")
            # The raster is exact and deterministic: check each example once.
            if i == 0 and not calibrating and raster is not None:
                self._check_ideal(ledger, "ideal.decodes_to_prediction",
                                  raster, classes, self.net, want)
        if calibrating:
            self._calibrate(tracer, ledger)
            return
        self.attempts += 1
        if self.threshold is not None:
            self._example(tracer, ledger, image, want)

    def enough(self):
        """A round and the next calibration: the end-to-end figures need a
        calibration and an example, the traced run an example and a
        calibration with tracing on, and an example with it off."""
        return self.units > 1 + EXAMPLES_PER_ROUND

    def final_checks(self, ledger):
        """Every check of this workload belongs to an operation."""

    def _calibrate(self, tracer, ledger):
        start = self.rounds * CALIBRATION_IMAGES % N_BENCH_TRAIN
        images = list(self.bench_train.images[start:start + CALIBRATION_IMAGES])
        self.rounds += 1
        self.threshold = None
        # Collect before each timed operation, so that garbage left by the
        # previous one is not charged to it; collections that the operation's
        # own allocations trigger still count.
        gc.collect()
        with ledger.op("calibrate") as op:
            with tracer.span("bench.calibrate"):
                threshold, best = circuit.calibrate_threshold(
                    self.net, self.circuit, images,
                    n_candidates=CALIBRATION_CANDIDATES, n_cycles=CALIBRATION_CYCLES)
            if op.check("threshold_positive", threshold > 0.0):
                self.threshold = threshold
            self.calibrations.append(best)

    def _example(self, tracer, ledger, image, want):
        p = self.circuit.params
        n_out, depth = self.circuit.n_outputs, len(self.net.layers)
        gc.collect()
        with ledger.op("simulate") as op:
            with tracer.span("bench.example"):
                result = circuit.run(self.circuit, [(image, N_CYCLES)],
                                     v_threshold=self.threshold)
                got = circuit.decode_output(result.raster, n_out, depth,
                                            now=N_CYCLES * p.period)
            self.examples += 1
            self.agreed += got == want
            op.check("decoded", got is not None)
            self._count(tracer, result)

    def _check_ideal(self, ledger, name, raster, classes, net, want):
        ledger.check(name, raster_class(raster, net) == want)
        if classes is not None:
            self.rule_agreed.append(float(classes[-1] == want))

    def _ideal(self, tracer, ledger, net, x, label):
        """The ideal backend on one example: unroll, CSV write and read back,
        decode_over_time at DECODE_SAMPLES times. Returns the raster and the
        decoded classes, each None if its operation failed."""
        p = self.circuit.params
        raster = None
        gc.collect()
        with ledger.op("ideal_export") as op:
            with tracer.span(f"{label}.export"):
                raster = spikemap.unroll(net, x, p.period, N_CYCLES)
                spikemap.write_raster_csv(raster, self.csv_path)
            with tracer.span(f"{label}.read_csv"):
                back = spikemap.read_raster_csv(self.csv_path)
            op.check("event_count", len(raster.events) == ideal_event_count(net, x))
            op.check("csv_round_trip", same_events(raster, back))
            self.counts[f"{label}.events"] = len(raster.events)
            self.counts[f"{label}.csv_bytes"] = os.path.getsize(self.csv_path)
            del back
        if raster is None:
            return None, None
        times = np.arange(1, DECODE_SAMPLES + 1) * (N_CYCLES * p.period / DECODE_SAMPLES)
        depth = len(net.layers)
        decoded = None
        gc.collect()
        with ledger.op("raster_decode") as op:
            with tracer.span(f"{label}.raster_decode"):
                decoded = circuit.decode_over_time(raster, net.n_outputs, depth, times)
            op.check("silent_before_output_layer",
                     np.all(decoded[times < depth * p.period] == -1))
            op.check("decided_after_first_output_cycle",
                     np.all(decoded[times >= (depth + 1) * p.period] >= 0))
        return raster, decoded

    def trace_extras(self, tracer, ledger):
        """The conv preset through the ideal backend (traced runs only)."""
        want = phasor_net.predict(phasor_net.forward(self.conv_net, self.conv_x).output)
        with tracer.span("bench.conv"):
            raster, classes = self._ideal(tracer, ledger, self.conv_net, self.conv_x,
                                          "bench.conv")
        if raster is not None:
            self._check_ideal(ledger, "ideal.conv_decodes_to_prediction",
                              raster, classes, self.conv_net, want)

    def _count(self, tracer, result):
        steps = len(result.trace_times)
        tracer.count("circuit.steps", steps)
        for e in result.raster.events:
            tracer.count(f"circuit.spikes.layer{e.layer}")
        tracer.count("circuit.deliveries", delivery_count(
            self.circuit, result.raster, (steps - 1) * self.circuit.params.dt))

    def end_to_end(self, tracer):
        examples = tracer.durations("bench.example")  # none if calibration failed
        return {
            "examples_per_s": len(examples) / sum(examples) if examples else 0.0,
            "fit_s": statistics.mean(tracer.durations("bench.calibrate")),
            "eval_s": statistics.mean(tracer.durations("bench.raster_decode")),
            "export_s": statistics.mean(tracer.durations("bench.export")),
            "agreement": self.agreed / self.examples if self.examples else 0.0,
        }

    def op_durations(self, tracer):
        return tracer.durations("bench.example")

    def layer_extras(self):
        """Counts gathered during the run, the bench circuit's size and the
        per-layer forward replay of the conv preset on the unrolled image."""
        out = {
            "spikemap.events": self.counts.get("bench.conv.events", 0),
            "spikemap.csv_bytes": self.counts.get("bench.conv.csv_bytes", 0),
            "circuit.synapses": self.circuit.n_synapses,
            "circuit.neurons": self.circuit.n_neurons,
            "circuit.calibrate_agreement_best": statistics.mean(self.calibrations),
            "circuit.decode_rule_agreement": statistics.mean(self.rule_agreed),
        }
        out.update(metrics.replay_layers(self.conv_net, self.conv_x[None]))
        return out
