"""The metrics the benchmark reports, and the per-layer arithmetic.

END_TO_END and PER_LAYER are what BENCHMARK.json declares; a test keeps the
two in step. Every workload reports every metric. An end-to-end metric has
one meaning per workload, given in END_TO_END_MEANING. A per-layer metric of
a layer that a workload never calls reads 0: that workload bypasses it.
"""

import statistics
import time

from phasornet import (_circuit_kernels, _kernels, circuit, complex_core, data, model_io,
                       optim, phasor_net, spikemap, training)
from tracer import layer_self_times, timing_summary

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "fraction", "higher"),
    ("examples_per_s", "1/s", "higher"),
    ("fit_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("export_s", "s", "lower"),
    ("agreement", "fraction", "higher"),
]

# Times of operations a run repeats are means over the whole run. A shared
# host can change speed by up to 2x for tens of seconds at a time (seen on a
# 2-vCPU x86 VM), so a run's median or fastest repeat jumps with the share of
# the run spent slow, while the mean follows that share smoothly. The hot
# operation's median and tail are reported per layer.
END_TO_END_MEANING = {
    "train": {
        "setup_s": "write and read the IDX files, build the network; median",
        "examples_per_s": "training examples per second over the epochs' step loops",
        "fit_s": "one epoch as `cli train` runs it: steps, evaluate, checkpoint",
        "eval_s": "training.evaluate on the held-out split",
        "export_s": "model_io.save_model plus load_model of the checkpoint",
        "agreement": "share of checkpoints that reload bit for bit; a constant 1 "
                     "unless the parameters_round_trip check fails",
    },
    "spiking": {
        "setup_s": "read the IDX split, train the bench net, build its circuit; median",
        "examples_per_s": "held-out examples per second through circuit.run (15 cycles) "
                          "and decode_output",
        "fit_s": "circuit.calibrate_threshold on two images",
        "eval_s": "circuit.decode_over_time at 150 times on an ideal raster",
        "export_s": "spikemap.unroll for 15 cycles plus write_raster_csv",
        "agreement": "share of held-out examples where the circuit decodes the phasor prediction",
    },
}

# Functions the traced run wraps, as (owner, attribute): the calls the
# benchmark makes into the package, and the calls one module makes into the
# next through its own names, so that every layer boundary records a span.
TRACE_TARGETS = [
    (data, "load_mnist_idx"),
    (training, "train_step"), (training, "evaluate"), (training, "encode_batch"),
    (training, "forward"), (training, "backward"), (training, "loss_mse"),
    (training, "predict_batch"), (training, "encode_target_phases"),
    (optim.Adam, "step"),
    (phasor_net, "matvec"), (phasor_net, "conv2d_valid"),
    (_kernels, "conv2d_forward"), (_kernels, "conv2d_backward_kernels"),
    (_kernels, "conv2d_backward_input"),
    (model_io, "save_model"), (model_io, "load_model"),
    (circuit, "build_circuit"), (circuit, "run"), (circuit, "calibrate_threshold"),
    (circuit, "observe_amplitude"), (circuit, "decode_output"),
    (circuit, "decode_over_time"), (circuit, "forward"),
    (_circuit_kernels, "program_generators_numpy"),
    (_circuit_kernels, "run_segment_numpy"),
    (spikemap, "unroll"), (spikemap, "forward"),
    (spikemap, "write_raster_csv"), (spikemap, "read_raster_csv"),
]

N_NET_LAYERS = 5  # the conv preset's depth; shallower networks report 0 beyond theirs
N_RASTER_LAYERS = 4  # generators plus the bench net's three layers
LAYERS = ["bench", "data", "training", "phasor_net", "complex_core", "_kernels",
          "optim", "model_io", "circuit", "_circuit_kernels", "spikemap"]

PER_LAYER = (
    [("op.p50_ms", "ms", "lower"), ("op.tail_ms", "ms", "lower"),
     ("op.tail_pct", "percent", "higher"), ("op.n", "count", "higher"),
     ("trace.overhead_frac", "fraction", "lower"),
     ("data.load_mnist_idx_s", "s", "lower"), ("data.batch_ms", "ms", "lower"),
     ("training.encode_batch_ms", "ms", "lower"),
     ("phasor_net.forward_ms", "ms", "lower"), ("phasor_net.backward_ms", "ms", "lower"),
     ("phasor_net.loss_ms", "ms", "lower"),
     ("phasor_net.predict_batch_ms", "ms", "lower"),
     ("phasor_net.no_prediction_frac", "fraction", "lower")]
    + [(f"phasor_net.layer{i}.{m}", u, b) for i in range(N_NET_LAYERS)
       for m, u, b in (("forward_ms", "ms", "lower"), ("gmac_per_s", "GMAC/s", "higher"))]
    + [("optim.adam_step_ms", "ms", "lower"), ("optim.real_params", "count", "lower"),
       ("model_io.save_ms", "ms", "lower"), ("model_io.load_ms", "ms", "lower"),
       ("model_io.bytes", "bytes", "lower"),
       ("circuit.build_ms", "ms", "lower"), ("circuit.run_ms_per_step", "ms", "lower"),
       ("circuit.steps", "count", "lower"), ("circuit.synapses", "count", "lower"),
       ("circuit.neurons", "count", "lower")]
    + [(f"circuit.spikes.layer{l}", "count", "lower") for l in range(N_RASTER_LAYERS)]
    + [("circuit.deliveries", "count", "lower"),
       ("circuit.observe_amplitude_s", "s", "lower"),
       ("circuit.calibrate_runs", "count", "lower"),
       ("circuit.calibrate_agreement_best", "fraction", "higher"),
       ("circuit.decode_output_ms", "ms", "lower"),
       ("circuit.decode_rule_agreement", "fraction", "higher"),
       ("circuit.decode_over_time_s", "s", "lower"),
       ("spikemap.unroll_s", "s", "lower"), ("spikemap.events", "count", "lower"),
       ("spikemap.write_csv_s", "s", "lower"), ("spikemap.read_csv_s", "s", "lower"),
       ("spikemap.csv_bytes", "bytes", "lower")]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
)


def _median(values):
    return statistics.median(values) if values else 0.0


def macs(spec, in_shape, batch):
    """Complex multiply-accumulates of one layer's linear map, from shapes."""
    if spec.kind == "dense":
        return batch * spec.fan_in * spec.fan_out
    _, h, w = in_shape
    return batch * spec.out_channels * (h - 2) * (w - 2) * spec.in_channels * 9


def replay_layers(net, x, repeats=5):
    """Per-layer forward time: each layer's complex_core.conv2d_valid or
    matvec plus tpam_activation, replayed on the inputs that forward() fed
    it. Returns {metric name: value}, MACs computed from the shapes."""
    trace = phasor_net.forward(net, x)
    batch = x.shape[0]
    shapes = net.activation_shapes()
    out = {}
    for i, (spec, w, b) in enumerate(zip(net.layers, net.weights, net.biases)):
        h = trace.x if i == 0 else trace.h[i - 1]
        if spec.kind == "dense":
            h = h.reshape(batch, -1)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            z = (complex_core.matvec(w, h, b) if spec.kind == "dense"
                 else complex_core.conv2d_valid(h, w, b))
            phasor_net.tpam_activation(z, spec.theta)
            times.append(time.perf_counter() - t0)
        t = statistics.median(times)
        out[f"phasor_net.layer{i}.forward_ms"] = t * 1e3
        out[f"phasor_net.layer{i}.gmac_per_s"] = macs(spec, shapes[i], batch) / t / 1e9
    return out


def span_metrics(tracer):
    """Per-layer metrics that come straight from the spans."""
    ms = lambda name, parent=None: _median(tracer.durations(name, parent)) * 1e3
    step = "training.train_step"
    conv = "bench.conv."  # the conv preset's ideal raster, see spiking_workload
    calibrations = len(tracer.durations("circuit.calibrate_threshold"))
    out = {
        "data.load_mnist_idx_s": sum(tracer.durations("data.load_mnist_idx")),
        "data.batch_ms": ms("data.batch"),
        "training.encode_batch_ms": ms("training.encode_batch", step),
        "phasor_net.forward_ms": ms("phasor_net.forward", step),
        "phasor_net.backward_ms": ms("phasor_net.backward", step),
        "phasor_net.loss_ms": ms("phasor_net.loss_mse", step),
        "phasor_net.predict_batch_ms": ms("phasor_net.predict_batch", step),
        "optim.adam_step_ms": ms("optim.Adam.step"),
        "model_io.save_ms": ms("model_io.save_model"),
        "model_io.load_ms": ms("model_io.load_model"),
        "circuit.build_ms": ms("circuit.build_circuit"),
        "circuit.observe_amplitude_s": _median(tracer.durations("circuit.observe_amplitude")),
        "circuit.calibrate_runs": (
            tracer.count_within("circuit.run", "circuit.calibrate_threshold") / calibrations
            if calibrations else 0.0),
        "circuit.decode_output_ms": ms("circuit.decode_output", "bench.example"),
        "circuit.decode_over_time_s": _median(tracer.durations("circuit.decode_over_time",
                                                                conv + "raster_decode")),
        "spikemap.unroll_s": _median(tracer.durations("spikemap.unroll", conv + "export")),
        "spikemap.write_csv_s": _median(tracer.durations("spikemap.write_raster_csv",
                                                         conv + "export")),
        "spikemap.read_csv_s": _median(tracer.durations("spikemap.read_raster_csv",
                                                        conv + "read_csv")),
    }
    sim = sum(tracer.durations("circuit.run", "bench.example"))
    steps = tracer.counters.get("circuit.steps", 0)
    out["circuit.run_ms_per_step"] = sim / steps * 1e3 if steps else 0.0
    selfs = layer_self_times(tracer.spans)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = selfs.get(layer, 0.0)
    return out


def op_tail(durations_s):
    """Median, tail and count of the hot operation's durations."""
    summary = timing_summary(durations_s)
    return {"op.p50_ms": summary["median"] * 1e3, "op.tail_ms": summary["tail"] * 1e3,
            "op.tail_pct": summary["tail_pct"], "op.n": summary["n"]}


def overhead(untraced_s, traced_s):
    """Tracing overhead: the traced hot operation's median over the
    untraced one's, minus one."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0


def complete(values):
    """Every PER_LAYER metric, 0 where the workload left it unset."""
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
