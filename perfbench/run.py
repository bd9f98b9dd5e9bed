"""The phasornet benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train-conv --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports the package from
./src. Workloads:

  train-conv  the conv preset trained on synthetic 1x28x28 images, batch 64
  spiking     a trained dense net run through the circuit simulator, and the
              conv preset through the ideal spike mapper
  train-fc    the fc-mnist preset (784-512-512-10, phase shifts), same images

BENCHMARK.json lists train-conv and spiking. train-fc runs the same layers
as train-conv except the conv kernels; it is left out there because with
three workloads the runs must be too short for steady spiking figures on a
host whose speed swings, and spiking already bypasses the conv kernels.

Each is a closed loop with one client. Inputs are generated from --seed.
With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it alternates untraced and traced units of work (epochs, or
circuit operations) and reports the per-layer metrics, each layer's self
time and the tracing overhead. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
report, with the environment and seeds. Spans and the result are also
written to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# BLAS reads its thread cap when it loads, so set it before numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, str(NPROC))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-conv", "spiking", "train-fc")
SETUP_REPEATS = 5
CONV_CIRCUIT_NOTE = (
    "not regenerated: the conv-preset circuit row of the ROADMAP baseline "
    "(1.73M synapses, ~34 ms/step, ~205 s per example at 15 cycles) needs "
    "more than the 180 s a run may take; it waits for a faster circuit kernel")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import phasornet from ./src of this checkout, never from elsewhere."""
    if not (SRC / "phasornet" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'phasornet'}; "
                 "run from the root of a phasornet checkout")
    sys.path.insert(0, str(SRC))
    import phasornet

    if Path(phasornet.__file__).resolve().parent != SRC / "phasornet":
        sys.exit(f"error: imported phasornet from {phasornet.__file__}, not {SRC}")


def git_revision():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not report an enclosing repository's commit
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args):
    import numpy as np
    from phasornet._kernels import NUMBA_AVAILABLE

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba_available": NUMBA_AVAILABLE,
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def workload_factory(name, seed, workdir):
    """A function making a fresh workload."""
    if name == "spiking":
        import spiking_workload

        return lambda: spiking_workload.SpikingWorkload(seed, workdir)
    import train_workload

    arch = "conv" if name == "train-conv" else "fc-mnist"
    return lambda: train_workload.TrainWorkload(arch, seed, workdir)


def run_loop(workload, unit, seconds, between=None):
    """unit(i) for i = 0, 1, ... until the next unit would end further past
    `seconds` of unit time than stopping now falls short of it, and the
    workload has done enough for its checks. between(spent) runs after each
    unit, outside the units' spans and the time budget."""
    spent, units = 0.0, 0
    while True:
        t0 = time.perf_counter()
        unit(units)
        spent += time.perf_counter() - t0
        units += 1
        if between is not None:
            between(spent)
        if spent + 0.5 * spent / units >= seconds and workload.enough():
            return


def measure(args, workdir):
    """Set up, run the loop, check; returns (ledger, metrics, report lines)."""
    import metrics
    from ledger import Ledger
    from tracer import Tracer, traced_calls

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plain, traced = Tracer(run_id + "-untraced"), Tracer(run_id + "-traced")
    ledger = Ledger()
    make = workload_factory(args.workload, args.seed, workdir)
    workload = make()
    missing = []

    if args.trace:
        # Traced and untraced units alternate, so that both sample the same
        # stretches of the run and their ratio is the tracing overhead, not
        # a change of host speed between one half of the run and the other.
        def unit(i):
            if i % 2 == 0:
                workload.unit(plain, ledger)
                return
            with traced_calls(traced, metrics.TRACE_TARGETS):
                workload.unit(traced, ledger)

        with traced_calls(traced, metrics.TRACE_TARGETS) as missing:
            with traced.span("bench.setup"):
                workload.setup()
            workload.trace_extras(traced, ledger)
        run_loop(workload, unit, args.seconds)
    else:
        # The set-ups after the first are thrown away; they are spread over
        # the run so that their median does not depend on one moment's speed.
        def setup(target):
            with plain.span("bench.setup"):
                target.setup()

        def between(spent):
            done = len(plain.durations("bench.setup"))
            if done < SETUP_REPEATS and spent >= done * args.seconds / SETUP_REPEATS:
                setup(make())

        setup(workload)
        run_loop(workload, lambda i: workload.unit(plain, ledger), args.seconds, between)
        while len(plain.durations("bench.setup")) < SETUP_REPEATS:
            setup(make())
    workload.final_checks(ledger)

    if args.trace:
        values = metrics.span_metrics(traced)
        values.update(traced.counters)
        values.update(workload.layer_extras())
        untraced_ops = workload.op_durations(plain)
        values.update(metrics.op_tail(untraced_ops))
        values["trace.overhead_frac"] = metrics.overhead(
            untraced_ops, workload.op_durations(traced))
        values = metrics.complete(values)
        specs = metrics.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(plain.durations("bench.setup")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": ledger.ok_frac,
        }
        values.update(workload.end_to_end(plain))
        specs = metrics.END_TO_END
    result = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}

    out_dir = ROOT / ".perfbench"
    plain.dump(out_dir / f"{run_id}.untraced-spans.json")
    if args.trace:
        traced.dump(out_dir / f"{run_id}.traced-spans.json")
    lines = report(args, result, ledger, missing, values)
    return ledger, result, lines


def report(args, result, ledger, missing, values):
    import metrics

    kind = "spiking" if args.workload == "spiking" else "train"
    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s"]
    for name, m in result.items():
        meaning = metrics.END_TO_END_MEANING[kind].get(name, "")
        lines.append(f"  {name:36s} {m['value']:14.6g} {m['unit']:9s} {meaning}")
    for name, n in sorted(ledger.failures.items()):
        lines.append(f"  FAILED {name} x{n}")
    lines.append(f"  operations attempted {ledger.attempted}, failed {ledger.failed}")
    if not args.trace:
        return lines
    if missing:
        lines.append(f"  not traced (function not found): {', '.join(missing)}")
    lines.append("  MACs behind gmac_per_s are computed from the layer shapes")
    lines.append("ROADMAP baseline rows covered by this workload:")
    v = values
    if kind == "train":
        stages = (("encode", "training.encode_batch_ms"), ("forward", "phasor_net.forward_ms"),
                  ("backward", "phasor_net.backward_ms"), ("Adam", "optim.adam_step_ms"),
                  ("loss", "phasor_net.loss_ms"), ("predict", "phasor_net.predict_batch_ms"))
        lines.append("  train_step stage split, batch 64 (ms): "
                     + ", ".join(f"{label} {v[name]:.2f}" for label, name in stages))
        layers = ", ".join(f"{v[f'phasor_net.layer{i}.forward_ms']:.2f}"
                           for i in range(metrics.N_NET_LAYERS)
                           if v[f"phasor_net.layer{i}.forward_ms"] > 0)
        lines.append(f"  forward by layer, batch 64 (ms): {layers}")
    else:
        lines.append(
            f"  circuit, bench net ({v['circuit.synapses']:.0f} synapses): "
            f"{v['circuit.run_ms_per_step']:.3f} ms/step; {v['op.p50_ms'] / 1e3:.2f} s "
            f"per example at 15 cycles, run plus decode, untraced median")
        lines.append(f"  circuit, conv preset: {CONV_CIRCUIT_NOTE}")
        lines.append(f"  unroll, conv preset, 15 cycles: {v['spikemap.unroll_s']:.3f} s, "
                     f"{v['spikemap.events']:.0f} events")
        lines.append(f"  decode_over_time, 150 samples: {v['circuit.decode_over_time_s']:.3f} s")
        lines.append(f"  decode_output on exact ideal rasters picks predict()'s class in "
                     f"{v['circuit.decode_rule_agreement']:.0%} of them: the two rules score "
                     f"phase differences differently (measured, not checked)")
    return lines


def main(argv=None):
    args = parse_args(argv)
    import_package()
    env = environment(args)
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ledger, result, lines = measure(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
           "failed": ledger.failed, "metrics": result}
    with open(ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".result.json", "w") as f:
        json.dump({"env": env, "result": out}, f, indent=1)
    print("env " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
