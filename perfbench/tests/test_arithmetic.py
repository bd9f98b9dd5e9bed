"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
from ledger import Ledger  # noqa: E402
from spiking_workload import delivery_count  # noqa: E402
from tracer import (Span, Tracer, layer_self_times, percentile, self_times,  # noqa: E402
                    tail_percentile, timing_summary, traced_calls)

from phasornet import _circuit_kernels, circuit  # noqa: E402
from phasornet.errors import NumericError  # noqa: E402
from phasornet.phasor_net import LayerSpec, PhasorNetwork  # noqa: E402


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
        (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(values, 90.0) == 90
        assert percentile(values, 50.0) == 50
        assert percentile(values, 100.0) == 100
        assert percentile([7.0], 50.0) == 7.0

    def test_summary_reports_tail_and_count(self):
        s = timing_summary([float(v) for v in range(1, 101)])
        assert s == {"median": 50.5, "tail": 90.0, "tail_pct": 90.0, "n": 100}

    def test_too_few_samples_fall_back_to_the_median(self):
        s = timing_summary([3.0, 1.0, 2.0])
        assert s == {"median": 2.0, "tail": 2.0, "tail_pct": 50.0, "n": 3}


def span(name, start, end, parent):
    return Span(name, start, end, parent, "test")


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("bench.round", 0.0, 10.0, -1),
            span("circuit.run", 1.0, 4.0, 0),
            span("_circuit_kernels.run_segment_numpy", 2.0, 3.0, 1),
            span("circuit.decode_output", 5.0, 7.0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
        assert layer_self_times(spans) == pytest.approx(
            {"bench": 5.0, "circuit": 4.0, "_circuit_kernels": 1.0})

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            span("a.parent", 0.0, 10.0, -1),
            span("b.x", 1.0, 4.0, 0),
            span("b.y", 3.0, 6.0, 0),
            span("b.z", 9.0, 12.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_tracer_records_parents_and_self_time(self):
        tracer = Tracer("t")
        with tracer.span("outer.a"):
            with tracer.span("inner.b"):
                pass
            with tracer.span("inner.c"):
                pass
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("outer.a", -1), ("inner.b", 0), ("inner.c", 0)]
        times = self_times(tracer.spans)
        kids = tracer.spans[1].duration + tracer.spans[2].duration
        assert times[0] == pytest.approx(tracer.spans[0].duration - kids)
        assert tracer.count_within("inner.c", "outer.a") == 1
        assert tracer.durations("inner.b", parent="outer.a") == [tracer.spans[1].duration]
        assert tracer.durations("inner.b", parent="inner.c") == []


class TestTracedCalls:
    def test_wraps_records_and_restores(self):
        tracer = Tracer("t")
        original = circuit.decode_output
        with traced_calls(tracer, [(circuit, "decode_output"), (circuit, "no_such")]) as missing:
            assert circuit.decode_output is not original
            assert missing == ["phasornet.circuit.no_such"]
            with pytest.raises(AttributeError):
                circuit.decode_output(None, 10, 3, now=0.0)
        assert circuit.decode_output is original
        assert [s.name for s in tracer.spans] == ["circuit.decode_output"]


class TestLedger:
    def test_failed_checks_and_errors_count_against_attempts(self):
        ledger = Ledger()
        with ledger.op("simulate") as op:
            op.check("decoded", True)
        with ledger.op("simulate") as op:
            op.check("decoded", False)
            op.check("other", False)
        with ledger.op("simulate"):
            raise NumericError("blew up")
        ledger.check("train.loss_below_first_epoch", True)
        assert (ledger.attempted, ledger.failed) == (4, 2)
        assert ledger.ok_frac == 0.5
        assert dict(ledger.failures) == {"simulate.decoded": 1, "simulate.other": 1,
                                         "simulate.NumericError": 1}


class CountingHeap:
    """heapq stand-in that counts pops: each pop is one delivery."""

    def __init__(self, heapq):
        self.heapq = heapq
        self.pops = 0

    def heappush(self, heap, item):
        self.heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return self.heapq.heappop(heap)


def test_delivery_count_matches_the_kernel_queue(monkeypatch):
    specs = [LayerSpec("dense", fan_in=16, fan_out=12),
             LayerSpec("dense", fan_in=12, fan_out=10)]
    net = PhasorNetwork.create((16,), specs, seed=0)
    net.biases[0][:3] = 0.5 + 0.5j  # bias synapses on the reference generator
    circ = circuit.build_circuit(net)
    image = np.random.default_rng(0).uniform(size=16)
    counter = CountingHeap(_circuit_kernels.heapq)
    monkeypatch.setattr(_circuit_kernels, "heapq", counter)
    result = circuit.run(circ, [(image, 4)], v_threshold=0.005, use_numba=False)
    assert any(e.layer > 0 for e in result.raster.events), "no neuron spiked"
    last = (len(result.trace_times) - 1) * circ.params.dt
    assert delivery_count(circ, result.raster, last) == counter.pops


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    declared = lambda key: [(m["name"], m["unit"], m["better"]) for m in spec[key]]
    assert declared("end_to_end") == metrics.END_TO_END
    assert declared("per_layer") == metrics.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    for meanings in metrics.END_TO_END_MEANING.values():
        assert set(meanings) <= {name for name, _, _ in metrics.END_TO_END}


class FakeWorkload:
    def __init__(self, units_needed):
        self.units_needed = units_needed
        self.units = 0

    def enough(self):
        return self.units >= self.units_needed


def test_run_loop_budget_counts_unit_time_only(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    workload = FakeWorkload(units_needed=1)

    def unit(i):
        workload.units += 1
        clock[0] += 1.0

    def between(spent):
        clock[0] += 100.0  # a set-up between units is outside the budget

    run.run_loop(workload, unit, 10.0, between)
    # Stops once 10 units of 1 s are done: 9.0 + 0.5 < 10 <= 10.0 + 0.5.
    assert workload.units == 10


def test_run_loop_waits_for_enough(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    workload = FakeWorkload(units_needed=3)

    def unit(i):
        workload.units += 1
        clock[0] += 5.0

    run.run_loop(workload, unit, 1.0)
    assert workload.units == 3
