"""Every count and every positive scalar the package takes is checked by one
rule each (errors.check_count, errors.check_positive): a non-integer count, a
bool, NaN or an infinite value is a ValidationError, never a bare TypeError,
a silent truncation or a run."""

import numpy as np
import pytest

from conftest import small_fc_net, synthetic_dataset
from phasornet.circuit import CircuitParams, build_circuit, calibrate_threshold, run
from phasornet.data import BatchIterator
from phasornet.errors import ValidationError
from phasornet.optim import Adam
from phasornet.phasor_net import LayerSpec
from phasornet.spikemap import phase_to_time, time_to_phase, unroll
from phasornet.training import encode_batch, evaluate, train


def _net_and_data():
    ds = synthetic_dataset(n_per_class=2, seed=1)
    return small_fc_net(seed=1), ds


def _train(**kwargs):
    net, ds = _net_and_data()
    train(net, ds, **kwargs)


def _run(n_cycles=2, v_threshold=1.0):
    net, ds = _net_and_data()
    run(build_circuit(net), [(ds.images[0], n_cycles)], v_threshold=v_threshold)


def _unroll(n_cycles):
    net, ds = _net_and_data()
    unroll(net, encode_batch(net, ds.images[:1])[0], 10.0, n_cycles)


def _calibrate(n_candidates):
    net, ds = _net_and_data()
    calibrate_threshold(net, build_circuit(net), list(ds.images[:1]),
                        n_candidates=n_candidates, n_cycles=2)


COUNTS = {
    "layer_fan_in_float": lambda: LayerSpec("dense", fan_in=2.5, fan_out=2),
    "layer_out_channels_bool": lambda: LayerSpec("conv3x3", in_channels=1, out_channels=True),
    "params_n_cycles_float": lambda: CircuitParams(n_cycles=2.5),
    "params_n_cycles_bool": lambda: CircuitParams(n_cycles=True),
    "run_n_cycles_float": lambda: _run(n_cycles=2.5),
    "run_n_cycles_bool": lambda: _run(n_cycles=True),
    "unroll_n_cycles_float": lambda: _unroll(3.5),
    "unroll_n_cycles_too_few": lambda: _unroll(3),
    "calibrate_n_candidates_bool": lambda: _calibrate(True),
    "calibrate_n_candidates_float": lambda: _calibrate(2.5),
    "train_epochs_float": lambda: _train(epochs=2.5),
    "train_epochs_bool": lambda: _train(epochs=True),
    "train_limit_train_float": lambda: _train(epochs=1, limit_train=2.5),
    "train_batch_size_float": lambda: _train(epochs=1, batch_size=2.5),
    "evaluate_batch_size_float": lambda: evaluate(*_net_and_data(), batch_size=2.5),
    "evaluate_batch_size_zero": lambda: evaluate(*_net_and_data(), batch_size=0),
    "batch_iterator_float": lambda: BatchIterator(_net_and_data()[1], 2.5),
    "batch_iterator_bool": lambda: BatchIterator(_net_and_data()[1], True),
}

POSITIVES = {
    "params_period_bool": lambda: CircuitParams(period=True),
    "params_period_nan": lambda: CircuitParams(period=float("nan")),
    "params_dt_inf": lambda: CircuitParams(dt=float("inf")),
    "phase_to_time_period_bool": lambda: phase_to_time(0.5, True),
    "time_to_phase_period_zero": lambda: time_to_phase(0.5, 0.0),
    "run_threshold_bool": lambda: _run(v_threshold=True),
    "run_threshold_nan": lambda: _run(v_threshold=float("nan")),
    "run_threshold_numpy_bool": lambda: _run(v_threshold=np.True_),
    "adam_lr_bool": lambda: Adam([np.zeros(2, np.complex64)], lr=True),
    "adam_lr_string": lambda: Adam([np.zeros(2, np.complex64)], lr="0.001"),
    "adam_lr_inf": lambda: Adam([np.zeros(2, np.complex64)], lr=float("inf")),
}


@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_a_bad_count_is_a_validation_error(call):
    with pytest.raises(ValidationError, match=r"must be an integer >= \d+, got "):
        call()


@pytest.mark.parametrize("call", POSITIVES.values(), ids=POSITIVES.keys())
def test_a_bad_positive_scalar_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="must be finite and positive, got "):
        call()
