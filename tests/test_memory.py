"""Peak allocations of evaluation, construction and col2im on the conv
preset, and what its built circuit holds.

The bounds count traced allocations (conftest.traced_peak), not the process
RSS, so they hold whatever the heap kept from earlier tests.
"""

import tracemalloc

import numpy as np

from phasornet import _kernels, circuit, cli, optim, training

from conftest import synthetic_dataset, traced_peak

CONV = dict(cli.DEFAULTS, arch="conv", phase_shift=False, seed=3)
SHAPE = (1, 28, 28)


def test_evaluate_fits_in_a_train_step():
    ds = synthetic_dataset(n_per_class=26, side=28)  # 260 images
    net = cli._build_net(CONV, SHAPE)
    adam = optim.Adam(net.parameters(), lr=1e-3)
    batch = ds.images[:64], ds.labels[:64]
    training.train_step(net, adam, *batch)  # the moments exist from here on
    step = traced_peak(lambda: training.train_step(net, adam, *batch))
    assert traced_peak(lambda: training.evaluate(net, ds)) <= step


def test_create_peak_is_at_most_2_2x_the_parameters():
    net = cli._build_net(CONV, SHAPE)
    params = sum(p.nbytes for p in net.parameters())
    assert traced_peak(lambda: cli._build_net(CONV, SHAPE)) <= 2.2 * params


def test_col2im_holds_one_group_of_columns():
    # conv2 of the conv preset at batch 64: the whole batch's column
    # cotangents would be 15.2 MiB
    rng = np.random.default_rng(0)
    d = (rng.normal(size=(64, 16, 24, 24)) + 1j).astype(np.complex64)
    k = (rng.normal(size=(16, 6, 3, 3)) + 1j).astype(np.complex64)
    out = 64 * 6 * 26 * 26 * 8
    # numpy's strided in-place adds buffer up to bufsize elements of each of
    # their three operands
    ufunc_buffers = 3 * np.getbufsize() * 8
    peak = traced_peak(lambda: _kernels.conv2d_backward_input(d, k))
    assert peak <= out + _kernels.COL2IM_GROUP_BYTES + ufunc_buffers


def test_built_circuit_holds_at_most_25_bytes_per_synapse():
    # weight, delay and owner take 8 bytes each; neurons and sources add
    # about 0.14 byte per synapse on the conv preset. An identity table of
    # the synapses would add 8 more.
    net = cli._build_net(CONV, SHAPE)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circ = circuit.build_circuit(net)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held <= 25 * circ.n_synapses


def test_built_circuit_holds_at_most_25_bytes_per_synapse_after_a_run():
    # the kernel's send plan is built with the circuit; a run adds nothing
    # to what the circuit holds
    net = cli._build_net(CONV, SHAPE)
    image = np.random.default_rng(0).uniform(size=SHAPE)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circ = circuit.build_circuit(net)
        circuit.run(circ, [(image, 2)], v_threshold=1e30)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held <= 25 * circ.n_synapses
