"""Training loop and evaluation helpers shared by the CLI and tests."""

import time

import numpy as np

from .data import BatchIterator
from .errors import ValidationError, check_count
from .optim import Adam
from .phasor_net import (
    backward,
    encode_target_phases,
    forward,
    input_phases,
    interleave,
    loss_mse,
    predict_batch,
)


def encode_batch(net, images):
    """Pixels -> phasors e^(i input_phases) in the network's dtype, shaped for
    the network."""
    x = np.exp(1j * input_phases(images, net.phase_shifts)).astype(net.dtype)
    return x.reshape((x.shape[0],) + net.input_shape)


def evaluate(net, dataset, batch_size=64):
    """Error rate with the phasor-domain decision rule; a missing prediction
    counts as an error. The default batch is the training batch, so that
    evaluation fits in a train step's working set."""
    check_count("batch_size", batch_size)
    n = len(dataset)
    if n < 1:
        raise ValidationError(f"nothing to evaluate: {n} examples")
    wrong = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        images = dataset.images[start:stop]
        labels = dataset.labels[start:stop]
        x = encode_batch(net, images)
        out = forward(net, x).output
        pred = predict_batch(out)
        wrong += int((pred != labels).sum())
    return wrong / n


def train_step(net, optimizer, images, labels):
    """One forward/backward/update on a batch; returns (mean loss, batch error)."""
    x = encode_batch(net, images)
    targets = encode_target_phases(labels, net.n_outputs)
    trace = forward(net, x)
    grads = backward(net, trace, targets)
    optimizer.step(net.parameters(), interleave(grads.weights, grads.biases))
    batch_loss = float(np.mean(loss_mse(trace.output, targets)))
    pred = predict_batch(trace.output)
    err = float((pred != labels).mean())
    return batch_loss, err


def train(net, train_set, test_set=None, epochs=10, batch_size=64, lr=0.001,
          seed=0, limit_train=None, on_epoch=None, log=None):
    """Adam training with per-epoch test evaluation.

    Returns a list of per-epoch metric dicts (epoch, train_err, test_err,
    loss). train_err is the running mean of batch errors within the epoch.
    on_epoch(rec, net), if given, runs after each epoch's record.
    """
    check_count("epochs", epochs, 0)
    check_count("training set size", len(train_set))
    if limit_train is not None:
        check_count("limit_train", limit_train)
    optimizer = Adam(net.parameters(), lr=lr)
    if limit_train is not None and limit_train < len(train_set):
        from .data import Dataset
        train_set = Dataset(train_set.images[:limit_train],
                            train_set.labels[:limit_train],
                            name=train_set.name, split=train_set.split)
    it = BatchIterator(train_set, batch_size, seed=seed)
    history = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        losses, errs = [], []
        for images, labels in it.epoch_batches():
            batch_loss, err = train_step(net, optimizer, images, labels)
            losses.append(batch_loss)
            errs.append(err * len(labels))
        train_err = sum(errs) / len(train_set)
        test_err = (evaluate(net, test_set, batch_size=batch_size)
                    if test_set is not None else float("nan"))
        rec = {
            "epoch": epoch + 1,
            "train_err": train_err,
            "test_err": test_err,
            "loss": float(np.mean(losses)),
        }
        history.append(rec)
        if log is not None:
            log(f"epoch {rec['epoch']}: loss {rec['loss']:.4f} "
                f"train_err {train_err:.4f} test_err {test_err:.4f} "
                f"({time.perf_counter() - t0:.1f}s)")
        if on_epoch is not None:
            on_epoch(rec, net)
    return history
