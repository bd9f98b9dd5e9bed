"""train-conv and train-fc: the `cli train` loop on synthetic MNIST-shaped data.

Each epoch is training.train_step over the training split in batches of 64,
then training.evaluate on the held-out split, then a model_io checkpoint
saved with the optimizer state and loaded back, as `cli train` does. The
loop is closed with a single client: the next step starts when the last one
returns.
"""

import gc
import math
import os
import statistics

import numpy as np

from phasornet import cli, data, model_io, optim, phasor_net, training

import metrics
import synth

N_TRAIN = 1024
N_TEST = 512
BATCH = 64
LR = 0.001
CHANCE_ERROR = 0.9

class TrainWorkload:
    """One preset ("conv" or "fc-mnist") trained on seeded synthetic data."""

    def __init__(self, arch, seed, workdir):
        self.arch = arch
        self.seed = seed
        self.workdir = workdir
        self.history = []  # (mean loss, held-out error) per epoch
        self.examples = 0
        self.round_trips = []  # per checkpoint: its parameters reloaded exactly

    def setup(self):
        images, labels = synth.prototype_images(N_TRAIN + N_TEST, 28, self.seed)
        train_paths = synth.write_mnist_idx(self.workdir, "train",
                                            images[:N_TRAIN], labels[:N_TRAIN])
        test_paths = synth.write_mnist_idx(self.workdir, "t10k",
                                           images[N_TRAIN:], labels[N_TRAIN:])
        self.train_set = data.load_mnist_idx(*train_paths, split="train")
        self.test_set = data.load_mnist_idx(*test_paths, split="test")
        cfg = dict(cli.DEFAULTS, arch=self.arch, seed=self.seed,
                   phase_shift=self.arch == "fc-mnist")
        self.net = cli._build_net(cfg, self.train_set.input_shape)
        self.optimizer = optim.Adam(self.net.parameters(), lr=LR)
        self.batches = data.BatchIterator(self.train_set, BATCH, seed=self.seed)
        self.model_path = os.path.join(self.workdir, "model.phzn")

    def unit(self, tracer, ledger):
        """One epoch."""
        gc.collect()  # see spiking_workload: start each epoch from the same heap state
        with tracer.span("bench.epoch"):
            self._epoch(tracer, ledger)

    def enough(self):
        """The loss check compares the last epoch with the first."""
        return len(self.history) > 1

    def trace_extras(self, tracer, ledger):
        """Nothing beyond the epochs: the layer replay needs no spans."""

    def _epoch(self, tracer, ledger):
        losses = []
        with tracer.span("bench.train"):
            batches = self.batches.epoch_batches()
            while True:
                with tracer.span("data.batch"):
                    batch = next(batches, None)
                if batch is None:
                    break
                with ledger.op("train_step") as op:
                    with tracer.span("bench.step"):
                        loss, _ = training.train_step(self.net, self.optimizer, *batch)
                    op.check("loss_finite", math.isfinite(loss))
                    losses.append(loss)
                self.examples += len(batch[1])
        test_err = math.nan
        with ledger.op("evaluate") as op:
            with tracer.span("bench.eval"):
                test_err = training.evaluate(self.net, self.test_set)
            op.check("error_is_a_rate", 0.0 <= test_err <= 1.0)
        with ledger.op("checkpoint") as op:
            with tracer.span("bench.checkpoint"):
                model_io.save_model(self.net, self.model_path, optimizer=self.optimizer)
                loaded, state = model_io.load_model(self.model_path, with_optimizer=True)
            self.round_trips.append(op.check("parameters_round_trip", all(
                np.array_equal(a, b) for a, b in zip(self.net.parameters(), loaded.parameters()))))
            op.check("optimizer_round_trip", state["t"] == self.optimizer.t)
        self.history.append((float(np.mean(losses)) if losses else math.nan, test_err))

    def final_checks(self, ledger):
        """The loss ends below its first-epoch value and the held-out error
        below chance."""
        (first, _), (last, err) = self.history[0], self.history[-1]
        ledger.check("train.loss_below_first_epoch", len(self.history) > 1 and last < first)
        ledger.check("train.error_below_chance", err < CHANCE_ERROR)

    def end_to_end(self, tracer):
        return {
            "examples_per_s": self.examples / sum(tracer.durations("bench.train")),
            "fit_s": statistics.mean(tracer.durations("bench.epoch")),
            "eval_s": statistics.mean(tracer.durations("bench.eval")),
            "export_s": statistics.mean(tracer.durations("bench.checkpoint")),
            "agreement": sum(self.round_trips) / len(self.history),
        }

    def op_durations(self, tracer):
        return tracer.durations("bench.step")

    def layer_extras(self):
        """Per-layer metrics that are not span times: counts, the per-layer
        forward replay and the share of held-out outputs with no prediction."""
        x = training.encode_batch(self.net, self.train_set.images[:BATCH])
        out = metrics.replay_layers(self.net, x)
        held_out = training.encode_batch(self.net, self.test_set.images)
        pred = phasor_net.predict_batch(phasor_net.forward(self.net, held_out).output)
        out["phasor_net.no_prediction_frac"] = float(np.mean(pred == -1))
        out["optim.real_params"] = sum(2 * p.size for p in self.net.parameters())
        out["model_io.bytes"] = os.path.getsize(self.model_path)
        return out
