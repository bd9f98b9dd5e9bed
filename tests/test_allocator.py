"""The allocator policy set at import: freed train-step temporaries stay in the heap.

Each check runs in a fresh interpreter, because the policy is process-wide and
the page-fault count depends on everything the process allocated before.
"""

import ctypes
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# The conv preset at 1x28x28, batch 64: minor page faults per step once the
# first steps have sized the heap.
STEP_FAULTS = """
import resource
from conftest import synthetic_dataset
from phasornet import cli, optim, training
ds = synthetic_dataset(n_per_class=7, side=28)
net = cli._build_net(dict(cli.DEFAULTS, arch="conv", phase_shift=False), (1, 28, 28))
adam = optim.Adam(net.parameters(), lr=1e-3)
batch = ds.images[:64], ds.labels[:64]
for _ in range(3):
    training.train_step(net, adam, *batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    training.train_step(net, adam, *batch)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""

# A libc without mallopt, as on non-glibc platforms.
NO_MALLOPT = """
import ctypes
ctypes.CDLL = lambda name, *args, **kwargs: object()
import phasornet
"""


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt (not glibc)")
def test_conv_train_step_does_not_fault():
    # glibc's default policy faults ~7.5k fresh pages (~30 MB) in per step
    assert float(run_python(STEP_FAULTS)) < 1000


def test_import_without_mallopt():
    run_python(NO_MALLOPT)
