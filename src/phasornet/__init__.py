"""Phasor networks: complex-valued nets trained by backprop, run as spiking nets.

Neuron states are unit-magnitude complex numbers ("phasors"). Training happens
in the complex domain; inference can additionally be executed as a spiking
network where each phase is represented by a spike time within an ongoing
cycle, either ideally (exact phase-to-time mapping) or through a circuit-level
ODE simulation of resonating synapses.
"""

import ctypes

from .complex_core import matvec, conv2d_valid
from .phasor_net import (
    LayerSpec,
    PhasorNetwork,
    ForwardTrace,
    TargetEncoding,
    encode_target,
    tpam_activation,
    forward,
    backward,
    loss_cosine,
    loss_mse,
    predict,
)
from .optim import Adam
from .errors import (
    PhasorNetError,
    DimensionError,
    ValidationError,
    DataFormatError,
    NumericError,
)

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers (malloc.h)
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep the train step's freed temporaries in this process's heap.

    By default glibc serves the step's 2-16 MB temporaries (im2col columns,
    col2im rows, activations, dense gradients) with fresh mmaps or trims them
    off the heap top when freed, so each conv-preset step faults ~30 MB of
    zero-filled pages back in. With the mmap threshold at glibc's 32 MiB cap
    and the trim threshold at 256 MiB, the next step reuses the freed pages;
    up to 256 MiB of freed memory stays in the process. A no-op where libc
    has no mallopt (non-glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; or no CDLL(None) (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()
