"""Reference kernels that measure how fast the host runs at the moment.

The cores this benchmark runs on are shared with other tenants.  Over a few
seconds the same code runs at speeds up to 1.6x apart, and whole runs of
30 s can sit in a slow stretch, so that the fastest run of each op still
reads slow.  A reference kernel is fixed code, using numpy only, timed
between the ops: an op's duration divided by the kernel's time around it
is the op's cost in units of the host's current speed.  Multiplied by the
kernel's nominal time, it reads as seconds at a fixed host speed.  The
library's code never runs inside a kernel, so a change to the library
moves the op's time and not the kernel's.

Each workload uses the kernel that slows like its ops do: ``assembly`` for
the interpreter-bound ops (block assembly, schema validation, small SVDs)
and ``matmul`` for the dense Gram products of the ball identities.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

_RNG = np.random.default_rng(0)
_INDEX = [(i, j) for i in range(9) for j in range(9 - i)]  # degree <= 8 in two variables
_SHIFTS = ((1, 0), (0, 1), (1, 1), (2, 0))
_BLOCK = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))
_DENSE = _RNG.standard_normal((168, 168)) + 1j * _RNG.standard_normal((168, 168))


def _assembly() -> np.ndarray:
    """A multiplier-matrix style assembly: dict lookups and 2x2 block adds."""
    data = np.zeros((2 * len(_INDEX),) * 2, dtype=complex)
    positions = {alpha: k for k, alpha in enumerate(_INDEX)}
    for k, alpha in enumerate(_INDEX):
        for beta in _SHIFTS:
            kg = positions.get((alpha[0] + beta[0], alpha[1] + beta[1]))
            if kg is not None:
                data[2 * kg : 2 * kg + 2, 2 * k : 2 * k + 2] += 0.5 * _BLOCK
    return data


def _matmul() -> np.ndarray:
    """A dense complex Gram product at the ball workload's dim, 168."""
    return _DENSE @ _DENSE.conj().T


class Kernel:
    """A reference kernel and its nominal time: its time on an idle host of
    the kind the benchmark was tuned on (2 vCPUs of an Intel Xeon)."""

    def __init__(self, name: str, fn: Callable[[], object], nominal_s: float) -> None:
        self.name = name
        self.fn = fn
        self.nominal_s = nominal_s

    def time(self) -> float:
        start = time.perf_counter()
        self.fn()
        return time.perf_counter() - start


ASSEMBLY = Kernel("assembly", _assembly, 0.30e-3)
MATMUL = Kernel("matmul", _matmul, 0.75e-3)
