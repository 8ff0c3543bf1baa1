"""A fixed reference kernel that samples how fast the host runs right now.

On a shared host the same code runs up to 1.9x slower for tens of seconds
at a time, because other machines' work shares the physical cores and
caches.  That swing is far larger than the changes the benchmark has to
resolve, and no statistic taken within one run removes it when a slow
period outlasts the run.  So the benchmark also times this kernel between
ops and between set-ups, and converts each measured time t into reference
seconds, t / (how much slower than nominal the kernel ran around t).

The kernel has two parts, timed apart, for the two kinds of work comln's
paths are made of: interpreter-bound Python object and small-array work
like the solver loop around a 25- to 1,275-entry state (frozen-dataclass
construction, reshaped views, small matmuls, softmax, concatenation), and
streaming arithmetic over arrays larger than the L2 cache like the 12 MB
(s, B, z) state.  They react differently to a busy host: on a 2-core Xeon
host the interpreter part ran up to 1.85x slower in slow periods, the
array part up to 1.15x.  Each workload weights the two parts
(``Workload.ref_weights``) by which of them its op times followed over 3- to
6-second windows on that host.  The fit is good for the interpreter-bound
workloads and loose for metagrad-10w5s, whose op time also varies in ways
neither part follows.  The kernel never calls comln, so its time moves with
the host and not with the program.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REF_EVERY_S = 0.5  # at most this long between samples during a timed run
_REPEATS = 3  # runs of each part per sample; the sample is their median time
# Median time of each part on a 2-core Intel Xeon host (Python 3.11,
# numpy 2.4, one BLAS thread) in its fast periods, so a reference second
# there reads about one second.
INTERP_NOMINAL_S = 0.0021
ARRAY_NOMINAL_S = 0.0014


@dataclass(frozen=True)
class _Segments:
    values: np.ndarray
    layout: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if sum(int(np.prod(shape)) for _, shape in self.layout) != self.values.size:
            raise ValueError("layout does not cover the values")


_LAYOUT = (("s", (5, 5)), ("w", (5, 16)))


def _interp_part() -> None:
    v = np.zeros(105)
    for _ in range(100):
        seg = _Segments(v, _LAYOUT)
        s = seg.values[:25].reshape(5, 5)
        w = seg.values[25:].reshape(5, 16)
        logits = s @ w
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        v = np.concatenate([(0.5 * s).ravel(), (w - 1e-3 * p).ravel()])


class HostClock:
    """Kernel samples taken through a run, and the time conversion they give.

    ``weights`` says how much of the workload's time behaves like each part
    of the kernel, (interpreter, array); they sum to one.
    """

    def __init__(self, weights) -> None:
        self.weights = weights
        self.samples = []  # (interpreter part, array part) times, in seconds
        self._big = np.linspace(0.0, 1.0, 500_000)  # 4 MB, twice the L2 cache
        self._out = np.empty_like(self._big)

    def _array_part(self) -> None:
        for _ in range(2):
            np.multiply(self._big, 0.5, out=self._out)
            np.add(self._out, self._big, out=self._out)

    def sample(self) -> None:
        sample = []
        for part in (_interp_part, self._array_part):
            runs = []
            for _ in range(_REPEATS):
                began = time.perf_counter()
                part()
                runs.append(time.perf_counter() - began)
            sample.append(statistics.median(runs))
        self.samples.append(tuple(sample))

    def slowdown(self, i: int) -> float:
        """How much slower than nominal the host ran at sample i."""
        interp, array = self.samples[i]
        w_interp, w_array = self.weights
        return w_interp * interp / INTERP_NOMINAL_S + w_array * array / ARRAY_NOMINAL_S

    def factor(self, i: int) -> float:
        """Reference seconds per second between samples i and i + 1."""
        return 2.0 / (self.slowdown(i) + self.slowdown(i + 1))
