"""Machine-speed reference that times are scaled by.

The 2-core Intel Xeon virtual machine the baseline was measured on is
shared, and other tenants switch it between a fast and a slow state, for a
second or for minutes at a time: the same 500-scene ``dump-roadgraph`` took
1.4 s or 2.8 s, and a whole 16 s run could fall in the slow state. A fixed kernel of the same kind of
work (JSON decoding, Python float loops, a heap, small numpy reductions)
slows by about the same factor. So every timed stretch is bracketed by
kernel samples, and its wall time is reported as
``wall * REFERENCE_S / kernel time``: seconds at the speed at which the
kernel takes ``REFERENCE_S``, the fast state of that machine.

In probes there, this cut the coefficient of variation of repeated
commands from 0.13-0.21 to 0.07-0.09 while the machine was busy, and raised
it from 0.085 to 0.099 while it flipped state faster than a repetition
lasts. Raw wall times are kept beside the scaled ones in the results file.
The kernel is benchmark code only; no change to ``intentforge`` alters it.
"""

from __future__ import annotations

import heapq
import json
import math
import time

import numpy as np

REFERENCE_S = 0.0104   # kernel time, fast state, 2-core Intel Xeon VM
SAMPLES = 3            # kernel runs per sample; the fastest one counts


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        rows = [[i, float(x), float(y)]
                for i, (x, y) in enumerate(rng.random((6000, 2)))]
        self._doc = json.dumps({"rows": rows})
        self._pts = rng.random((300, 2))

    def _kernel(self) -> float:
        start = time.perf_counter()
        rows = json.loads(self._doc)["rows"]
        acc = 0.0
        for _, x, y in rows:
            acc += math.hypot(x, y)
        heap = [(x, i) for i, x, _ in rows]
        heapq.heapify(heap)
        while heap:
            heapq.heappop(heap)
        for _ in range(40):
            diff = self._pts[:, None, :] - self._pts[None, :8, :]
            (diff ** 2).sum(-1).argmin(axis=1)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Current kernel time (s)."""
        return min(self._kernel() for _ in range(SAMPLES))

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall seconds to reference seconds for a stretch
        bracketed by two samples."""
        return REFERENCE_S / ((before + after) / 2)
