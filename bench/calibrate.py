"""Machine-speed calibration for timings taken on shared cores.

On a shared host, load from neighbouring machines can slow every
instruction of this process by up to about 2x for seconds at a time, and
process CPU time slows with it.  The benchmark therefore times a fixed
loop of the same kind of work as the package (elementwise math on small
complex arrays, a pairwise 2x2 product, a batched 3x3 ``eigh``, plain
Python arithmetic) next to each timed round, and rescales the round's wall
time by REFERENCE_S / (time of the loop).  A time so corrected is in
seconds of a machine on which the loop takes exactly REFERENCE_S, which is
about what it takes on an idle core of a 2.1 GHz Intel Xeon x86_64 vCPU
with numpy 2.4 and OpenBLAS.  The loop does not use the package, so a change to the package does
not change the scale.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005
_STEPS = 8000
_REPEATS = 5


class Calibration:
    def __init__(self) -> None:
        self.angles = np.linspace(0.0, 0.01, 3 * _STEPS).reshape(_STEPS, 3)
        h = np.linspace(-1.0, 1.0, 600 * 9).reshape(600, 3, 3)
        self.hermitian = h + h.transpose(0, 2, 1)
        self.loop_s()  # first calls load numpy's lazily initialised parts

    def _once(self) -> float:
        c = np.cos(self.angles)
        s = np.sin(self.angles)
        m = np.empty((_STEPS, 2, 2), dtype=complex)
        m[:, 0, 0] = c[:, 0] - 1j * s[:, 2]
        m[:, 1, 1] = c[:, 0] + 1j * s[:, 2]
        m[:, 0, 1] = -1j * s[:, 1]
        m[:, 1, 0] = -1j * s[:, 1]
        while m.shape[0] > 1:
            n = m.shape[0]
            even = n - (n % 2)
            paired = m[1:even:2] @ m[0:even:2]
            if n % 2:
                paired = np.concatenate([paired, m[-1:]], axis=0)
            m = paired
        w, _ = np.linalg.eigh(self.hermitian)
        total = 0.0
        for i in range(5000):
            total += (i * 0.5) ** 2 % 7.0
        return float(abs(m[0, 0, 0])) + float(w[0, 0]) + total

    def loop_s(self) -> float:
        """Time of one calibration loop: the median of a few repeats."""
        samples = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            self._once()
            samples.append(perf_counter() - t0)
        return statistics.median(samples)

    @staticmethod
    def factor(loop_s: float) -> float:
        """Multiply a wall time taken next to a loop of ``loop_s`` by this."""
        return REFERENCE_S / loop_s
