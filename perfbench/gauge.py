"""Machine-speed gauge: a fixed pure-Python kernel timed between ops.

The benchmark runs on a shared host whose cores slow down and speed up by
up to 1.5x for seconds to minutes at a time, with CPU time equal to wall
time (the process is not descheduled; the core itself is slower). Raw
latencies then measure the host as much as the program. The gauge times a
fixed kernel after every op; the kernel does the kinds of work the
workloads do (mod-p row elimination on lists, big-int products and decimal
output, Fraction sums, 64-bit mixing, small JSON round trips) but imports
nothing from evalmat, so a change to the program never changes it. An op's
latency is scaled by REF_MS over the median kernel time around it: times are
reported at the speed at which the kernel takes REF_MS.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

# Fixes the unit of scaled times: they read as if the kernel took REF_MS.
# The kernel's median was 3.0-5.3 ms per run on the host of the baseline.
REF_MS = 4.0
# Kernel samples on each side of an op that set its speed factor.
HALF_WINDOW = 2
# A sample after a long op runs the kernel for about this share of the op's
# time, at most MAX_RUNS times, so a long op's speed factor is less noisy.
SHARE = 0.1
MAX_RUNS = 15

_P = 2**31 - 1
_rng = random.Random(20240611)
_MATRIX = [[_rng.randrange(1, _P) for _ in range(24)] for _ in range(24)]
_BIG = [_rng.getrandbits(3000) | 1 for _ in range(6)]
_FRACTIONS = [Fraction(_rng.randrange(-999, 1000), _rng.randrange(1, 60)) for _ in range(120)]
_DOC = {"domain": "fp:2147483647", "a": [str(_rng.randrange(_P)) for _ in range(24)]}
_MASK = (1 << 64) - 1


def kernel() -> int:
    """Fixed work, about REF_MS ms; returns a checksum so nothing is skipped."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    det = 1
    for k in range(n):
        inv = pow(m[k][k] or 1, _P - 2, _P)
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k] * inv % _P
            for j in range(k, n):
                ri[j] = (ri[j] - f * rk[j]) % _P
        det = det * rk[k] % _P
    acc = 1
    for a in _BIG:
        for b in _BIG:
            acc = acc * a * b % _BIG[0]
    digits = len(str(acc * _BIG[1]))
    s = Fraction(0)
    for f in _FRACTIONS:
        s += f * f
    z = det
    for _ in range(3000):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    doc = _DOC
    for _ in range(30):
        doc = json.loads(json.dumps(doc))
    return det ^ digits ^ s.denominator ^ z ^ len(doc["a"])


class Gauge:
    """Kernel times in the order they were taken, one after each op."""

    def __init__(self):
        self.samples: list[float] = []

    def tick(self, after: float = 0.0) -> None:
        """One sample: the median of enough kernel runs to take about
        SHARE of `after`, the time of the op just run (at least one)."""
        runs = []
        for _ in range(min(MAX_RUNS, max(1, round(after * SHARE / (REF_MS * 1e-3))))):
            t0 = perf_counter()
            kernel()
            runs.append(perf_counter() - t0)
        self.samples.append(statistics.median(runs))

    def factor(self, i: int) -> float:
        """REF_MS over the median kernel time of the samples around the i-th:
        multiply a raw time taken next to sample i by this."""
        window = self.samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        return REF_MS * 1e-3 / statistics.median(window)
