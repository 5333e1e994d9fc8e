"""Timing comparison: borderline closed form vs elimination oracle.

Instances are random borderline (n = k+1) evaluation matrices with distinct
points and nonzero coefficients; both methods must hash to the same value
before any timing is reported.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from statistics import median

from .det import det_borderline
from .ffprob import SplitMix64, mix64
from .matrix import PointVectors, bareiss_det, evaluation_matrix
from .poly import HomogeneousPoly
from .scalar import RATIONAL, Scalar, ScalarDomain, format_scalar


class BenchMismatchError(RuntimeError):
    """The two methods disagreed; timings are withheld."""


@dataclass(frozen=True)
class BenchRecord:
    n: int
    k: int
    domain: str
    method: str
    wall_time_ns: int
    value_hash: str


CSV_HEADER = "n,k,domain,method,wall_time_ns,value_hash"


def record_csv_line(rec: BenchRecord) -> str:
    return f"{rec.n},{rec.k},{rec.domain},{rec.method},{rec.wall_time_ns},{rec.value_hash}"


def value_hash(value: Scalar) -> str:
    return hashlib.sha256(format_scalar(value).encode()).hexdigest()[:16]


def _distinct_values(stream: SplitMix64, count: int, bound: int) -> list[int]:
    seen: set[int] = set()
    out = []
    while len(out) < count:
        v = stream.next_below(bound)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def random_borderline_instance(n: int, domain: ScalarDomain, stream: SplitMix64):
    """Random degree n-1 polynomial with nonzero coefficients and distinct
    point vectors. Rational instances draw integer points below 2^20."""
    k = n - 1
    bound = domain.modulus or 1 << 20
    if domain.modulus and n > bound:
        raise ValueError(f"cannot pick {n} distinct points in F_{bound}")
    coeffs = [domain.from_int(1 + stream.next_below(bound - 1)) for _ in range(k + 1)]
    a = [domain.from_int(v) for v in _distinct_values(stream, n, bound)]
    b = [domain.from_int(v) for v in _distinct_values(stream, n, bound)]
    return HomogeneousPoly(k, coeffs, domain), PointVectors(a, b, domain)


def _time_ns(fn, repeats: int) -> tuple[int, Scalar]:
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        value = fn()
        times.append(time.perf_counter_ns() - t0)
    return int(median(times)), value


def run_bench(
    sizes: list[int],
    domain: ScalarDomain = RATIONAL,
    trials: int = 3,
    seed: int = 0,
) -> list[BenchRecord]:
    """One borderline instance per n; returns two records (borderline,
    oracle) per size. Raises BenchMismatchError before reporting any timing
    if the values disagree."""
    records = []
    for idx, n in enumerate(sizes):
        stream = SplitMix64(mix64(seed) ^ mix64(idx))
        p, pts = random_borderline_instance(n, domain, stream)
        matrix = evaluation_matrix(p, pts)

        t_border, v_border = _time_ns(lambda: det_borderline(p, pts).value, trials)
        t_oracle, v_oracle = _time_ns(lambda: bareiss_det(matrix), trials)

        h_border, h_oracle = value_hash(v_border), value_hash(v_oracle)
        if h_border != h_oracle:
            raise BenchMismatchError(
                f"n={n}: borderline={format_scalar(v_border)} "
                f"oracle={format_scalar(v_oracle)}"
            )
        name = domain.name
        records.append(BenchRecord(n, n - 1, name, "borderline", t_border, h_border))
        records.append(BenchRecord(n, n - 1, name, "oracle", t_oracle, h_oracle))
    return records
