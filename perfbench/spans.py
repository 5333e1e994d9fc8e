"""In-memory span recorder wrapped around evalmat's public functions.

`install` replaces each public function of the traced modules under every
name it is imported by (`evalmat.det.bareiss_det` is the same function as
`evalmat.matrix.bareiss_det`, and det.py calls it through its own global),
plus three methods. Each call records a span (name, start, end, parent span,
op id); a span's self time is its duration minus the time its child spans
cover. Counters are taken at the same boundaries from arguments and results.
The program's own sources are not touched; `restore` puts every original
back.
"""

from __future__ import annotations

import inspect
import math
import sys
from time import perf_counter

TRACED_MODULES = ("cli", "scalar", "poly", "matrix", "det", "ffprob")

# Called once per random draw or per trial, thousands of times per op: a span
# each would dominate what it measures. The ffprob RNG share is measured by
# replaying the draws instead (see run.py).
UNTRACED = {"ffprob.mix64", "ffprob.trial_stream"}

METHODS = (
    ("matrix", "DenseMatrix", "__init__", "matrix.DenseMatrix"),
    ("poly", "HomogeneousPoly", "evaluate", "poly.HomogeneousPoly.evaluate"),
    ("poly", "UnivariatePoly", "evaluate", "poly.UnivariatePoly.evaluate"),
)


def value_bits(x) -> int:
    """Bits of an exact scalar: residue bits for F_p, numerator plus
    denominator bits for Q."""
    if hasattr(x, "field"):
        return x.value.bit_length()
    bits = x.numerator.bit_length()
    return bits + (x.denominator.bit_length() if x.denominator != 1 else 0)


class Tracer:
    """Spans, per-name call statistics and counters of one traced run."""

    def __init__(self):
        self.op = -1
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []  # indices of the open spans
        self.covered: list[float] = []  # child time inside each open span
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.cb_ops: set[int] = set()  # ops that ran det_cauchy_binet

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def call(self, name, fn, args, kwargs, observe):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.covered.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            covered = self.covered.pop()
            if self.covered:
                self.covered[-1] += end - start
            self.spans[index] = (name, start, end, parent, self.op)
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += end - start
            stat[2] += end - start - covered
        if observe is not None:
            observe(self, args, result)
        return result

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{op}\t{i}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )


def _observe_cb(tr, args, report):
    p, pts = args[0], args[1]
    tr.add("det.cb.subsets_total", math.comb(p.degree + 1, pts.n))
    tr.add("det.cb.subsets_evaluated", len(report.subset_terms))
    tr.maximum("det.value_bits.max", value_bits(report.value))
    tr.cb_ops.add(tr.op)


def _observe_report(tr, args, report):
    tr.maximum("det.value_bits.max", value_bits(report.value))


def _observe_bareiss(tr, args, value):
    tr.maximum("matrix.bareiss_det.max_dim", args[0].rows)
    tr.maximum("det.value_bits.max", value_bits(value))


OBSERVERS = {
    "scalar.format_scalar": lambda tr, args, s: tr.maximum(
        "scalar.format_scalar.max_digits", len(s)
    ),
    "matrix.evaluation_matrix": lambda tr, args, m: tr.add(
        "matrix.evaluation_matrix.entries", m.rows * m.cols
    ),
    "matrix.bareiss_det": _observe_bareiss,
    "det.det_cauchy_binet": _observe_cb,
    "det.det_borderline": _observe_report,
    "det.det_sum_form": _observe_report,
    "det.oracle_det": _observe_report,
}


def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap the traced functions and methods; returns a callable that
    restores the originals."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for short in TRACED_MODULES:
        mod = sys.modules[f"evalmat.{short}"]
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrappers[id(obj)] = (obj, _wrap(tracer, name, obj))

    undo = []
    for modname in [m for m in sys.modules if m == "evalmat" or m.startswith("evalmat.")]:
        mod = sys.modules[modname]
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    for short, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules[f"evalmat.{short}"], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, name, original))
        undo.append((cls, meth, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
