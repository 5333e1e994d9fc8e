"""End-to-end benchmark of the evalmat CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload fp-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py ... --record results.jsonl
    python3 perfbench/run.py --diff perfbench/baseline.jsonl results.jsonl

The benchmark drives the public entry point `evalmat.cli.main(argv)` in
process: one client, one thread, a closed loop that starts the next op when
the previous one returns. Each op's instance goes in as JSON text on stdin;
its exit code and stdout are checked against a reference computed at set-up.
After one warm-up round, ops run in whole rounds of the workload's schedule
until `--seconds` have passed, so every run measures the same op mix. A
fixed kernel timed after every op (gauge.py) scales each time to a
reference machine speed, so that the host's drift in speed does not show as
a change of the program; the raw times go in the provenance line.

`--trace 0` prints the end-to-end metrics. `--trace 1` spends half the time
untraced and half with every public function of cli/scalar/poly/matrix/det/
ffprob wrapped in a span (see spans.py), then prints the per-layer metrics
and the tracing overhead, and writes the spans to perfbench/out/. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from gauge import Gauge
from spans import Tracer, install
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
GAUGE_TICKS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

SPANS = (
    "cli.main",
    "cli.load_instance",
    "cli.cmd_det",
    "cli.cmd_verify",
    "cli.cmd_ffprob",
    "scalar.parse_scalar",
    "scalar.normalize_scalars",
    "scalar.format_scalar",
    "poly.HomogeneousPoly.evaluate",
    "poly.UnivariatePoly.evaluate",
    "poly.complete_homogeneous_all",
    "matrix.DenseMatrix",
    "matrix.evaluation_matrix",
    "matrix.bareiss_det",
    "matrix.minor_det",
    "matrix.vandermonde_desc",
    "matrix.vandermonde_asc",
    "matrix.vandermonde_product",
    "det.det_cauchy_binet",
    "det.det_borderline",
    "det.det_sum_form",
    "det.predict_equivariant_det",
    "det.oracle_det",
    "ffprob.estimate_zero_probability",
)

PER_OP_COUNTS = (
    "matrix.evaluation_matrix.entries",
    "det.cb.subsets_total",
    "det.cb.subsets_evaluated",
)

MAXIMA = {
    "scalar.format_scalar.max_digits": "digits",
    "matrix.bareiss_det.max_dim": "rows",
    "det.value_bits.max": "bits",
}

PER_LAYER = {}
for _name in SPANS:
    PER_LAYER[f"{_name}.calls"] = "1/op"
    PER_LAYER[f"{_name}.ms"] = "ms/op"
    PER_LAYER[f"{_name}.self_ms"] = "ms/op"
PER_LAYER.update(
    {
        "cli.exit_nonzero.count": "count",
        **MAXIMA,
        **{name: "1/op" for name in PER_OP_COUNTS},
        "det.cb.useful_ratio": "ratio",
        "det.cb.oracle_alt_ms": "ms/op",
        "ffprob.trials": "1/op",
        "ffprob.trial_us": "us",
        "ffprob.rng_us_per_trial": "us",
        "ffprob.collision_path_ratio": "ratio",
        "trace.spans_per_op": "1/op",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_pct": "%",
    }
)


def import_evalmat():
    """Import evalmat afresh from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "evalmat" / "__init__.py").is_file():
        raise SystemExit(f"error: no evalmat package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "evalmat" or m.startswith("evalmat.")]:
        del sys.modules[name]
    importlib.import_module("evalmat.cli")
    mods = {m: sys.modules[f"evalmat.{m}"] for m in ("cli", "det", "ffprob")}
    return argparse.Namespace(**mods)


def execute(cli, op):
    """Run one op through cli.main; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as e:  # argparse rejects its input this way
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crash is a failed op, not a benchmark failure
        rc = None
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


class Phase:
    """Latencies and outcomes of the rounds run in one mode. A gauge kernel
    runs after every op (see gauge.py), so each latency can be scaled to the
    reference machine speed."""

    def __init__(self):
        self.latencies: list[float] = []  # raw seconds, in op order, round after round
        self.gauge = Gauge()  # one kernel time after each op
        self.rounds = 0
        self.correct = 0
        self.nonzero = 0
        self.wrong = 0  # exit 0 with a value that differs from the reference
        self.failures: dict[str, str] = {}  # label -> first failure message

    def run_round(self, cli, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.op = len(self.latencies)
            t0 = perf_counter()
            rc, out, err = execute(cli, op)
            self.latencies.append(perf_counter() - t0)
            self.gauge.tick(self.latencies[-1])
            try:
                good = rc == 0 and op.check(out)
            except (ValueError, LookupError, TypeError):
                good = False
            self.correct += good
            self.nonzero += rc != 0
            self.wrong += rc == 0 and not good
            if not good and op.label not in self.failures:
                lines = err.strip().splitlines()
                reason = lines[-1] if lines else "wrong value" if rc == 0 else "no message"
                self.failures[op.label] = f"exit {rc}: {reason[:200]}"
        self.rounds += 1

    def scaled(self) -> list[float]:
        """Latencies at the reference machine speed."""
        return [lat * self.gauge.factor(i) for i, lat in enumerate(self.latencies)]

    def ops_per_s(self, latencies=None) -> float:
        """Correct ops per second over a median round: every round runs the
        same ops, so the median discards bursts of load from elsewhere."""
        lat = self.scaled() if latencies is None else latencies
        per_round = len(lat) // self.rounds
        walls = [sum(lat[i : i + per_round]) for i in range(0, len(lat), per_round)]
        return self.correct / self.rounds / statistics.median(walls)


def measure(cli, ops, seconds):
    """One warm-up round, then whole rounds of `ops` until `seconds` have
    passed since the start of the warm-up."""
    deadline = perf_counter() + seconds
    Phase().run_round(cli, ops)
    phase = Phase()
    gc.collect()
    while not phase.rounds or perf_counter() < deadline:
        phase.run_round(cli, ops)
    return phase


def measure_traced(cli, ops, seconds, tracer):
    """A warm-up round, then alternate untraced and traced rounds until
    `seconds` have passed, so both modes see the same drift in machine
    speed."""
    deadline = perf_counter() + seconds
    Phase().run_round(cli, ops)
    plain, traced = Phase(), Phase()
    gc.collect()
    while not traced.rounds or perf_counter() < deadline:
        plain.run_round(cli, ops)
        restore = install(tracer)
        try:
            traced.run_round(cli, ops, tracer)
        finally:
            restore()
    return plain, traced


def op_quantile(latencies, rounds, q):
    """Nearest-rank quantile over the ops of a round, each op's latency
    being its median over the rounds. A single slow or fast sample can then
    not move the quantile onto an op of another shape."""
    per_round = len(latencies) // rounds
    ops = sorted(statistics.median(latencies[k::per_round]) for k in range(per_round))
    return ops[max(0, math.ceil(q * per_round) - 1)]


def end_to_end(phase, setup_s):
    lat = phase.scaled()
    return {
        "ops_per_s": phase.ops_per_s(lat),
        "op_ms_p50": op_quantile(lat, phase.rounds, 0.5) * 1e3,
        "op_ms_p90": op_quantile(lat, phase.rounds, 0.9) * 1e3,
        "ok_ratio": phase.correct / len(phase.latencies),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_times(phase, setup):
    """The end-to-end times before scaling to the reference speed."""
    lat = phase.latencies
    return {
        "ops_per_s": phase.ops_per_s(lat),
        "op_ms_p50": op_quantile(lat, phase.rounds, 0.5) * 1e3,
        "op_ms_p90": op_quantile(lat, phase.rounds, 0.9) * 1e3,
        "setup_s": statistics.median(setup),
    }


def per_layer(lib, ops, plain, traced, tracer):
    n_ops = len(traced.latencies)
    m = {}
    for name in SPANS:
        calls, total, own = tracer.stats.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls / n_ops
        m[f"{name}.ms"] = total * 1e3 / n_ops
        m[f"{name}.self_ms"] = own * 1e3 / n_ops
    for name in PER_OP_COUNTS:
        m[name] = tracer.counts.get(name, 0) / n_ops
    for name in MAXIMA:
        m[name] = tracer.maxima.get(name, 0)
    m["cli.exit_nonzero.count"] = traced.nonzero
    total = tracer.counts.get("det.cb.subsets_total", 0)
    useful = tracer.counts.get("det.cb.subsets_evaluated", 0)
    m["det.cb.useful_ratio"] = useful / total if total else 0.0

    # The oracle on the instances that ran Cauchy-Binet, timed untraced once
    # per op of the round: the saving a cost-aware dispatcher could take.
    alt = 0.0
    for slot, times in Counter(op_id % len(ops) for op_id in tracer.cb_ops).items():
        inst = lib.cli.load_instance(ops[slot].stdin)
        t0 = perf_counter()
        lib.det.oracle_det(inst.poly, inst.pts)
        alt += (perf_counter() - t0) * times
    m["det.cb.oracle_alt_ms"] = alt * 1e3 / n_ops

    # ffprob: per-trial cost, and the share of it spent drawing the points,
    # replayed through the public stream API.
    ff_ops = [op for op in ops if "trials" in op.meta]
    round_trials = sum(op.meta["trials"] for op in ff_ops)
    trials = traced.rounds * round_trials
    rng_s = 0.0
    for op in ff_ops:
        p, n, seed = op.meta["p"], op.meta["n"], op.meta["seed"]
        t0 = perf_counter()
        for t in range(op.meta["trials"]):
            g = lib.ffprob.trial_stream(seed, t)
            for _ in range(2 * n):
                g.next_below(p)
        rng_s += perf_counter() - t0
    ff_s = tracer.stats.get("ffprob.estimate_zero_probability", (0, 0.0))[1]
    collision = sum(op.meta["trials"] for op in ff_ops if op.meta["collision"])
    m["ffprob.trials"] = trials / n_ops
    m["ffprob.trial_us"] = ff_s * 1e6 / trials if trials else 0.0
    m["ffprob.rng_us_per_trial"] = rng_s * 1e6 / round_trials if round_trials else 0.0
    m["ffprob.collision_path_ratio"] = collision / round_trials if round_trials else 0.0

    m["trace.spans_per_op"] = len(tracer.spans) / n_ops
    m["trace.ops_per_s_untraced"] = untraced = plain.ops_per_s()
    m["trace.ops_per_s_traced"] = traced_rate = traced.ops_per_s()
    m["trace.overhead_pct"] = (untraced / traced_rate - 1) * 100
    return m


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, trace):
    # Each set-up is followed by GAUGE_TICKS kernel runs; its time is scaled
    # by the gauge samples around them, like an op's latency.
    setup, gauge = [], Gauge()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = import_evalmat()
        ops = WORKLOADS[workload](random.Random(f"{workload}/{seed}"), lib)
        setup.append(perf_counter() - t0)
        for _ in range(GAUGE_TICKS):
            gauge.tick()
    setup_s = statistics.median(
        t * gauge.factor(i * GAUGE_TICKS + GAUGE_TICKS // 2) for i, t in enumerate(setup)
    )

    if not trace:
        phases = [measure(lib.cli, ops, seconds)]
        metrics = end_to_end(phases[0], setup_s)
    else:
        tracer = Tracer()
        phases = plain, traced = measure_traced(lib.cli, ops, seconds, tracer)
        metrics = per_layer(lib, ops, plain, traced, tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.tsv", tracer.spans[0][1])

    attempted = sum(len(ph.latencies) for ph in phases)
    correct = sum(ph.correct for ph in phases)
    failures = {}
    for ph in phases:
        failures.update(ph.failures)
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ops_per_round": len(ops),
        "rounds": [ph.rounds for ph in phases],
        "op_count": attempted,
        "op_mix": dict(Counter(op.label for op in ops)),
        "failures": failures,
        "gauge_ms": [statistics.median(ph.gauge.samples) * 1e3 for ph in phases],
        "raw": raw_times(phases[0], setup),
    }
    # `correct` is false only when an op exited 0 with a wrong value; an op
    # that exits nonzero or crashes is a failure, counted in `failed`.
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not any(ph.wrong for ph in phases),
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return provenance, result


def print_table(provenance, result):
    print(f"# {provenance['workload']}  seed={provenance['seed']}  trace={provenance['trace']}"
          f"  ops={result['attempted']}  failed={result['failed']}")
    for label, why in provenance["failures"].items():
        print(f"#   FAILED {label}: {why}")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")


def load_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def diff(old_path, new_path):
    """Per workload and metric: the median and spread of each record file,
    the change of the median and, for end-to-end metrics, a verdict against
    the bound in BENCHMARK.json. Where a spread exceeds the bound the metric
    is unresolved, unless every new run beats every old one."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        for m in json.loads(spec.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["bound"], 1 if m["better"] == "lower" else -1)

    def values(path):
        groups = {}
        for rec in load_records(path):
            key = (rec["provenance"]["workload"], rec["provenance"]["trace"])
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault(key + (name,), []).append(m["value"])
        return groups

    old, new = values(old_path), values(new_path)
    print(f"{'workload':<10} {'metric':<42} {'old':>11} {'new':>11} {'change':>8}"
          f" {'spread':>15}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, _, name = key
        a, b = statistics.median(old[key]), statistics.median(new[key])
        change = (b - a) / a if a else 0.0
        spreads = spread(old[key]), spread(new[key])
        verdict = ""
        if name in bounds:
            bound, sign = bounds[name]
            if max(spreads) > bound:
                all_better = max(sign * v for v in new[key]) < min(sign * v for v in old[key])
                verdict = "better" if all_better else "unresolved"
            elif sign * change > bound:
                verdict = "WORSE"
            else:
                verdict = "better" if -sign * change > bound else "within bound"
        print(f"{workload:<10} {name:<42} {a:>11.5g} {b:>11.5g} {change:>+8.1%}"
              f" {spreads[0]:>7.1%}/{spreads[1]:<7.1%}  {verdict}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run's provenance and result to this JSONL file")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two record files")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        ap.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for provenance, result in runs:
        print(json.dumps({"provenance": provenance}))
        print_table(provenance, result)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {
                f"{p['workload']}.{k}": v for p, r in runs for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
