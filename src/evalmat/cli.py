"""Command-line front end: det, verify, ffprob, bench, matrix."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

from . import bench as bench_mod
from .det import (
    BORDERLINE,
    DIRECT,
    H_ROUTE,
    ORACLE,
    SUM_FORM,
    LinearChange,
    SubsetBudgetError,
    det_structured,
    engines,
    oracle_det,
    predict_equivariant_det,
    report_to_json,
    run_engine,
)
from .ffprob import (
    ExperimentConfig,
    estimate_zero_probability,
    result_csv_line,
    result_to_json,
)
from .matrix import (
    PointVectors,
    evaluation_matrix,
    factorization_parts,
    matrix_to_json,
    pascal_core,
)
from .poly import HomogeneousPoly, UnivariatePoly, poly_from_json, poly_to_json
from .scalar import (
    ScalarDomain,
    SizeMismatchError,
    format_scalar,
    parse_domain,
    parse_scalar,
    parse_scalars,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_SIZE = 3

# det --method's choices, in --help's order, and their engines (see
# det.engines); auto, None, takes det.engines' first
METHODS = {
    "auto": None, "oracle": ORACLE, "borderline": BORDERLINE,
    "cb-direct": DIRECT, "cb-h": H_ROUTE, "sum-form": SUM_FORM,
}


@dataclass
class Instance:
    domain: ScalarDomain
    poly: HomogeneousPoly | UnivariatePoly
    pts: PointVectors
    linear_change: LinearChange | None


def _parsed(name: str, parse, *args):
    """parse(*args), with a ValueError, TypeError or KeyError re-raised as one
    ValueError prefixed by name: the field, option or text that failed."""
    try:
        return parse(*args)
    except KeyError as e:
        raise ValueError(f"{name}: missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ValueError(f"{name}: {e}") from e


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _linear_change(raw, domain: ScalarDomain) -> LinearChange:
    vals = parse_scalars(raw, domain, "linear_change")
    if len(vals) != 4:
        raise ValueError("need exactly four scalars (alpha, beta, gamma, delta)")
    return LinearChange(*vals)


def load_instance(text: str) -> Instance:
    obj = _parsed("instance is not valid JSON", json.loads, text)
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")

    def field(name):
        if name not in obj:
            raise ValueError(f"field '{name}': missing")
        return obj[name]

    domain = _parsed("field 'domain'", parse_domain, field("domain"))
    poly = _parsed("field 'poly'", poly_from_json, field("poly"), domain)
    a, b = field("a"), field("b")
    pts = _parsed(
        "field 'a'/'b'",
        lambda: PointVectors(parse_scalars(a, domain, "a"), parse_scalars(b, domain, "b"), domain),
    )
    if pts.n == 0:
        raise SizeMismatchError("need at least one evaluation point")
    change = None
    if obj.get("linear_change") is not None:
        change = _parsed("field 'linear_change'", _linear_change, obj["linear_change"], domain)
    return Instance(domain, poly, pts, change)


def instance_to_json(inst: Instance) -> dict:
    out = {
        "domain": inst.domain.name,
        "poly": poly_to_json(inst.poly),
        "a": [format_scalar(x) for x in inst.pts.a],
        "b": [format_scalar(x) for x in inst.pts.b],
    }
    if inst.linear_change is not None:
        lc = inst.linear_change
        out["linear_change"] = [format_scalar(x) for x in (lc.alpha, lc.beta, lc.gamma, lc.delta)]
    return out


def _read_instance(args) -> Instance:
    # a file that cannot be opened or read is an input error, like bad JSON
    try:
        if args.infile and args.infile != "-":
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except OSError as e:
        raise ValueError(e) from e
    return load_instance(text)


def cmd_det(args) -> int:
    inst = _read_instance(args)
    p, pts = inst.poly, inst.pts
    name = METHODS[args.method]
    if name is None and args.show_terms:
        # only the minor expansion has subset terms to show: DIRECT replaces
        # ORACLE where DIRECT applies
        names = engines(p, pts.n)
        name = DIRECT if names[0] == ORACLE and DIRECT in names else names[0]
    elif name not in (None, ORACLE) and (name == SUM_FORM) != isinstance(p, UnivariatePoly):
        # SUM_FORM needs a sum form; BORDERLINE and both Cauchy-Binet routes a homogeneous p
        kind = "sum_form" if name == SUM_FORM else "homogeneous"
        raise ValueError(f"--method {args.method} needs a {kind} polynomial")
    report = det_structured(p, pts) if name is None else run_engine(name, p, pts)
    out = {"domain": inst.domain.name}
    out.update(report_to_json(report, include_terms=args.show_terms))
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _engine_values(inst: Instance):
    """(label, value) of each engine of det.engines, oracle last.

    A Cauchy-Binet route that refuses its support subsets (past
    det.CB_VERIFY_BUDGET) has the text of a SKIPPED line for its value; only
    those two routes raise SubsetBudgetError, and any other error propagates.
    """
    p, pts = inst.poly, inst.pts
    rows = []
    for name in [e for e in engines(p, pts.n) if e != ORACLE] + [ORACLE]:
        label = f"CAUCHY_BINET_{name.upper()}" if name in (DIRECT, H_ROUTE) else name
        try:
            value = run_engine(name, p, pts).value
        except SubsetBudgetError as e:
            value = f"SKIPPED ({e.subsets} subsets > {e.limit})"
        rows.append((label, value))
    return rows


def cmd_verify(args) -> int:
    inst = _read_instance(args)
    # every input check (--expect, linear_change) comes before any engine runs
    expected = None
    if args.expect is not None:
        expected = _parsed("--expect", parse_scalar, args.expect, inst.domain)
    prediction = None
    if inst.linear_change is not None:
        if not isinstance(inst.poly, UnivariatePoly):
            raise ValueError("linear_change applies to sum_form polynomials only")
        prediction = predict_equivariant_det(inst.poly, inst.linear_change, inst.pts)
    rows = _engine_values(inst)
    if expected is not None:
        rows.append(("EXPECTED", expected))

    groups = [rows]
    if prediction is not None:
        c, d, predicted = prediction
        transformed = PointVectors(
            [c * x for x in inst.pts.a], [d * x for x in inst.pts.b], inst.domain
        )
        actual = oracle_det(inst.poly, transformed).value
        groups.append([("EQUIVARIANT_PREDICTED", predicted), ("TRANSFORMED_ORACLE", actual)])

    ok = True
    width = max(len(label) for g in groups for label, _ in g) + 2
    for group in groups:
        for label, value in group:
            shown = value if isinstance(value, str) else format_scalar(value)
            print(f"{label:<{width}}{shown}")
        compared = [row for row in group if not isinstance(row[1], str)]
        if len(compared) == 1:
            print(f"  nothing compared: {compared[0][0]} is the only engine run")
        for (li, vi), (lj, vj) in itertools.combinations(compared, 2):
            ok = ok and vi == vj
            verdict = "PASS" if vi == vj else f"FAIL ({format_scalar(vi)} != {format_scalar(vj)})"
            print(f"  {li} == {lj}: {verdict}")
    print("verification:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_matrix(args) -> int:
    inst = _read_instance(args)
    out = {"domain": inst.domain.name, "A": matrix_to_json(evaluation_matrix(inst.poly, inst.pts))}
    if isinstance(inst.poly, HomogeneousPoly):
        v, d, w = factorization_parts(inst.poly, inst.pts)
        out["V"] = matrix_to_json(v)
        out["D"] = matrix_to_json(d)
        out["W"] = matrix_to_json(w)
    else:
        out["core"] = matrix_to_json(pascal_core(inst.poly, inst.pts.n))
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _resolve_seed(args) -> int:
    if args.seed is None:
        print("seed 0", file=sys.stderr)
        return 0
    return args.seed


def cmd_ffprob(args) -> int:
    if args.coeffs is not None:
        coeffs = tuple(_parsed("--coeffs", _int_list, args.coeffs))
        if len(coeffs) != args.k + 1:
            raise ValueError(f"--coeffs needs k+1 = {args.k + 1} entries, got {len(coeffs)}")
    else:
        coeffs = (1,) * (args.k + 1)
    cfg = ExperimentConfig(
        modulus=args.p, n=args.n, coeffs=coeffs, trials=args.trials, seed=_resolve_seed(args)
    )
    result = estimate_zero_probability(cfg)
    if args.csv:
        print(result_csv_line(result))
    else:
        print(json.dumps(result_to_json(result), indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = _parsed("--sizes", _int_list, args.sizes)
    if any(n < 1 for n in sizes):
        raise ValueError("bench sizes must be >= 1")
    domain = _parsed("--domain", parse_domain, args.domain)
    if args.trials < 1:
        raise ValueError(f"bench --trials must be >= 1, got {args.trials}")
    records = bench_mod.run_bench(sizes, domain, args.trials, _resolve_seed(args))
    print(bench_mod.CSV_HEADER)
    for rec in records:
        print(bench_mod.record_csv_line(rec))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then shared: main() may run many
    times in one process, and parse_args keeps no state between calls. It
    holds no handler functions (main picks them by subcommand name)."""
    parser = argparse.ArgumentParser(
        prog="evalmat",
        description="Exact determinants of bivariate polynomial evaluation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--in", dest="infile", default=None, help="instance file (default: stdin)")

    p_det = sub.add_parser("det", help="compute one determinant report")
    add_instance_args(p_det)
    p_det.add_argument(
        "--method",
        choices=list(METHODS),
        default="auto",
    )
    p_det.add_argument("--show-terms", action="store_true", help="include subset terms")

    p_verify = sub.add_parser("verify", help="cross-check every applicable engine")
    add_instance_args(p_verify)
    p_verify.add_argument("--expect", default=None, help="additionally compare to this value")

    p_matrix = sub.add_parser("matrix", help="print A and its factors")
    add_instance_args(p_matrix)

    p_ff = sub.add_parser("ffprob", help="finite-field vanishing experiment")
    p_ff.add_argument("--p", type=int, required=True, help="prime field order")
    p_ff.add_argument("--n", type=int, required=True)
    p_ff.add_argument("--k", type=int, required=True)
    p_ff.add_argument("--coeffs", default=None, help="comma-separated alpha_0..alpha_k (default: all 1)")
    p_ff.add_argument("--trials", type=int, required=True)
    p_ff.add_argument("--seed", type=int, default=None)
    p_ff.add_argument("--csv", action="store_true", help="emit the one-line CSV record")

    p_bench = sub.add_parser("bench", help="time borderline formula vs elimination")
    p_bench.add_argument("--sizes", required=True, help="comma-separated n values (k = n-1)")
    p_bench.add_argument("--domain", default="fp:2147483647")
    p_bench.add_argument("--trials", type=int, default=3, help="timing repeats per method")
    p_bench.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # cmd_<command>, looked up per call in this module's namespace, not
    # stored in the shared parser, so a cmd_* replaced on this module (by a
    # tracer or a test) is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        code = handler(args)
        # output still buffered fails here, not at exit, if stdout is closed
        sys.stdout.flush()
        return code
    except SizeMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except bench_mod.BenchMismatchError as e:
        print(f"error: method values disagree: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # stdout's reader has gone (`evalmat det ... | head -1`): the rest of
        # the output goes to devnull, so that the interpreter's flush at exit
        # cannot fail again (Python's signal docs, "Note on SIGPIPE"), and
        # the exit status is the shell's for a program that SIGPIPE ends
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 128 + 13  # 13 is SIGPIPE's number
