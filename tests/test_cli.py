import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

from evalmat import cli, det
from evalmat.bench import BenchMismatchError
from evalmat.cli import instance_to_json, load_instance, main
from evalmat.det import CAUCHY_BINET, det_structured
from evalmat.scalar import RATIONAL, DomainMismatchError, PrimeField, RationalDomain


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "evalmat", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


BORDERLINE_INSTANCE = json.dumps(
    {
        "domain": "rational",
        "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
        "a": ["0", "1", "2"],
        "b": ["0", "1", "2"],
    }
)

SUM_FORM_INSTANCE = json.dumps(
    {
        "domain": "rational",
        "poly": {"kind": "sum_form", "coeffs": ["0", "0", "1"]},
        "a": ["0", "1", "2"],
        "b": ["0", "1", "2"],
        "linear_change": ["1", "0", "1", "1"],
    }
)


def test_det_borderline(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(BORDERLINE_INSTANCE)
    proc = run_cli(["det", "--in", str(path)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == "-8"
    assert out["method"] == "BORDERLINE"
    assert out["domain"] == "rational"


def test_det_from_stdin_oracle_method():
    proc = run_cli(["det", "--method", "oracle"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["value"] == "-8" and out["method"] == "ORACLE"


def test_det_vanishing_regime():
    inst = json.dumps(
        {
            "domain": "rational",
            "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
            "a": ["0", "1", "2", "3", "4"],
            "b": ["0", "1", "2", "3", "4"],
        }
    )
    proc = run_cli(["det"], stdin=inst)
    out = json.loads(proc.stdout)
    assert out["value"] == "0" and out["method"] == "VANISH_RANK"


def test_det_show_terms():
    inst = json.dumps(
        {
            "domain": "rational",
            "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
            "a": ["0", "1"],
            "b": ["0", "1"],
        }
    )
    proc = run_cli(["det", "--show-terms"], stdin=inst)
    out = json.loads(proc.stdout)
    assert out["method"] == "CAUCHY_BINET"
    assert [t["term"] for t in out["subset_terms"]] == ["0", "-1", "0"]


def test_det_size_mismatch_exit_3():
    proc = run_cli(["det", "--method", "borderline"], stdin=json.dumps(
        {
            "domain": "rational",
            "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
            "a": ["0", "1"],
            "b": ["0", "1"],
        }
    ))
    assert proc.returncode == 3
    assert "n = k+1" in proc.stderr


def test_det_parse_error_names_field():
    bad = json.dumps({"domain": "rational", "poly": {"kind": "homogeneous", "degree": 1, "coeffs": ["1", "x"]}, "a": ["1"], "b": ["1"]})
    proc = run_cli(["det"], stdin=bad)
    assert proc.returncode == 2
    assert "poly" in proc.stderr
    missing = json.dumps({"domain": "rational", "a": ["1"], "b": ["1"]})
    proc = run_cli(["det"], stdin=missing)
    assert proc.returncode == 2
    assert "'poly'" in proc.stderr


def test_det_fp_domain():
    inst = json.dumps(
        {
            "domain": "fp:101",
            "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
            "a": ["0", "1", "2"],
            "b": ["0", "1", "2"],
        }
    )
    proc = run_cli(["det"], stdin=inst)
    out = json.loads(proc.stdout)
    assert out["value"] == "93" and out["domain"] == "fp:101"  # -8 mod 101


def test_verify_pass_and_expect():
    proc = run_cli(["verify"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 0, proc.stdout
    assert "PASS" in proc.stdout
    assert "BORDERLINE" in proc.stdout and "ORACLE" in proc.stdout
    assert "CAUCHY_BINET_DIRECT" in proc.stdout and "CAUCHY_BINET_H_ROUTE" in proc.stdout

    proc = run_cli(["verify", "--expect", "-8"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 0

    proc = run_cli(["verify", "--expect", "7"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout

    # values with a leading dash beyond plain integers need the = form
    proc = run_cli(["verify", "--expect=-1/2"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 1
    proc = run_cli(["verify", "--expect", "-8"], stdin=BORDERLINE_INSTANCE)
    assert proc.returncode == 0


def test_verify_sum_form_with_linear_change():
    proc = run_cli(["verify"], stdin=SUM_FORM_INSTANCE)
    assert proc.returncode == 0, proc.stdout
    assert "EQUIVARIANT_PREDICTED" in proc.stdout
    assert "TRANSFORMED_ORACLE" in proc.stdout
    assert "-64" in proc.stdout


def _decimal_to_int(text):
    """int(text) in pieces below every int/str digit limit CPython allows
    (the lowest is 640)."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i : i + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_det_and_verify_past_digit_limit():
    # n = 40 sum form: the determinant has about 5,850 digits, past CPython's
    # default 4300-digit int/str limit, on output and on --expect input
    n = 40
    lead = 10**100
    inst = json.dumps(
        {
            "domain": "rational",
            "poly": {"kind": "sum_form", "coeffs": ["0"] * (n - 1) + [str(lead)]},
            "a": [str(r) for r in range(n)],
            "b": [str(-s) for s in range(n)],
        }
    )
    vdm = 1
    for j in range(n):
        for i in range(j):
            vdm *= j - i
    expected = (
        lead**n
        * (-1) ** math.comb(n, 2)
        * math.prod(math.comb(n - 1, i) for i in range(n))
        * vdm
        * (-1) ** math.comb(n, 2)
        * vdm
    )

    proc = run_cli(["det"], stdin=inst)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["method"] == "SUM_FORM"
    assert len(out["value"]) > 4300
    assert _decimal_to_int(out["value"]) == expected

    proc = run_cli(["verify", f"--expect={out['value']}"], stdin=inst)
    assert proc.returncode == 0, proc.stderr
    assert "verification: PASS" in proc.stdout


def test_matrix_command():
    proc = run_cli(["matrix"], stdin=BORDERLINE_INSTANCE)
    out = json.loads(proc.stdout)
    assert out["A"]["entries"][0] == ["0", "1", "4"]
    assert out["D"]["entries"][1][1] == "2"
    assert out["V"]["cols"] == 3 and out["W"]["cols"] == 3


def test_ffprob_json_and_csv():
    args = ["ffprob", "--p", "101", "--n", "3", "--k", "2", "--trials", "2000", "--seed", "42"]
    proc = run_cli(args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["sz_bound"] == "6/101"
    proc_csv = run_cli(args + ["--csv"])
    fields = proc_csv.stdout.strip().split(",")
    assert fields[:6] == ["101", "3", "2", "2000", "42", out["zero_count"].__str__()]


def test_ffprob_composite_p_exit_2():
    proc = run_cli(["ffprob", "--p", "4", "--n", "1", "--k", "0", "--trials", "10"])
    assert proc.returncode == 2
    assert "prime" in proc.stderr


def test_ffprob_zero_trials_exit_2():
    proc = run_cli(["ffprob", "--p", "7", "--n", "1", "--k", "0", "--trials", "0"])
    assert proc.returncode == 2


def test_ffprob_default_seed_announced():
    proc = run_cli(["ffprob", "--p", "7", "--n", "1", "--k", "0", "--trials", "5"])
    assert proc.returncode == 0
    assert "seed 0" in proc.stderr


def test_bench_small():
    proc = run_cli(["bench", "--sizes", "2,3", "--domain", "fp:101", "--trials", "2", "--seed", "1"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,k,domain,method,wall_time_ns,value_hash"
    assert len(lines) == 5
    for n in (2, 3):
        pair = [l.split(",") for l in lines[1:] if l.startswith(f"{n},")]
        assert {row[3] for row in pair} == {"borderline", "oracle"}
        assert pair[0][5] == pair[1][5]  # identical value hashes


def test_bench_rational_domain():
    proc = run_cli(["bench", "--sizes", "4", "--domain", "rational", "--trials", "1", "--seed", "2"])
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 3


def test_bench_refuses_on_mismatch(monkeypatch):
    import evalmat.bench as bench_mod
    from evalmat.matrix import bareiss_det, evaluation_matrix

    def off_by_one(p, pts):
        value = bareiss_det(evaluation_matrix(p, pts)) + 1
        return type("R", (), {"value": value})()

    monkeypatch.setattr(bench_mod, "det_borderline", off_by_one)
    with pytest.raises(BenchMismatchError):
        bench_mod.run_bench([3], PrimeField(101), trials=1, seed=0)


def test_bench_mismatch_exits_1_through_main(monkeypatch, capsys):
    import evalmat.bench as bench_mod
    from evalmat.matrix import bareiss_det, evaluation_matrix

    def off_by_one(p, pts):
        value = bareiss_det(evaluation_matrix(p, pts)) + 1
        return type("R", (), {"value": value})()

    monkeypatch.setattr(bench_mod, "det_borderline", off_by_one)
    args = ["bench", "--sizes", "3", "--domain", "fp:101", "--trials", "1", "--seed", "0"]
    code, out, err = run_main_full(monkeypatch, capsys, args)
    assert (code, out) == (1, "")
    assert err.startswith("error: method values disagree: ")


def test_instance_roundtrip():
    inst = load_instance(SUM_FORM_INSTANCE)
    assert inst.domain == RATIONAL
    assert inst.pts.n == 3
    assert inst.linear_change is not None
    assert inst.linear_change.c == 2 and inst.linear_change.d == 1
    assert instance_to_json(inst) == json.loads(SUM_FORM_INSTANCE)
    again = load_instance(json.dumps(instance_to_json(inst)))
    assert again.poly == inst.poly
    assert again.pts.a == inst.pts.a and again.pts.b == inst.pts.b
    assert again.linear_change == inst.linear_change
    with pytest.raises(ValueError):
        load_instance("{not json")
    with pytest.raises(ValueError):
        load_instance(json.dumps({"domain": "rational", "poly": {"kind": "homogeneous", "degree": 0, "coeffs": ["1"]}, "a": ["1"], "b": ["1", "2"]}))


def test_unknown_domain_exit_2():
    inst = json.dumps({"domain": "galois:8", "poly": {"kind": "homogeneous", "degree": 0, "coeffs": ["1"]}, "a": ["1"], "b": ["1"]})
    proc = run_cli(["det"], stdin=inst)
    assert proc.returncode == 2
    assert "domain" in proc.stderr


def run_main(monkeypatch, capsys, args, stdin=""):
    """main() in this process, as perfbench drives it: (exit code, stdout)."""
    return run_main_full(monkeypatch, capsys, args, stdin)[:2]


def run_main_full(monkeypatch, capsys, args, stdin=""):
    """main() in this process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


N2_K2_INSTANCE = json.dumps(
    {
        "domain": "rational",
        "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
        "a": ["0", "1"],
        "b": ["0", "1"],
    }
)


def test_main_in_process_options_do_not_carry_over(monkeypatch, capsys):
    # the parser is built once per process; each call still parses afresh.
    # At n = 2, k = 2 auto dispatch picks the oracle (S*n = 6 > k+1+n = 5),
    # and --show-terms keeps the minor expansion, the only engine with terms.
    code, out = run_main(monkeypatch, capsys, ["det", "--show-terms"], N2_K2_INSTANCE)
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "CAUCHY_BINET" and len(rep["subset_terms"]) == 3
    code, out = run_main(monkeypatch, capsys, ["det"], N2_K2_INSTANCE)
    assert code == 0
    assert json.loads(out) == {"domain": "rational", "value": "-1", "method": "ORACLE"}

    args = ["ffprob", "--p", "101", "--n", "3", "--k", "2", "--trials", "50", "--seed", "3"]
    code, out = run_main(monkeypatch, capsys, args + ["--csv"])
    assert code == 0 and out.startswith("101,3,2,50,3,")
    code, out = run_main(monkeypatch, capsys, args)
    assert code == 0 and json.loads(out)["trials"] == 50


def test_verify_budget_skips_cauchy_binet_routes(monkeypatch, capsys):
    # n = 2, k = 2, dense support: S = 3 subsets; at the budget both routes run
    monkeypatch.setattr(det, "CB_VERIFY_BUDGET", 3)
    code, full = run_main(monkeypatch, capsys, ["verify"], N2_K2_INSTANCE)
    assert code == 0 and "SKIPPED" not in full
    assert "CAUCHY_BINET_DIRECT == CAUCHY_BINET_H_ROUTE: PASS" in full

    monkeypatch.setattr(det, "CB_VERIFY_BUDGET", 2)
    code, out = run_main(monkeypatch, capsys, ["verify", "--expect", "7"], N2_K2_INSTANCE)
    assert code == 1
    assert out.splitlines()[:3] == [
        "CAUCHY_BINET_DIRECT   SKIPPED (3 subsets > 2)",
        "CAUCHY_BINET_H_ROUTE  SKIPPED (3 subsets > 2)",
        "ORACLE                -1",
    ]
    assert "CAUCHY_BINET_DIRECT ==" not in out and "== CAUCHY_BINET" not in out
    assert "  ORACLE == EXPECTED: FAIL (-1 != 7)" in out


def test_det_budget_refuses_cauchy_binet_expansion(monkeypatch, capsys):
    # N2_K2_INSTANCE has 3 support subsets: at a budget of 3 the output is the
    # unlimited one, at 2 every forced or --show-terms expansion exits 3
    commands = (
        ["det", "--method", "cb-direct"],
        ["det", "--method", "cb-h", "--show-terms"],
        ["det", "--show-terms"],
    )
    unlimited = [run_main_full(monkeypatch, capsys, args, N2_K2_INSTANCE) for args in commands]
    assert all(code == 0 for code, _, _ in unlimited)
    monkeypatch.setattr(det, "CB_VERIFY_BUDGET", 3)
    assert [run_main_full(monkeypatch, capsys, args, N2_K2_INSTANCE) for args in commands] == unlimited
    monkeypatch.setattr(det, "CB_VERIFY_BUDGET", 2)
    for args in commands:
        code, out, err = run_main_full(monkeypatch, capsys, args, N2_K2_INSTANCE)
        assert (code, out) == (3, ""), args
        assert err == "error: Cauchy-Binet expansion over 3 support subsets > limit 2\n"
    # auto det without --show-terms dispatches to no expansion, so no limit applies
    assert run_main(monkeypatch, capsys, ["det"], N2_K2_INSTANCE)[0] == 0


@pytest.mark.parametrize(
    "domain, a, b",
    [("fp:101", ["2", "3"], ["5", "7"]), ("rational", ["1/2", "3"], ["-2", "5/3"])],
    ids=["fp", "q"],
)
def test_cauchy_binet_terms_are_built_only_on_read(monkeypatch, capsys, domain, a, b):
    # support {0, 2, 5} at n = 2: S = 3 subsets, S*n = 6 <= k+1+n = 8, so
    # auto dispatch expands; each term scalar is one domain.ratio call
    text = json.dumps(
        {
            "domain": domain,
            "poly": {"kind": "homogeneous", "degree": 5, "coeffs": ["1", "0", "2", "0", "0", "3"]},
            "a": a,
            "b": b,
        }
    )
    calls = []
    for cls in (PrimeField, RationalDomain):
        def ratio(self, num, den=1, _ratio=cls.ratio):
            calls.append(num)
            return _ratio(self, num, den)

        monkeypatch.setattr(cls, "ratio", ratio)

    inst = load_instance(text)
    report = det_structured(inst.poly, inst.pts)
    assert report.method == CAUCHY_BINET and len(calls) == 1  # the value
    terms = report.subset_terms
    assert len(calls) == 4 and report.subset_terms is terms
    assert sum(t for _, t in terms) == report.value

    calls.clear()
    code, out = run_main(monkeypatch, capsys, ["det"], text)
    assert code == 0 and json.loads(out)["method"] == CAUCHY_BINET and len(calls) == 1
    calls.clear()
    code, out = run_main(monkeypatch, capsys, ["verify"], text)
    assert code == 0 and "CAUCHY_BINET_DIRECT == CAUCHY_BINET_H_ROUTE: PASS" in out
    assert len(calls) == 3  # one value per Cauchy-Binet route and the oracle's
    calls.clear()
    code, out = run_main(monkeypatch, capsys, ["det", "--show-terms"], text)
    assert code == 0 and len(json.loads(out)["subset_terms"]) == 3 and len(calls) == 4


def test_verify_large_cauchy_binet_skipped():
    rng = random.Random(17)
    p = 2**31 - 1
    inst = json.dumps(
        {
            "domain": f"fp:{p}",
            "poly": {"kind": "homogeneous", "degree": 20, "coeffs": [str(rng.randrange(1, p)) for _ in range(21)]},
            "a": [str(rng.randrange(p)) for _ in range(10)],
            "b": [str(rng.randrange(p)) for _ in range(10)],
        }
    )
    # 352,716 subsets per route: minutes without the budget
    proc = subprocess.run(
        [sys.executable, "-m", "evalmat", "verify"],
        input=inst,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"CAUCHY_BINET_DIRECT   SKIPPED (352716 subsets > {det.CB_VERIFY_BUDGET})" in lines
    assert f"CAUCHY_BINET_H_ROUTE  SKIPPED (352716 subsets > {det.CB_VERIFY_BUDGET})" in lines


def test_verify_says_when_nothing_was_compared(monkeypatch, capsys):
    # n = 10, k = 20 over F_p: both Cauchy-Binet routes are over the budget,
    # so the oracle is the only engine and no pair is checked
    rng = random.Random(23)
    p = 2**31 - 1
    inst = json.dumps(
        {
            "domain": f"fp:{p}",
            "poly": {"kind": "homogeneous", "degree": 20, "coeffs": [str(rng.randrange(1, p)) for _ in range(21)]},
            "a": [str(rng.randrange(p)) for _ in range(10)],
            "b": [str(rng.randrange(p)) for _ in range(10)],
        }
    )
    code, out = run_main(monkeypatch, capsys, ["verify"], inst)
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "CAUCHY_BINET_DIRECT",
        "CAUCHY_BINET_H_ROUTE",
        "ORACLE",
    ]
    assert lines[3:] == [
        "  nothing compared: ORACLE is the only engine run",
        "verification: PASS",
    ]


def test_verify_transcript_every_pair_in_order(monkeypatch, capsys):
    # n = k+1: four engines and a wrong --expect give five rows and C(5,2) = 10
    # pair lines, each row against every later one
    code, out, err = run_main_full(monkeypatch, capsys, ["verify", "--expect", "7"], BORDERLINE_INSTANCE)
    assert (code, err) == (1, "")
    assert out == (
        "BORDERLINE            -8\n"
        "CAUCHY_BINET_DIRECT   -8\n"
        "CAUCHY_BINET_H_ROUTE  -8\n"
        "ORACLE                -8\n"
        "EXPECTED              7\n"
        "  BORDERLINE == CAUCHY_BINET_DIRECT: PASS\n"
        "  BORDERLINE == CAUCHY_BINET_H_ROUTE: PASS\n"
        "  BORDERLINE == ORACLE: PASS\n"
        "  BORDERLINE == EXPECTED: FAIL (-8 != 7)\n"
        "  CAUCHY_BINET_DIRECT == CAUCHY_BINET_H_ROUTE: PASS\n"
        "  CAUCHY_BINET_DIRECT == ORACLE: PASS\n"
        "  CAUCHY_BINET_DIRECT == EXPECTED: FAIL (-8 != 7)\n"
        "  CAUCHY_BINET_H_ROUTE == ORACLE: PASS\n"
        "  CAUCHY_BINET_H_ROUTE == EXPECTED: FAIL (-8 != 7)\n"
        "  ORACLE == EXPECTED: FAIL (-8 != 7)\n"
        "verification: FAIL\n"
    )


def test_verify_transcript_skipped_rows_not_compared(monkeypatch, capsys):
    # n = 2, k = 3, dense support: S = C(4,2) = 6 subsets, one over the budget
    inst = json.dumps(
        {
            "domain": "fp:101",
            "poly": {"kind": "homogeneous", "degree": 3, "coeffs": ["1", "2", "3", "4"]},
            "a": ["1", "5"],
            "b": ["2", "7"],
        }
    )
    monkeypatch.setattr(det, "CB_VERIFY_BUDGET", 5)
    assert run_main_full(monkeypatch, capsys, ["verify", "--expect", "2"], inst) == (
        0,
        "CAUCHY_BINET_DIRECT   SKIPPED (6 subsets > 5)\n"
        "CAUCHY_BINET_H_ROUTE  SKIPPED (6 subsets > 5)\n"
        "ORACLE                2\n"
        "EXPECTED              2\n"
        "  ORACLE == EXPECTED: PASS\n"
        "verification: PASS\n",
        "",
    )


def test_verify_transcript_linear_change_groups(monkeypatch, capsys):
    # f = 1 + t^2 at n = 3 with (x, y) -> (2x, 3y): the engines and --expect
    # form one group, the equivariance law a second, each with its own pairs
    inst = json.dumps(
        {
            "domain": "rational",
            "poly": {"kind": "sum_form", "coeffs": ["1", "0", "1"]},
            "a": ["0", "1", "3"],
            "b": ["0", "2", "5"],
            "linear_change": ["2", "0", "1", "3"],
        }
    )
    assert run_main_full(monkeypatch, capsys, ["verify", "--expect", "-60"], inst) == (
        1,
        "SUM_FORM               -360\n"
        "ORACLE                 -360\n"
        "EXPECTED               -60\n"
        "  SUM_FORM == ORACLE: PASS\n"
        "  SUM_FORM == EXPECTED: FAIL (-360 != -60)\n"
        "  ORACLE == EXPECTED: FAIL (-360 != -60)\n"
        "EQUIVARIANT_PREDICTED  -262440\n"
        "TRANSFORMED_ORACLE     -262440\n"
        "  EQUIVARIANT_PREDICTED == TRANSFORMED_ORACLE: PASS\n"
        "verification: FAIL\n",
        "",
    )


def test_main_runs_handler_replaced_on_module(monkeypatch, capsys):
    # the shared parser must not pin the handlers it saw when it was built:
    # tracers and tests replace cmd_* on the module
    run_main(monkeypatch, capsys, ["det"], N2_K2_INSTANCE)
    monkeypatch.setattr(cli, "cmd_det", lambda args: 7)
    assert main(["det"]) == 7


SQUARE = {"kind": "sum_form", "coeffs": ["0", "0", "1"]}


@pytest.mark.parametrize(
    "poly, points, change, exit_code, message",
    [
        (
            {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]},
            ["0", "1", "2"],
            ["1", "0", "1", "1"],
            2,
            "linear_change applies to sum_form polynomials only",
        ),
        (SQUARE, ["0", "1", "2"], ["1", "2", "2", "4"], 2, "change of variables has det B = 0"),
        (SQUARE, ["0", "1"], ["1", "0", "1", "1"], 3, "sum form needs n = deg f + 1, got n=2, deg=2"),
    ],
    ids=["homogeneous", "singular", "size"],
)
def test_verify_checks_linear_change_before_any_engine(
    monkeypatch, capsys, poly, points, change, exit_code, message
):
    import evalmat.det as det_mod

    def no_engine(*args):
        raise AssertionError("an engine ran")

    # the oracle runs in every verify, directly and through det_structured
    monkeypatch.setattr(cli, "oracle_det", no_engine)
    monkeypatch.setattr(det_mod, "oracle_det", no_engine)
    inst = {"domain": "rational", "poly": poly, "a": points, "b": points, "linear_change": change}
    code, out, err = run_main_full(monkeypatch, capsys, ["verify"], json.dumps(inst))
    assert (code, out) == (exit_code, "")
    assert err == f"error: {message}\n"


def test_zero_sum_form_exit_3(monkeypatch, capsys):
    # the zero polynomial has no degree, so no n is deg f + 1: the commands that
    # need that regime exit 3, as a nonzero sum form at the wrong n does
    zero = {"domain": "rational", "poly": {"kind": "sum_form", "coeffs": ["0", "0"]}, "a": ["1"], "b": ["2"]}
    changed = dict(zero, linear_change=["1", "0", "1", "1"])
    failed = (3, "", "error: zero polynomial has no leading coefficient\n")
    assert run_main_full(monkeypatch, capsys, ["det", "--method", "sum-form"], json.dumps(zero)) == failed
    assert run_main_full(monkeypatch, capsys, ["verify"], json.dumps(changed)) == failed
    code, out, err = run_main_full(monkeypatch, capsys, ["det"], json.dumps(zero))
    assert (code, json.loads(out), err) == (0, {"domain": "rational", "value": "0", "method": "VANISH_RANK"}, "")
    code, out, err = run_main_full(monkeypatch, capsys, ["verify"], json.dumps(zero))
    assert (code, out.splitlines()[-1], err) == (0, "verification: PASS", "")


INSTANCE = {
    "domain": "rational",
    "poly": {"kind": "homogeneous", "degree": 1, "coeffs": ["1", "2"]},
    "a": ["1", "2"],
    "b": ["3", "4"],
}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("poly", "degree"), 1.0, "field 'poly': degree must be an integer, got 1.0"),
        (("poly", "degree"), True, "field 'poly': degree must be an integer, got True"),
        (("poly",), [1, 2], "field 'poly': must be a JSON object, got list"),
        (("poly",), "x", "field 'poly': must be a JSON object, got str"),
        (("domain",), 5, "field 'domain': must be a string, got int"),
        (("a",), "12", "field 'a'/'b': 'a' must be a JSON array, got str"),
        (("poly", "coeffs"), "12", "field 'poly': 'coeffs' must be a JSON array, got str"),
        (("linear_change",), "1234", "field 'linear_change': 'linear_change' must be a JSON array, got str"),
    ],
    ids=["degree-float", "degree-bool", "poly-list", "poly-str", "domain-int", "a-str", "coeffs-str", "change-str"],
)
def test_wrongly_typed_field_exit_2(monkeypatch, capsys, path, value, message):
    # a wrong JSON type must not reach an engine (a traceback, exit 1) or be read digit by digit
    inst = json.loads(json.dumps(INSTANCE))
    target = inst
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    for command in ("det", "verify", "matrix"):
        code, out, err = run_main_full(monkeypatch, capsys, [command], json.dumps(inst))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "instance must be a JSON object"),
        (
            json.dumps(dict(INSTANCE, linear_change=["1", "0", "1"])),
            "field 'linear_change': need exactly four scalars (alpha, beta, gamma, delta)",
        ),
    ],
    ids=["instance-list", "change-three"],
)
def test_wrongly_shaped_instance_exit_2(monkeypatch, capsys, text, message):
    code, out, err = run_main_full(monkeypatch, capsys, ["det"], text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "path, message",
    [
        (("domain",), "field 'domain': missing"),
        (("poly",), "field 'poly': missing"),
        (("a",), "field 'a': missing"),
        (("b",), "field 'b': missing"),
        (("poly", "coeffs"), "field 'poly': missing 'coeffs'"),
        (("poly", "degree"), "field 'poly': missing 'degree'"),
    ],
    ids=["domain", "poly", "a", "b", "coeffs", "degree"],
)
def test_missing_field_named_once_exit_2(monkeypatch, capsys, path, message):
    # was `field 'domain': field 'domain': missing`, and `field 'poly': 'coeffs'`
    inst = json.loads(json.dumps(INSTANCE))
    target = inst
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    for command in ("det", "verify", "matrix"):
        code, out, err = run_main_full(monkeypatch, capsys, [command], json.dumps(inst))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("error", [ZeroDivisionError, DomainMismatchError])
def test_engine_defect_is_not_an_input_error(monkeypatch, capsys, error):
    # every scalar is parsed into the instance's one domain, so only a defect
    # raises these past the input edge: it surfaces, not as exit 2
    def broken(*args):
        raise error("defect")

    monkeypatch.setattr(cli, "det_structured", broken)
    with pytest.raises(error, match="defect"):
        run_main(monkeypatch, capsys, ["det"], json.dumps(INSTANCE))


def test_bench_trials_below_one_exit_2(monkeypatch, capsys):
    import evalmat.bench as bench_mod

    def no_run(*args):
        raise AssertionError("bench ran")

    monkeypatch.setattr(bench_mod, "run_bench", no_run)
    for trials in ("0", "-2"):
        args = ["bench", "--sizes", "3", "--trials", trials, "--seed", "1"]
        code, out, err = run_main_full(monkeypatch, capsys, args)
        assert (code, out) == (2, "")
        assert err == f"error: bench --trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("poly", [INSTANCE["poly"], SQUARE], ids=["homogeneous", "sum_form"])
def test_no_points_exit_3_in_every_command(monkeypatch, capsys, poly):
    inst = json.dumps({"domain": "rational", "poly": poly, "a": [], "b": []})
    for args in (["det"], ["det", "--method", "oracle"], ["verify"], ["matrix"]):
        code, out, err = run_main_full(monkeypatch, capsys, args, inst)
        assert (code, out, err) == (3, "", "error: need at least one evaluation point\n"), args


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("a",), ["1", 2], "field 'a'/'b': 'a'[1]: ... got int"),
        (("b",), [3.5, "4"], "field 'a'/'b': 'b'[0]: ... got float"),
        (("poly", "coeffs"), ["1", True], "field 'poly': 'coeffs'[1]: ... got bool"),
        (("linear_change",), ["1", "0", ["1"], "1"], "field 'linear_change': 'linear_change'[2]: ... got list"),
    ],
    ids=["int", "float", "bool", "nested-list"],
)
def test_scalar_as_json_number_exit_2(monkeypatch, capsys, path, value, where):
    # was `object of type 'int' has no len()`, which does not say what a scalar is
    inst = json.loads(json.dumps(INSTANCE))
    target = inst
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    message = where.replace("...", 'scalars are decimal strings such as "3" or "-2/5",')
    for command in ("det", "verify", "matrix"):
        code, out, err = run_main_full(monkeypatch, capsys, [command], json.dumps(inst))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text", ["1/0", "9" * 700 + "/0", "7" * 5000 + "/0"], ids=["short", "long", "past-limit"]
)
def test_zero_denominator_names_field_exit_2(monkeypatch, capsys, text):
    # was `error: Fraction(1, 0)`, naming neither the field nor --expect
    coeffs = dict(INSTANCE["poly"], coeffs=["1", text])
    change = ["1", text, "0", "1"]
    cases = [
        (dict(INSTANCE, a=[text, "2"]), "field 'a'/'b'"),
        (dict(INSTANCE, b=["3", text]), "field 'a'/'b'"),
        (dict(INSTANCE, poly=coeffs), "field 'poly'"),
        (dict(INSTANCE, poly=SQUARE, linear_change=change), "field 'linear_change'"),
    ]
    message = f"zero denominator in {text!r}"
    for inst, where in cases:
        for command in ("det", "verify", "matrix"):
            code, out, err = run_main_full(monkeypatch, capsys, [command], json.dumps(inst))
            assert (code, out, err) == (2, "", f"error: {where}: {message}\n"), (where, command)
    args = ["verify", "--expect", text]
    code, out, err = run_main_full(monkeypatch, capsys, args, json.dumps(INSTANCE))
    assert (code, out, err) == (2, "", f"error: --expect: {message}\n")


def test_bench_more_sizes_than_field_elements_exit_2(monkeypatch, capsys):
    args = ["bench", "--sizes", "5", "--domain", "fp:3", "--seed", "1"]
    code, out, err = run_main_full(monkeypatch, capsys, args)
    assert (code, out, err) == (2, "", "error: cannot pick 5 distinct points in F_3\n")


def test_malformed_expect_names_expect(monkeypatch, capsys):
    args = ["verify", "--expect", "x"]
    code, out, err = run_main_full(monkeypatch, capsys, args, json.dumps(INSTANCE))
    assert (code, out, err) == (2, "", "error: --expect: Invalid literal for Fraction: 'x'\n")


@pytest.mark.parametrize(
    "args,option",
    [
        (["ffprob", "--p", "7", "--n", "2", "--k", "1", "--coeffs", "1,x", "--trials", "5"], "--coeffs"),
        (["bench", "--sizes", "2,x"], "--sizes"),
        (["bench", "--sizes", "2", "--domain", "fp:x"], "--domain"),
    ],
    ids=["coeffs", "sizes", "domain"],
)
def test_malformed_integer_option_names_option(monkeypatch, capsys, args, option):
    # was only `error: invalid literal for int() with base 10: 'x'`
    code, out, err = run_main_full(monkeypatch, capsys, args)
    message = "invalid literal for int() with base 10: 'x'"
    assert (code, out, err) == (2, "", f"error: {option}: {message}\n")


def test_in_file_and_dash_read_as_stdin(monkeypatch, capsys, tmp_path):
    # det --in FILE prints the bytes that det on stdin prints, and --in -
    # reads stdin
    path = tmp_path / "inst.json"
    path.write_text(BORDERLINE_INSTANCE, encoding="utf-8")
    expected = run_main_full(monkeypatch, capsys, ["det"], BORDERLINE_INSTANCE)
    assert expected[0] == 0 and json.loads(expected[1])["value"] == "-8"
    assert run_main_full(monkeypatch, capsys, ["det", "--in", str(path)]) == expected
    assert run_main_full(monkeypatch, capsys, ["det", "--in", "-"], BORDERLINE_INSTANCE) == expected


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_in_file_exit_2(monkeypatch, capsys, tmp_path, kind):
    # README's exit 2 for an unreadable --in file; the text after "error: "
    # is Python's own, so only its start is pinned
    path = tmp_path / "inst.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(BORDERLINE_INSTANCE.encode("utf-16"))
    for command in ("det", "verify", "matrix"):
        code, out, err = run_main_full(monkeypatch, capsys, [command, "--in", str(path)], BORDERLINE_INSTANCE)
        assert (code, out) == (2, ""), (kind, command)
        assert err.startswith("error: ") and err.count("\n") == 1, (kind, command, err)


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a scratch file's, so that main() may point it
    at devnull."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["det", "verify", "matrix"])
def test_closed_stdout_is_no_input_error(monkeypatch, capsys, tmp_path, command):
    # a reader that has gone (`evalmat det ... | head -1`) is no input
    # error: main() returns 128 + SIGPIPE without a word, and the rest of
    # the output goes to devnull
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdin", io.StringIO(BORDERLINE_INSTANCE))
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main([command])
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (141, "")
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_closed_stdout_pipe_exits_quietly():
    # the same through a real pipe whose reader closed before any write:
    # no traceback, also none from the interpreter's own flush at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "evalmat", "det", "--show-terms"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(BORDERLINE_INSTANCE.encode(), timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_ffprob_empty_coeffs_exit_2(monkeypatch, capsys):
    # an explicitly empty --coeffs ran the all-ones polynomial and exited 0
    args = ["ffprob", "--p", "7", "--n", "2", "--k", "1", "--coeffs", "", "--trials", "5", "--seed", "1"]
    code, out, err = run_main_full(monkeypatch, capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith("error: --coeffs: ")


def _instance(poly, n):
    a, b = [str(i) for i in range(n)], [str(i + 1) for i in range(n)]
    return json.dumps({"domain": "rational", "poly": poly, "a": a, "b": b})


QUADRATIC = {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "2", "1"]}
ENGINE_INSTANCES = {  # the first of det.engines at each
    "quadratic n=1": _instance(QUADRATIC, 1),  # DIRECT
    "quadratic n=2": _instance(QUADRATIC, 2),  # ORACLE, then DIRECT and H_ROUTE
    "quadratic n=3": _instance(QUADRATIC, 3),  # BORDERLINE
    "square n=2": _instance(SQUARE, 2),  # ORACLE alone
    "square n=3": _instance(SQUARE, 3),  # SUM_FORM
}
CB = "det_cauchy_binet"
ENGINE_CALLS = [
    (["det"], "quadratic n=1", [CB]),
    (["det"], "quadratic n=2", ["oracle_det"]),
    (["det"], "quadratic n=3", ["det_borderline"]),
    (["det"], "square n=3", ["det_sum_form"]),
    (["det", "--method", "oracle"], "quadratic n=3", ["oracle_det"]),
    (["det", "--method", "borderline"], "quadratic n=3", ["det_borderline"]),
    (["det", "--method", "sum-form"], "square n=3", ["det_sum_form"]),
    (["det", "--method", "cb-direct"], "quadratic n=2", [CB]),
    (["det", "--method", "cb-h"], "quadratic n=2", [CB]),
    (["det", "--show-terms"], "quadratic n=2", [CB]),
    (["det", "--show-terms"], "quadratic n=3", ["det_borderline"]),
    (["det", "--show-terms"], "square n=2", ["oracle_det"]),
    (["det", "--show-terms"], "square n=3", ["det_sum_form"]),
    (["verify"], "quadratic n=2", [CB, CB, "oracle_det"]),
    (["verify"], "quadratic n=3", ["det_borderline", CB, CB, "oracle_det"]),
    (["verify"], "square n=2", ["oracle_det"]),
    (["verify"], "square n=3", ["det_sum_form", "oracle_det"]),
]


@pytest.mark.parametrize(
    "args, instance, called", ENGINE_CALLS, ids=[f"{' '.join(a)} {i}" for a, i, _ in ENGINE_CALLS]
)
def test_engines_are_looked_up_on_det_at_call_time(monkeypatch, capsys, args, instance, called):
    # a tracer or a test replaces an engine on evalmat.det by name, and every
    # command must then run the replacement, in the order det.engines gives
    import evalmat.det as det_mod

    calls = []

    def spy(name, engine):
        def spied(*a):
            calls.append(name)
            return engine(*a)

        return spied

    for name in ("oracle_det", "det_borderline", "det_sum_form", CB):
        monkeypatch.setattr(det_mod, name, spy(name, getattr(det_mod, name)))
    code, out, err = run_main_full(monkeypatch, capsys, args, ENGINE_INSTANCES[instance])
    assert (code, err) == (0, "")
    assert calls == called
