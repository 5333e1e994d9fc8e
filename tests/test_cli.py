import json
import math
import subprocess
import sys

import pytest

from evalmat.bench import BenchMismatchError
from evalmat.cli import instance_to_json, load_instance
from evalmat.scalar import RATIONAL, PrimeField


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
    """int(text) in pieces below the interpreter's int/str digit limit."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
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
