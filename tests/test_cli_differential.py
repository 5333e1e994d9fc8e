"""Differential harness for `evalmat det --method`.

Each homogeneous or sum-form instance with 1 <= n <= k+2 <= 8 (k the formal
degree: the coefficient count less one) is written as instance JSON and run
through `main(["det", "--method", m])` in this process for all six methods.
A method that applies prints the oracle's value, which for n <= 5 is also
held to a Leibniz expansion of entries evaluated here; a method for the
other polynomial kind exits 2 and one outside its size regime exits 3.
Zeroed coefficients give sum forms of every lower degree, the zero
polynomial included.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat.cli import main
from evalmat.det import oracle_det
from evalmat.matrix import PointVectors
from evalmat.poly import HomogeneousPoly, UnivariatePoly
from evalmat.scalar import RATIONAL, PrimeField, format_scalar

from oracles import leibniz_det
from test_cb_differential import scalars

METHODS = ("auto", "oracle", "borderline", "cb-direct", "cb-h", "sum-form")


def run_det(method, text):
    """main(["det", "--method", method]) on text as stdin: (exit code, stdout)."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["det", "--method", method])
    return code, out.getvalue()


def expected_exit(method, sum_form, n, k, degree):
    """The exit code README gives: 2 for the wrong kind, 3 outside the regime."""
    if method in ("auto", "oracle"):
        return 0
    if (method == "sum-form") != sum_form:
        return 2
    if method == "sum-form":
        return 0 if n == degree + 1 else 3
    if method == "borderline":
        return 0 if n == k + 1 else 3
    return 0 if n <= k + 1 else 3


def entry(coeffs, sum_form, x, y):
    if sum_form:
        return sum((c * (x + y) ** i for i, c in enumerate(coeffs)), 0 * x)
    k = len(coeffs) - 1
    return sum((c * x ** (k - i) * y**i for i, c in enumerate(coeffs)), 0 * x)


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from([None, None, PrimeField(2), PrimeField(3), PrimeField(101)]),
    st.booleans(),
    st.data(),
)
def test_every_det_method_prints_the_oracle_value_or_its_exit_code(field, sum_form, data):
    k = data.draw(st.integers(0, 6), label="k")
    n = data.draw(st.integers(1, k + 2), label="n")
    coeffs = data.draw(st.lists(scalars(field, low=1), min_size=k + 1, max_size=k + 1), label="coeffs")
    for i in data.draw(st.sets(st.integers(0, k)), label="zero coefficients"):
        coeffs[i] = 0
    a = data.draw(st.lists(scalars(field), min_size=n, max_size=n), label="a")
    b = data.draw(st.lists(scalars(field), min_size=n, max_size=n), label="b")
    domain = RATIONAL if field is None else field
    poly = {"kind": "sum_form"} if sum_form else {"kind": "homogeneous", "degree": k}
    poly["coeffs"] = [format_scalar(c) for c in coeffs]
    inst = {"domain": domain.name, "poly": poly}
    inst.update(a=[format_scalar(x) for x in a], b=[format_scalar(x) for x in b])
    p = UnivariatePoly(coeffs, domain) if sum_form else HomogeneousPoly(k, coeffs, domain)
    value = oracle_det(p, PointVectors(a, b, domain)).value
    if n <= 5:
        assert leibniz_det([[entry(coeffs, sum_form, x, y) for y in b] for x in a]) == value
    degree = max((i for i, c in enumerate(coeffs) if c), default=-1)

    for method in METHODS:
        code, out = run_det(method, json.dumps(inst))
        assert code == expected_exit(method, sum_form, n, k, degree), method
        if code == 0:
            assert json.loads(out)["value"] == format_scalar(value), method
        else:
            assert out == "", method
