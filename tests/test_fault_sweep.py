"""verify's fault table: which kernel faults each check catches.

Each row replaces one kernel function by a consistently wrong twin
(monkeypatched on ``evalmat.kernel``, so the kernel's own calls take it
too), or one domain's ``lift`` (on its class in ``evalmat.scalar``), and
each column runs ``main(["verify"])`` in this process on one instance. A
cell reads

- ``FAIL``: exit 1, the fault was caught;
- ``PASS*``: exit 0 with changed output, a wrong value that verify passed;
- ``-``: the output did not change, the fault is off that instance's path;
- an exception's name: main() raised it.

The committed table below must match cell for cell, in either direction: a
FAIL that turns PASS* is a lost check, and a PASS* that turns FAIL without
an update leaves the table untrue. The PASS* cells are the regimes where
verify compares nothing independent: a homogeneous n <= k past the
Cauchy-Binet budget (h3b, h16b, q5b), and sum forms at n <= deg f (s3, s16).
A lift fault is PASS* at S3 too: the sum-form closed form and the oracle
both read a_0 through the one lift, so they agree on the same wrong value.

Columns ending in 3 are over F_101, a = (1, 2, 4), b = (3, 5, 9):
  H3   homogeneous (1, 2, 3), k = 2;
  h3   homogeneous (1, ..., 5), k = 4, the one column whose Cauchy-Binet
       minors come from kernel.minors (m = 5 coefficients, n = 3);
  h3b  the same with CB_VERIFY_BUDGET patched to 5 < S = 10;
  S3   the sum form 1 + 2t + 3t^2;
  s3   the sum form 1 + 2t + ... + 5t^4.
Columns ending in 16 are over F_p, p = 2^31 - 1, with a_i = 3i^2 + 7 and
b_i = 5i^2 + 11i + 2 for i < 16 and coefficients 1, 2, ...:
  H16  homogeneous, k = 15;
  h16b homogeneous, k = 20, S = C(21, 16) = 20,349 past the budget;
  S16  the sum form of degree 15;
  s16  the sum form of degree 20.
Columns over Q take the same integer points and coefficients:
  q24  homogeneous, n = k + 1 = 24, the CRT route: n^3 * bit_length(2H)
       = 8.3e7 is 1.5 times kernel.MULTIMODULAR_MIN_SIZE. Its value has
       over 640 digits (CPython's lowest int/str digit limit);
  q5b  homogeneous, n = 5, k = 6, S = C(7, 5) = 21 past a budget patched
       to 20: only the oracle runs.
"""

import io
import json
import sys

from evalmat import cli, det, kernel, scalar
from evalmat.cli import main

TABLE = """
fault               | H3   | h3   | h3b   | S3    | s3    | H16           | h16b          | S16           | s16   | q24           | q5b
powers              | FAIL | FAIL | PASS* | -     | -     | FAIL          | PASS*         | FAIL          | -     | FAIL          | PASS*
product             | FAIL | FAIL | PASS* | -     | -     | -             | -             | -             | -     | FAIL          | PASS*
product_det         | FAIL | FAIL | PASS* | -     | -     | FAIL          | PASS*         | -             | -     | FAIL          | PASS*
sum_form            | -    | -    | -     | FAIL  | PASS* | -             | -             | -             | PASS* | -             | -
sum_form_det        | -    | -    | -     | FAIL  | PASS* | -             | -             | FAIL          | PASS* | -             | -
vandermonde         | FAIL | FAIL | -     | FAIL  | -     | FAIL          | -             | FAIL          | -     | FAIL          | -
h_table             | -    | FAIL | -     | -     | -     | -             | -             | -             | -     | -             | -
det                 | FAIL | FAIL | PASS* | FAIL  | PASS* | FAIL          | -             | -             | PASS* | FAIL          | PASS*
minors              | -    | FAIL | -     | -     | -     | -             | -             | -             | -     | -             | -
_eliminate          | -    | -    | -     | -     | -     | FAIL          | PASS*         | FAIL          | PASS* | FAIL          | -
det_multimodular    | -    | -    | -     | -     | -     | -             | -             | -             | -     | FAIL          | -
_slot_bytes         | -    | -    | -     | -     | -     | FAIL          | PASS*         | FAIL          | PASS* | FAIL          | -
_reduce_slots       | -    | -    | -     | -     | -     | FAIL          | PASS*         | FAIL          | PASS* | FAIL          | -
PrimeField.lift     | FAIL | FAIL | PASS* | PASS* | PASS* | FAIL          | PASS*         | FAIL          | PASS* | -             | -
RationalDomain.lift | -    | -    | -     | -     | -     | -             | -             | -             | -     | FAIL          | PASS*
_pack_rows          | -    | -    | -     | -     | -     | FAIL          | PASS*         | FAIL          | PASS* | FAIL          | -
"""


def _reduced(x, mod):
    return x if mod is None else x % mod


def _row0_plus_1(rows, mod):
    return [[_reduced(x + 1, mod) for x in rows[0]]] + rows[1:]


def _target(name):
    """The owner and attribute a fault replaces: kernel.<name>, or the
    method of a scalar class for "<class>.<method>"."""
    owner, _, attr = name.rpartition(".")
    return (getattr(scalar, owner) if owner else kernel), attr


def _wrapped(name, twin):
    """The attribute name replaced by twin(original, *args)."""
    original = getattr(*_target(name))
    return name, lambda *args: twin(original, *args)


def _powers(orig, xs, ds, k, mod=None):
    # column 1 doubled
    return [row[:1] + [_reduced(2 * x, mod) for x in row[1:2]] + row[2:] for row in orig(xs, ds, k, mod)]


def _h_table(orig, xs, m, mod=None):
    # H_1 plus 1
    h = orig(xs, m, mod)
    return h[:1] + [_reduced(x + 1, mod) for x in h[1:2]] + h[2:]


def _eliminate(orig, live, cols, size, mod):
    # d doubled
    rank, d = orig(live, cols, size, mod)
    return rank, 2 * d % mod


def _reduce_slots(orig, count, size, mod):
    # slot 0 of every reduced int off by one mod p
    reduce, low = orig(count, size, mod), (1 << 8 * size) - 1

    def off_by_one(x):
        x = reduce(x)
        return x + 1 if x & low < mod - 1 else x - (mod - 1)

    return off_by_one


def _lift(orig, dom, xs):
    # the first integer doubled
    nums, den = orig(dom, xs)
    return [_reduced(2 * x, dom.modulus) for x in nums[:1]] + nums[1:], den


def _pack_rows(orig, rows, size, mod):
    # slot 0 of the first packed row plus 1
    packed = orig(rows, size, mod)
    return [x + 1 for x in packed[:1]] + packed[1:]


def _minors(orig, tables, n, mod=None):
    # every minor of every table doubled
    return [[_reduced(2 * x, mod) for x in minors] for minors in orig(tables, n, mod)]


FAULTS = dict(
    [
        _wrapped("powers", _powers),
        _wrapped("product", lambda orig, v, c, w, mod=None: _row0_plus_1(orig(v, c, w, mod), mod)),
        _wrapped("product_det", lambda orig, v, c, w, mod=None: _reduced(2 * orig(v, c, w, mod), mod)),
        _wrapped("sum_form", lambda orig, c, xs, ys, mod=None: _row0_plus_1(orig(c, xs, ys, mod), mod)),
        _wrapped("sum_form_det", lambda orig, c, xs, ys, mod=None: _reduced(2 * orig(c, xs, ys, mod), mod)),
        _wrapped("vandermonde", lambda orig, xs, mod=None: _reduced(2 * orig(xs, mod), mod)),
        _wrapped("h_table", _h_table),
        _wrapped("det", lambda orig, a, mod=None: _reduced(2 * orig(a, mod), mod)),
        _wrapped("minors", _minors),
        _wrapped("_eliminate", _eliminate),
        _wrapped("det_multimodular", lambda orig, a, limit=None: orig(a, limit) + 1),
        _wrapped("_slot_bytes", lambda orig, products, mod: orig(products, mod) - 1),
        _wrapped("_reduce_slots", _reduce_slots),
        _wrapped("PrimeField.lift", _lift),
        _wrapped("RationalDomain.lift", _lift),
        _wrapped("_pack_rows", _pack_rows),
    ]
)


def _homogeneous(domain, k, a, b):
    poly = {"kind": "homogeneous", "degree": k, "coeffs": [str(c) for c in range(1, k + 2)]}
    return {"domain": domain, "poly": poly, "a": [str(x) for x in a], "b": [str(x) for x in b]}


def _sum_form(domain, deg, a, b):
    poly = {"kind": "sum_form", "coeffs": [str(c) for c in range(1, deg + 2)]}
    return {"domain": domain, "poly": poly, "a": [str(x) for x in a], "b": [str(x) for x in b]}


F101, A3, B3 = "fp:101", (1, 2, 4), (3, 5, 9)
F31 = f"fp:{2**31 - 1}"
NQ = 24
A = [3 * i * i + 7 for i in range(NQ)]
B = [5 * i * i + 11 * i + 2 for i in range(NQ)]
A16, B16 = A[:16], B[:16]

# column: (instance, CB_VERIFY_BUDGET or None for the default)
COLUMNS = {
    "H3": (_homogeneous(F101, 2, A3, B3), None),
    "h3": (_homogeneous(F101, 4, A3, B3), None),
    "h3b": (_homogeneous(F101, 4, A3, B3), 5),
    "S3": (_sum_form(F101, 2, A3, B3), None),
    "s3": (_sum_form(F101, 4, A3, B3), None),
    "H16": (_homogeneous(F31, 15, A16, B16), None),
    "h16b": (_homogeneous(F31, 20, A16, B16), None),
    "S16": (_sum_form(F31, 15, A16, B16), None),
    "s16": (_sum_form(F31, 20, A16, B16), None),
    "q24": (_homogeneous("rational", NQ - 1, A, B), None),
    "q5b": (_homogeneous("rational", 6, A[:5], B[:5]), 20),
}


def _verify(monkeypatch, capsys, instance, budget):
    with monkeypatch.context() as m:
        if budget is not None:
            m.setattr(det, "CB_VERIFY_BUDGET", budget)
        m.setattr(sys, "stdin", io.StringIO(json.dumps(instance)))
        code = main(["verify"])
    return code, capsys.readouterr().out


def _cell(monkeypatch, capsys, fault, column, clean):
    instance, budget = COLUMNS[column]
    with monkeypatch.context() as m:
        m.setattr(*_target(fault), FAULTS[fault])
        try:
            code, out = _verify(monkeypatch, capsys, instance, budget)
        except OverflowError as e:
            capsys.readouterr()
            return type(e).__name__
    if code == cli.EXIT_MISMATCH:
        return "FAIL"
    assert code == cli.EXIT_OK, (fault, column, code, out)
    return "-" if out == clean[column] else "PASS*"


def _table():
    lines = TABLE.strip().splitlines()
    columns = [c.strip() for c in lines[0].split("|")[1:]]
    rows = {}
    for line in lines[1:]:
        fault, *cells = [c.strip() for c in line.split("|")]
        rows[fault] = dict(zip(columns, cells))
    return columns, rows


def test_fault_sweep_matches_table(monkeypatch, capsys):
    columns, rows = _table()
    assert columns == list(COLUMNS) and list(rows) == list(FAULTS)
    clean = {}
    for column, (instance, budget) in COLUMNS.items():
        code, clean[column] = _verify(monkeypatch, capsys, instance, budget)
        assert code == cli.EXIT_OK and clean[column].endswith("verification: PASS\n"), column
    got = {fault: {c: _cell(monkeypatch, capsys, fault, c, clean) for c in columns} for fault in FAULTS}
    diff = [
        f"{fault} x {c}: table {rows[fault][c]}, now {got[fault][c]}"
        for fault in FAULTS
        for c in columns
        if got[fault][c] != rows[fault][c]
    ]
    assert not diff, "\n".join(diff)
