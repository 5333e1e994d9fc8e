"""Output identity of the CLI, pinned as one digest.

A seeded sweep calls ``cli.main`` in process about 3,700 times and hashes
each call's exit code, stdout and stderr; the sha256 over the per-call
hashes must equal DIGEST. A change that alters any output on purpose
updates DIGEST in the same change and says so in CHANGES.md.

The sweep covers Q, F_2, F_3, F_101 and F_(2^31-1); homogeneous forms and
sum forms, some coefficients zero; n from 1 to k+2, points partly from a
small pool so that some repeat; ``det`` with every ``--method``, with and
without ``--show-terms``; ``matrix``; ``verify`` bare and with a right and
a wrong ``--expect``, with ``linear_change`` and with
``det.CB_VERIFY_BUDGET`` patched low so that Cauchy-Binet routes are
skipped; values past 640 and past 4,300 digits; ``ffprob`` in JSON and CSV
on both sides of each of its size rules; and ``bench`` by its value hashes
only, since its times vary.

The digest is the same on every supported Python and under any
``PYTHONINTMAXSTRDIGITS``: every stderr text is evalmat's own, and no input
makes Python write one (an ``int()`` literal error, say), whose wording
changes between versions.
"""

import hashlib
import io
import json
import sys
from collections import Counter

from evalmat import cli, det

DIGEST = "1bf6cdc69213bb57b7f65a1dd12b7c87f827c3f1c927da994e4d423eccaaa23f"

# what the sweep reaches, so that a generator change that loses a regime
# shows here and not only as a changed digest
COVERAGE = {
    "calls": 3693,
    "exit codes": {0: 2324, 1: 248, 2: 638, 3: 483},
    "SKIPPED rows": 36,
    "equivariance groups": 36,
    "nothing compared": 39,
    "verification: FAIL": 248,
    "subset terms": 199,
    "outputs past 4,300 digits": 25,
    "ffprob runs": {"json": 16, "csv": 16},
}

DOMAINS = ["rational", "fp:2", "fp:3", "fp:101", "fp:2147483647"]
METHODS = ["auto", "oracle", "borderline", "cb-direct", "cb-h", "sum-form"]
P31 = 2**31 - 1
P61 = 2305843009213693967  # the least prime above 2^61: rejects about half of all draws


class _Rng:
    """A 64-bit linear congruential generator: the same draws on every Python."""

    def __init__(self, seed: int):
        self.state = seed

    def below(self, bound: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (self.state >> 16) % bound

    def pick(self, seq):
        return seq[self.below(len(seq))]


def _scalar(rng: _Rng, domain: str, pool=()) -> str:
    if pool and rng.below(3) == 0:
        return rng.pick(pool)
    if domain == "rational":
        num, den = rng.below(41) - 20, rng.pick([1, 1, 1, 2, 3, 7, 9])
        return str(num) if den == 1 else f"{num}/{den}"
    p = int(domain[3:])
    return str(rng.below(p) - rng.pick([0, 0, 0, p]))  # a negative representative at times


def _random_instance(rng: _Rng, domain: str) -> dict:
    degree = rng.below(6)
    coeffs = [_scalar(rng, domain, ["0"]) for _ in range(degree + 1)]
    if rng.below(2):
        poly = {"kind": "homogeneous", "degree": degree, "coeffs": coeffs}
    else:
        poly = {"kind": "sum_form", "coeffs": coeffs}
    n = 1 + rng.below(degree + 2)
    pool = [_scalar(rng, domain) for _ in range(2)]
    inst = {
        "domain": domain,
        "poly": poly,
        "a": [_scalar(rng, domain, pool) for _ in range(n)],
        "b": [_scalar(rng, domain, pool) for _ in range(n)],
    }
    if poly["kind"] == "sum_form" and rng.below(2):
        inst["linear_change"] = [_scalar(rng, domain, ["0", "1"]) for _ in range(4)]
    return inst


def _long_instances() -> list[dict]:
    """Points and coefficients past 640 and past 4,300 digits."""
    d700, d4400 = "3" + "1" * 699, "2" + "7" * 4399
    return [
        {
            "domain": "rational",
            "poly": {"kind": "homogeneous", "degree": 2, "coeffs": ["1", "-2", "5"]},
            "a": [d700, "-" + d700 + "/7", "1"],
            "b": ["2", d4400, "0"],
        },
        {
            "domain": "rational",
            "poly": {"kind": "homogeneous", "degree": 3, "coeffs": ["1", d700, "0", "1"]},
            "a": ["1", "2"],
            "b": ["-" + d4400 + "/9", "3"],
        },
        {
            "domain": "rational",
            "poly": {"kind": "sum_form", "coeffs": ["1", d4400, "3"]},
            "a": ["1", "2", d700 + "/" + d700[::-1]],
            "b": ["0", "-1", "5"],
            "linear_change": ["1", "2", d700, "1"],
        },
        {
            "domain": "fp:101",
            "poly": {"kind": "homogeneous", "degree": 1, "coeffs": [d4400, "-" + d700]},
            "a": [d700, "5"],
            "b": ["7", d4400],
        },
    ]


def _instances() -> list[dict]:
    rng = _Rng(2026)
    out = [_random_instance(rng, DOMAINS[i % len(DOMAINS)]) for i in range(300)]
    return out + _long_instances()


def _wrong(value: str, domain: str) -> str:
    if domain == "rational":
        num, slash, den = value.partition("/")
        return num + "1" + slash + den
    return str((int(value) + 1) % int(domain[3:]))


def _ffprob_calls():
    configs = [
        # (p, n, k, coeffs or None for all ones, trials, seed); n <= 4
        (2, 1, 0, None, 100, 0),
        (2, 2, 3, None, 200, 1),
        (3, 3, 2, "1,2,1", 200, 99),
        (7, 3, 4, "1,2,3,4,5", 200, 1),
        (101, 3, 2, None, 300, 5),
        (101, 4, 3, "5,9,2,7", 300, 2),
        (P31, 4, 6, None, 200, 7),
        (P61, 3, 3, "3,1,4,1", 200, 11),
        # 5 <= n <= 8
        (7, 5, 6, None, 100, 3),
        (101, 6, 8, "1,2,3,4,5,6,7,8,9", 100, 4),
        (101, 8, 7, None, 100, 6),
        (P31, 8, 9, None, 60, 0),
        # past the bits rule, k * bit_length(p) > 1,300, with n <= 8
        (2**61 - 1, 4, 30, None, 60, 8),
        (2**61 - 1, 6, 30, None, 30, 9),
        # past the size rule, n > 8
        (101, 9, 10, None, 60, 10),
        (P31, 10, 12, None, 20, 12),
        # refused configs
        (101, 5, 3, None, 10, 0),
        (91, 2, 2, None, 10, 0),
        (7, 2, 2, "1,7,2", 10, 0),
        (7, 2, 2, "1,2", 10, 0),
    ]
    for i, (p, n, k, coeffs, trials, seed) in enumerate(configs):
        argv = ["ffprob", "--p", str(p), "--n", str(n), "--k", str(k), "--trials", str(trials)]
        if coeffs is not None:
            argv += ["--coeffs", coeffs]
        if i % 7:  # else the CLI reports "seed 0" on stderr
            argv += ["--seed", str(seed)]
        yield argv
        yield argv + ["--csv"]


BENCH_CALLS = [
    ["bench", "--sizes", "1,2,5", "--domain", "fp:101", "--trials", "1", "--seed", "3"],
    ["bench", "--sizes", "3,4", "--domain", "rational", "--trials", "1", "--seed", "4"],
    ["bench", "--sizes", "6", "--trials", "2"],
    ["bench", "--sizes", "5", "--domain", "fp:3", "--trials", "1", "--seed", "1"],
    ["bench", "--sizes", "2,0", "--trials", "1", "--seed", "1"],
]


def _without_times(out: str) -> str:
    """bench's CSV without its wall_time_ns column."""
    rows = [line.split(",") for line in out.splitlines()]
    return "\n".join(",".join(row[:4] + row[5:]) for row in rows)


def test_cli_output_identity(monkeypatch, capsys):
    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.main(argv)
        captured = capsys.readouterr()
        out = _without_times(captured.out) if argv[0] == "bench" else captured.out
        calls.append((argv, code, out, captured.err))
        return code, out

    calls = []
    budgets = [det.CB_VERIFY_BUDGET] * 2 + [1, 2, 3, 6, 10]
    for i, inst in enumerate(_instances()):
        text, domain = json.dumps(inst), inst["domain"]
        monkeypatch.setattr(det, "CB_VERIFY_BUDGET", budgets[i % len(budgets)])
        for j, method in enumerate(METHODS):
            run(["det", "--method", method] + ["--show-terms"] * ((i + j) % 2), text)
        run(["det", "--show-terms"], text)
        run(["matrix"], text)
        run(["verify"], text)
        code, out = run(["det", "--method", "oracle"], text)
        if code == 0:
            value = json.loads(out)["value"]
            right = value if domain == "rational" else str(int(value) + int(domain[3:]))
            run(["verify", f"--expect={right}"], text)
            run(["verify", f"--expect={_wrong(value, domain)}"], text)
    monkeypatch.undo()
    for argv in list(_ffprob_calls()) + BENCH_CALLS:
        run(argv)

    digest = hashlib.sha256()
    for _, code, out, err in calls:
        digest.update(hashlib.sha256(f"{code}\0{out}\0{err}".encode()).digest())
    coverage = {
        "calls": len(calls),
        "exit codes": Counter(code for _, code, _, _ in calls),
        "SKIPPED rows": sum("SKIPPED" in out for _, _, out, _ in calls),
        "equivariance groups": sum("EQUIVARIANT_PREDICTED" in out for _, _, out, _ in calls),
        "nothing compared": sum("nothing compared" in out for _, _, out, _ in calls),
        "verification: FAIL": sum("verification: FAIL" in out for _, _, out, _ in calls),
        "subset terms": sum('"subset_terms"' in out for _, _, out, _ in calls),
        "outputs past 4,300 digits": sum(
            any(len(word) > 4300 for word in out.split()) for _, _, out, _ in calls
        ),
        "ffprob runs": Counter(
            "csv" if "--csv" in argv else "json" for argv, code, _, _ in calls
            if argv[0] == "ffprob" and code == 0
        ),
    }
    assert coverage == COVERAGE
    assert digest.hexdigest() == DIGEST
