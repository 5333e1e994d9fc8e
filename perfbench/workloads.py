"""The benchmark's four workloads: seeded instances, CLI argv, reference checks.

Each workload is a fixed schedule of op shapes (subcommand, domain, sizes,
support pattern); the seed draws only the values inside each shape. An op's
cost therefore depends on its shape and not on the seed, so runs with
different seeds do the same amount of work and can be compared.

Every reference value is computed at set-up by another route than the one
the op times:

- verify ops: the closed forms, recomputed here on plain ints/Fractions;
- det ops: the library's Bareiss oracle (`evalmat.det.oracle_det`);
- ffprob ops: a recount with the library call `estimate_zero_probability`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FP = 2**31 - 1


@dataclass
class Op:
    """One CLI invocation and the check of its standard output."""

    label: str
    argv: list[str]
    stdin: str
    check: Callable[[str], bool]
    meta: dict = field(default_factory=dict)


# -- exact formatting without CPython's int<->str digit limit -----------------


def dec(n: int) -> str:
    """Decimal string of any int; splits large values so no single str()
    call crosses the interpreter's 4300-digit conversion limit."""
    if n < 0:
        return "-" + dec(-n)
    if n.bit_length() < 10_000:  # at most 3011 digits
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    hi, lo = divmod(n, 10**half)
    return dec(hi) + dec(lo).zfill(half)


def fmt(x, p: int | None) -> str:
    """The CLI's wire format of a scalar: a residue for F_p, num[/den] for Q."""
    if p is not None:
        return str(x % p)
    x = Fraction(x)
    if x.denominator == 1:
        return dec(x.numerator)
    return f"{dec(x.numerator)}/{dec(x.denominator)}"


def domain_name(p: int | None) -> str:
    return "rational" if p is None else f"fp:{p}"


# -- closed forms, recomputed independently of the library --------------------


def vdm(xs, p: int | None):
    """prod_{i<j} (x_j - x_i), reduced mod p when p is given."""
    acc = 1
    for j in range(1, len(xs)):
        for i in range(j):
            acc *= xs[j] - xs[i]
            if p is not None:
                acc %= p
    return acc


def closed_form(factor, a, b, p: int | None):
    """(-1)^C(n,2) * factor * vdm(a) * vdm(b): the borderline determinant
    (factor = prod alpha_i) and the sum-form one (factor = alpha_k^n *
    prod C(k,i)) share this shape at n = k+1."""
    sign = -1 if math.comb(len(a), 2) % 2 else 1
    value = sign * factor * vdm(a, p) * vdm(b, p)
    return value % p if p is not None else value


# -- value draws ---------------------------------------------------------------


def distinct(count: int, draw) -> list:
    seen: set = set()
    out = []
    while len(out) < count:
        v = draw()
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def residues(rng, p):
    return lambda: rng.randrange(p)


def ints(rng, bits):
    return lambda: rng.randrange(1, 1 << bits)


def signed(rng, bits):
    return lambda: rng.randrange(-(1 << bits), 1 << bits)


def small_fractions(rng):
    """num/den with den cycling through 2..9 and num coprime to it: the
    rational-point path of the Q engines. Fixing the denominators fixes the
    size of the integer lift, which sets the op's cost."""
    dens = iter(range(10**9))

    def draw():
        den = 2 + next(dens) % 8
        while True:
            num = rng.randrange(-(1 << 12), 1 << 12)
            if math.gcd(num, den) == 1:
                return Fraction(num, den)

    return draw


def nonzero(draw, p: int | None):
    def pick():
        while True:
            v = draw()
            if (v % p if p is not None else v) != 0:
                return v

    return pick


def instance(p, poly, a, b, change=None) -> str:
    obj = {
        "domain": domain_name(p),
        "poly": poly,
        "a": [fmt(x, p) for x in a],
        "b": [fmt(x, p) for x in b],
    }
    if change is not None:
        obj["linear_change"] = [fmt(x, p) for x in change]
    return json.dumps(obj)


# -- verify ops ----------------------------------------------------------------


def verify_check(groups: dict[str, str]) -> Callable[[str], bool]:
    """`evalmat verify` prints `LABEL  value` per engine, pairwise PASS
    lines, then `verification: PASS`. Every printed value must equal the
    reference of its group; the oracle row must be present."""

    def check(out: str) -> bool:
        lines = out.splitlines()
        if not lines or lines[-1] != "verification: PASS":
            return False
        seen = set()
        for line in lines[:-1]:
            if line.startswith(" "):
                continue
            label, value = line.split(None, 1)
            if value != groups.get(label, groups["ORACLE"]):
                return False
            seen.add(label)
        return groups.keys() <= seen

    return check


def verify_homogeneous(rng, p, n, coeff_draw, point_draw, tag) -> Op:
    """Borderline instance, n = k+1: verify runs the closed form, both
    Cauchy-Binet minor routes (one subset) and the oracle."""
    coeffs = [nonzero(coeff_draw, p)() for _ in range(n)]
    a = distinct(n, point_draw)
    b = distinct(n, point_draw)
    poly = {"kind": "homogeneous", "degree": n - 1, "coeffs": [fmt(c, p) for c in coeffs]}
    ref = fmt(closed_form(math.prod(coeffs), a, b, p), p)
    return Op(
        f"verify/{tag}/n={n}",
        ["verify"],
        instance(p, poly, a, b),
        verify_check({"ORACLE": ref}),
    )


def verify_sum_form(rng, p, n, coeff_draw, point_draw, tag) -> Op:
    """Sum-form instance f(x+y), n = deg f + 1, with a linear change of
    variables: verify adds the equivariance prediction and the oracle of
    the transformed matrix."""
    k = n - 1
    coeffs = [coeff_draw() for _ in range(k)] + [nonzero(coeff_draw, p)()]
    while True:
        al, be, ga, de = (rng.randrange(-3, 4) for _ in range(4))
        c, d, det_b = al + ga, be + de, al * de - be * ga
        if all((v % p if p else v) != 0 for v in (c, d, det_b)):
            break
    a = distinct(n, point_draw)
    b = distinct(n, point_draw)
    factor = coeffs[k] ** n * math.prod(math.comb(k, i) for i in range(n))
    ref = fmt(closed_form(factor, a, b, p), p)
    moved = fmt(closed_form(factor, [c * x for x in a], [d * x for x in b], p), p)
    poly = {"kind": "sum_form", "coeffs": [fmt(x, p) for x in coeffs]}
    return Op(
        f"verify/{tag}/n={n}",
        ["verify"],
        instance(p, poly, a, b, (al, be, ga, de)),
        verify_check(
            {"ORACLE": ref, "EQUIVARIANT_PREDICTED": moved, "TRANSFORMED_ORACLE": moved}
        ),
    )


# A round has 15 ops (ffprob: 5). The nearest-rank p50 and p90 over the ops'
# median latencies are the 8th and 14th (3rd and 5th) cheapest op, and the
# mixes put ops of like cost there, so machine noise does not tip either
# quantile onto an op of another shape.


def repeat(shapes):
    return [shape for shape, reps in shapes for _ in range(reps)]


def fp_verify(rng, lib) -> list[Op]:
    draw = residues(rng, FP)
    # sizes with C(n,2) odd and even, so the closed forms' sign is checked
    hom = repeat([(34, 3), (48, 4), (63, 2), (80, 2), (95, 1)])
    ops = [verify_homogeneous(rng, FP, n, draw, draw, "fp-hom") for n in hom]
    sums = repeat([(42, 2), (72, 1)])
    ops += [verify_sum_form(rng, FP, n, draw, draw, "fp-sum") for n in sums]
    return ops


def q_verify(rng, lib) -> list[Op]:
    # n = 29 at 20-bit points gives a determinant of about 4,500 digits,
    # past CPython's 4300-digit int->str limit: today the op exits 2.
    pts20, coeff20 = ints(rng, 20), ints(rng, 20)
    ops = [
        verify_homogeneous(rng, None, n, coeff20, pts20, "q-int20")
        for n in repeat([(12, 5), (16, 1), (20, 2), (29, 1)])
    ]
    ops += [
        verify_homogeneous(rng, None, n, signed(rng, 8), small_fractions(rng), "q-frac")
        for n in repeat([(10, 2), (14, 1)])
    ]
    ops += [
        verify_sum_form(rng, None, n, signed(rng, 10), pts20, "q-sum")
        for n in repeat([(8, 2), (16, 1)])
    ]
    return ops


# -- det ops (Cauchy-Binet dispatch) -------------------------------------------


def det_op(rng, lib, p, n, k, half, method) -> Op:
    """`evalmat det` on a homogeneous instance, checked against the oracle.
    With `half`, the odd-index coefficients are zero: a fixed support, so
    the number of subsets Cauchy-Binet skips does not depend on the seed."""
    draw = residues(rng, p) if p else signed(rng, 10)
    coeffs = [0 if half and i % 2 else nonzero(draw, p)() for i in range(k + 1)]
    a = distinct(n, draw)
    b = distinct(n, draw)
    poly = {"kind": "homogeneous", "degree": k, "coeffs": [fmt(c, p) for c in coeffs]}
    text = instance(p, poly, a, b)
    inst = lib.cli.load_instance(text)
    ref = fmt_scalar(lib.det.oracle_det(inst.poly, inst.pts).value, p)

    def check(out: str) -> bool:
        return json.loads(out)["value"] == ref

    domain = "fp" if p else "q"
    shape = "half" if half else "dense"
    argv = ["det"] if method == "auto" else ["det", "--method", method]
    return Op(f"det-{method}/{domain}/n={n},k={k},{shape}", argv, text, check)


def fmt_scalar(x, p):
    """Reference string of a library scalar (FpElement or Fraction)."""
    return fmt(x.value if p else x, p)


def cb_det(rng, lib) -> list[Op]:
    shapes = [
        # (p, n, k, half the support zero, method)
        (FP, 6, 12, False, "auto"),  # 1716 subsets, the CB worst case here
        (FP, 6, 12, True, "auto"),  # 7 of the 1716 subsets survive
        (FP, 6, 12, True, "auto"),
        (FP, 6, 12, True, "auto"),
        (FP, 5, 9, False, "auto"),
        (FP, 4, 8, False, "cb-h"),
        (FP, 3, 6, True, "auto"),
        (None, 5, 9, False, "auto"),
        (None, 6, 12, True, "auto"),
        (None, 4, 7, False, "cb-h"),
        (None, 3, 5, False, "auto"),
        (None, 4, 8, True, "cb-h"),
        # minority: the dispatcher's cheap branches
        (FP, 5, 4, False, "auto"),  # borderline closed form
        (None, 6, 5, False, "auto"),  # borderline closed form
        (None, 6, 3, False, "auto"),  # vanish by rank
    ]
    return [det_op(rng, lib, *shape) for shape in shapes]


# -- ffprob ops ----------------------------------------------------------------


def ffprob_op(rng, lib, p, n, k, trials, coeffs=None) -> Op:
    seed = rng.randrange(1 << 32)
    argv = ["ffprob", "--p", str(p), "--n", str(n), "--k", str(k), "--trials", str(trials)]
    argv += ["--seed", str(seed)]
    if coeffs is not None:
        argv += ["--coeffs", ",".join(map(str, coeffs))]
    cfg = lib.ffprob.ExperimentConfig(
        modulus=p, n=n, coeffs=tuple(coeffs or (1,) * (k + 1)), trials=trials, seed=seed
    )
    ref = lib.ffprob.result_to_json(lib.ffprob.estimate_zero_probability(cfg))

    def check(out: str) -> bool:
        return json.loads(out) == ref

    path = "collision" if ref["exact_borderline"] is not None else "elimination"
    return Op(
        f"ffprob/{path}/p={p},n={n},k={k}",
        argv,
        "",
        check,
        {"p": p, "n": n, "trials": trials, "seed": seed, "collision": path == "collision"},
    )


def ffprob(rng, lib) -> list[Op]:
    # five ops a round; trial counts spread the costs about 1.5x apart
    return [
        ffprob_op(rng, lib, 101, 3, 2, 5000),  # criterion 7's configuration
        ffprob_op(rng, lib, FP, 6, 5, 3500),  # collision path, large field
        ffprob_op(rng, lib, 101, 3, 4, 1500),  # elimination path
        ffprob_op(rng, lib, 7, 3, 4, 1000, (1, 2, 3, 4, 5)),  # nk/q = 12/7 > 1
        ffprob_op(rng, lib, FP, 4, 6, 1600),  # elimination path, large field
    ]


WORKLOADS = {
    "fp-verify": fp_verify,
    "q-verify": q_verify,
    "cb-det": cb_det,
    "ffprob": ffprob,
}
