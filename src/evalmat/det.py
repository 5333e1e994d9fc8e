"""Closed-form and expansion determinant engines for evaluation matrices.

Every engine is cross-checkable against the elimination oracle. The size regime
relative to the degree k decides the method, for homogeneous polynomials and
sum forms f(x+y) alike: n >= k+2 vanishes by rank, n = k+1 factors into sign *
coefficient product * two Vandermonde products, and n <= k expands a
homogeneous polynomial as a column-subset minor sum where that is cheaper than
elimination, which answers everything else. engines() holds this rule for
every caller.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import kernel
from .matrix import (
    PointVectors,
    bareiss_det,
    evaluation_image,
    pascal_core,
    power_image,
    vandermonde_product,
)
from .poly import HomogeneousPoly, UnivariatePoly
from .scalar import (
    Scalar,
    SingularChangeError,
    SizeMismatchError,
    binomial,
    domain_of,
    format_scalar,
    normalize_scalars,
    shared_domain,
)

VANISH_RANK = "VANISH_RANK"
BORDERLINE = "BORDERLINE"
CAUCHY_BINET = "CAUCHY_BINET"
SUM_FORM = "SUM_FORM"
ORACLE = "ORACLE"

DIRECT = "direct"
H_ROUTE = "h_route"

# Cauchy-Binet expansions run up to this many support subsets; past it
# det_cauchy_binet refuses (det exits 3, verify skips the route) and auto
# takes the oracle. At n = 10, C(15,10) = 3003 subsets take, in s at k = 14 /
# k = 29 (three random supports, coefficients below 1000, points num/den with
# num < 1000 and den < 10 over Q; Python 3.11, shared 2-vCPU host):
#   F_p, p = 2^31-1: DIRECT 0.56-0.57 / 0.55-0.58, H route 0.24-0.40 / 0.36-0.54
#   Q:               DIRECT 0.74-0.82 / 1.46-2.00, H route 0.52-0.65 / 3.19-5.68
# and a whole verify over Q at k = 29, both routes and the oracle, 6.0-7.7 s
CB_VERIFY_BUDGET = 5000


class SubsetBudgetError(SizeMismatchError):
    """det_cauchy_binet's refusal of more than CB_VERIFY_BUDGET support subsets."""

    def __init__(self, subsets: int, limit: int):
        super().__init__(f"Cauchy-Binet expansion over {subsets} support subsets > limit {limit}")
        self.subsets, self.limit = subsets, limit


@dataclass(frozen=True, eq=False)
class DetReport:
    """Determinant value plus the factor breakdown of the method used.

    For BORDERLINE and SUM_FORM, value = sign_factor * coeff_product *
    vdm_a * vdm_b exactly; for CAUCHY_BINET, value = sum of subset_terms.
    A CAUCHY_BINET report keeps each term as an integer numerator over the
    shared denominator term_den, and builds the (subset, scalar) pairs of
    subset_terms on their first read (of the CLI, only det --show-terms);
    other methods have none. Reports compare and hash by value, method, the
    four factors and subset_terms, not by the stored numerators, which
    differ between the two routes.
    """

    value: Scalar
    method: str
    sign_factor: int = 1
    coeff_product: Scalar | None = None
    vdm_a: Scalar | None = None
    vdm_b: Scalar | None = None
    term_nums: tuple | None = None  # ((subset, numerator), ...)
    term_den: int = 1

    @functools.cached_property
    def subset_terms(self) -> tuple | None:
        if self.term_nums is None:
            return None
        dom, den = domain_of(self.value), self.term_den
        return tuple((subset, dom.ratio(num, den)) for subset, num in self.term_nums)

    def _key(self) -> tuple:
        parts = self.sign_factor, self.coeff_product, self.vdm_a, self.vdm_b
        return (self.value, self.method, *parts, self.subset_terms)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, DetReport) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class LinearChange:
    """Invertible B = [[alpha, beta], [gamma, delta]] acting on (x, y)."""

    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar

    @property
    def det(self) -> Scalar:
        return self.alpha * self.delta - self.beta * self.gamma

    @property
    def c(self) -> Scalar:
        return self.alpha + self.gamma

    @property
    def d(self) -> Scalar:
        return self.beta + self.delta


def oracle_det(p: HomogeneousPoly | UnivariatePoly, pts: PointVectors) -> DetReport:
    """Brute-force determinant of A (the independent check): the
    determinant of its integer image, taken by evaluation_image's kernel
    call, which picks the route. Over Z it is CRT, modulo products of up to
    kernel.MULTIMODULAR_GROUP primes, where n^3 * bit_length(2H) reaches
    kernel.MULTIMODULAR_MIN_SIZE for H the image's Hadamard bound (20-bit
    points from n = 20 on, 10-bit from n = 23), and Bareiss below; over F_p
    from kernel.PACK_MIN rows on it eliminates A's packed rows without ever
    unpacking them."""
    num, row_den, col_den, dom = evaluation_image(p, pts, det=True)
    return DetReport(dom.ratio(num, math.prod(row_den + col_den)), ORACLE)


def engines(p: HomogeneousPoly | UnivariatePoly, n: int) -> tuple[str, ...]:
    """The engines that apply to p at n points, auto's choice first:
    - n >= k+2: VANISH_RANK;
    - n = k+1: SUM_FORM for a sum form, else BORDERLINE, DIRECT and H_ROUTE;
    - n <= k: ORACLE for a sum form, else DIRECT and H_ROUTE, behind ORACLE
      where elimination is the cheaper or the expansion is over the budget.

    The minor expansion costs about S*n^3 for S = support_subsets(p, n)
    when each minor is eliminated on its own, as DIRECT does; building A and
    eliminating it once costs about n^2(k+1) + n^3. Cauchy-Binet goes first
    when S*n <= k+1+n, which includes n = 1 and S = 0, where the empty sum
    gives 0 without building a matrix, and S <= CB_VERIFY_BUDGET, past which
    det_cauchy_binet refuses, so that auto never meets the refusal. H_ROUTE's
    one kernel.minors pass for both sides (det_cauchy_binet) is not priced,
    since auto never picks H_ROUTE.
    """
    k = p.degree
    if n >= k + 2:
        return (VANISH_RANK,)
    if isinstance(p, UnivariatePoly):
        return (SUM_FORM,) if n == k + 1 else (ORACLE,)
    if n == k + 1:
        return (BORDERLINE, DIRECT, H_ROUTE)
    cheap = (s := support_subsets(p, n)) * n <= k + 1 + n and s <= CB_VERIFY_BUDGET
    return (DIRECT, H_ROUTE) if cheap else (ORACLE, DIRECT, H_ROUTE)


def run_engine(name: str, p: HomogeneousPoly | UnivariatePoly, pts: PointVectors) -> DetReport:
    """The report of the engine called name (see engines). Each engine is
    looked up by name in this module at every call, so one replaced here (by
    a tracer or a test) is the one that runs."""
    if name == VANISH_RANK:
        return DetReport(value=pts.domain.zero, method=VANISH_RANK)
    if name in (DIRECT, H_ROUTE):
        return det_cauchy_binet(p, pts, name)
    return {ORACLE: oracle_det, BORDERLINE: det_borderline, SUM_FORM: det_sum_form}[name](p, pts)


def det_structured(p: HomogeneousPoly | UnivariatePoly, pts: PointVectors) -> DetReport:
    """The report of auto's engine, the first of engines(p, n)."""
    return run_engine(engines(p, pts.n)[0], p, pts)


def support_subsets(p: HomogeneousPoly, n: int) -> int:
    """Number of Cauchy-Binet terms at n points: the n-subsets of the support."""
    return math.comb(len(p.support()), n)


def det_borderline(p: HomogeneousPoly, pts: PointVectors) -> DetReport:
    """Closed form at n = k+1: (-1)^C(k+1,2) * prod(alpha_i) * vdm(a) * vdm(b).

    O(n^2) scalar operations; nonzero iff every coefficient is nonzero and
    both point vectors are collision-free.
    """
    if not isinstance(p, HomogeneousPoly):
        raise TypeError(f"borderline form needs a HomogeneousPoly, got {type(p).__name__}")
    n, k = pts.n, p.degree
    if n != k + 1:
        raise SizeMismatchError(f"borderline form needs n = k+1, got n={n}, k={k}")
    # one product of ints and one scalar, not k+1 products of scalars
    dom = shared_domain(p, pts)
    c, e = dom.lift(p.coeffs)
    return _closed_form(BORDERLINE, dom.ratio(math.prod(c), e ** len(c)), pts)


def _closed_form(method: str, coeff: Scalar, pts: PointVectors) -> DetReport:
    """(-1)^C(n,2) * coeff * vdm(a) * vdm(b), the n = k+1 determinant of both forms."""
    sign = -1 if binomial(pts.n, 2) % 2 else 1
    vdm_a = vandermonde_product(pts.a)
    vdm_b = vandermonde_product(pts.b)
    return DetReport(
        value=sign * coeff * vdm_a * vdm_b,
        method=method,
        sign_factor=sign,
        coeff_product=coeff,
        vdm_a=vdm_a,
        vdm_b=vdm_b,
    )


def det_cauchy_binet(p: HomogeneousPoly, pts: PointVectors, minor_mode: str = DIRECT) -> DetReport:
    """Minor expansion over n-subsets I of the k+1 columns:

        det A = sum_I det(V(:,I)) * prod_{i in I} alpha_i * det(W(:,I)).

    DIRECT evaluates the minors by elimination, V's on its exponents in
    ascending order. H_ROUTE extracts the Vandermonde product of the points
    and evaluates the remaining factor as a Jacobi-Trudi determinant in the
    complete homogeneous polynomials on the l(lam) rows of its nonzero parts
    (see schur_minor); W's ascending exponents are reversed to descending,
    whose (-1)^C(n,2) cost cancels the descending minor's own sign. Only
    subsets inside the support of the coefficients are enumerated, in
    lexicographic order. Both routes run on the kernel's integer lift and
    keep each term as an integer over one shared denominator; the report
    builds the term scalars only when subset_terms is read.

    Each route builds its tables once per call and takes every minor from
    whole rows of them (a minor's transpose has its determinant). DIRECT
    hands kernel.det the rows k - i, i in reversed(I), of V's transpose and
    the rows i in I of W's.
    H_ROUTE reads one H table per side behind n - 1 zeros. On a support of
    m coefficients with 2n <= m + 1 it takes both sides' C(m, n) minors
    from one kernel.minors call, which builds its plan once for the two
    tables of whole n x n Jacobi-Trudi rows pad[k - i : k - i + n] and
    pad[i : i + n], i in the support ascending, whose ascending W side costs
    (-1)^C(n,2); otherwise kernel.det takes each minor's slices
    pad[e : e + l(lam)] (see _jacobi_trudi). The rule keeps each level of
    the pass below n no larger than its last. It is a bound, not a measured
    crossover: the pass measured faster at some shapes outside it and
    slower at S <= 20 inside it (CHANGES.md).

    Both routes then take every numerator as scale * mv * mw * f in one
    pass, f the product over I of per-index weights: c_i for DIRECT, and
    c_i D^i G^(k-i) for H_ROUTE at a = X/D, b = Y/G, which makes up for the
    minors' denominators D^(nk - sum I) G^(sum I) over the shared (DG)^(nk),
    since |I| = n.

    Every support subset is listed up front, so an expansion over more than
    CB_VERIFY_BUDGET of them (a dense p at n = 10, k = 60 has 9.0e10) is
    refused by SubsetBudgetError before anything is lifted or listed. The
    budget is read at each call; det.engines puts no expansion first past it.
    """
    if not isinstance(p, HomogeneousPoly):
        raise TypeError(f"minor expansion needs a HomogeneousPoly, got {type(p).__name__}")
    n, k = pts.n, p.degree
    if n > k + 1:
        raise SizeMismatchError(f"minor expansion needs n <= k+1, got n={n}, k={k}")
    if n < 1:
        raise SizeMismatchError("need at least one evaluation point")
    if minor_mode not in (DIRECT, H_ROUTE):
        raise ValueError(f"unknown minor mode {minor_mode!r}")
    if (s := support_subsets(p, n)) > CB_VERIFY_BUDGET:
        raise SubsetBudgetError(s, CB_VERIFY_BUDGET)

    dom = shared_domain(p, pts)
    mod = dom.modulus
    c, e = dom.lift(p.coeffs)
    support = [i for i, ci in enumerate(c) if ci]
    subsets = list(itertools.combinations(support, n))
    # reversing the n columns of a minor multiplies it by (-1)^C(n,2)
    sign = -1 if binomial(n, 2) % 2 else 1
    if minor_mode == DIRECT:
        # V's minor on columns I has the exponents k - i, i in I, descending;
        # it is eliminated on the same exponents ascending (W's order), since
        # Bareiss' leading minors then stay ordinary Vandermondes of low
        # degree, and the column reversal costs the sign
        v, v_den = power_image(pts.a, k, dom)
        w, w_den = power_image(pts.b, k, dom)
        vt, wt = list(zip(*v)), list(zip(*w))
        den = e**n * math.prod(v_den + w_den)
        scale, weights = sign, [c[i] for i in support]
        mvs = [kernel.det([vt[k - i] for i in reversed(subset)], mod) for subset in subsets]
        mws = [kernel.det([wt[i] for i in subset], mod) for subset in subsets]
    else:
        # a descending-exponent minor is prod_{r<r'}(x_r - x_{r'}) * s_lam,
        # i.e. (-1)^C(n,2) times the ascending Vandermonde product; W's
        # column reversal contributes the same sign again, cancelling it.
        # Over a = X/D, b = Y/G the minors carry D^(nk - sum I) G^(sum I),
        # so over (DG)^(nk) term I gains D^(sum I) G^(nk - sum I): since
        # |I| = n, the product over I of index i's weight D^i G^(k-i)
        xa, ga = dom.lift(pts.a)
        xb, gb = dom.lift(pts.b)
        # a block reads H up to lam_1 + l(lam) - 1 <= k; at n = k+1 the one
        # subset has lam empty and reads nothing past H_0
        depth = k if n <= k else 0
        pad_a = [0] * (n - 1) + kernel.h_table(xa, depth, mod)
        pad_b = [0] * (n - 1) + kernel.h_table(xb, depth, mod)
        scale = sign * kernel.vandermonde(xa, mod) * kernel.vandermonde(xb, mod)
        den = e**n * (ga * gb) ** (n * k)
        weights = [c[i] * ga**i * gb ** (k - i) for i in support]
        if 2 * n <= len(support) + 1:
            # every minor of both sides in one pass over the whole n x n
            # Jacobi-Trudi matrices; W's rows i ascending are its descending
            # rows reversed, which costs the sign again
            tables = [pad_a[k - i : k - i + n] for i in support], [pad_b[i : i + n] for i in support]
            mvs, mws = kernel.minors(tables, n, mod)
            scale *= sign
        else:
            mvs = [_jacobi_trudi([k - i for i in subset], pad_a, mod) for subset in subsets]
            mws = [_jacobi_trudi(subset[::-1], pad_b, mod) for subset in subsets]
    # term I's factor prod_{i in I} weights[i], in the order of subsets
    factors = map(math.prod, itertools.combinations(weights, n))
    nums = [scale * mv * mw * f for mv, mw, f in zip(mvs, mws, factors)]
    terms = tuple(zip(subsets, nums))
    return DetReport(dom.ratio(sum(nums), den), CAUCHY_BINET, term_nums=terms, term_den=den)


def schur_minor(xs: Sequence, exponents: Sequence[int]) -> Scalar:
    """The H-determinant factor of a generalized Vandermonde minor.

    For strictly decreasing exponents e_1 > ... > e_n >= 0,

        det [x_r^{e_j}] = prod_{r<r'} (x_r - x_{r'}) * schur_minor(xs, e)
                        = (-1)^C(n,2) * vandermonde_product(xs) * schur_minor(xs, e),

    where this factor is the Jacobi-Trudi determinant det [H_{lam_i + j - i}(xs)]
    with lam_i = e_i - (n - i) (the Schur polynomial s_lam(xs)), taken on the
    l(lam) rows of the nonzero parts (see _jacobi_trudi), each a slice of
    one H table behind n - 1 zeros. It is computed on the integer numerators
    X over their common denominator D as s_lam(X) / D^|lam|.
    """
    exps = tuple(exponents)
    xs = tuple(xs)
    if len(exps) != len(xs):
        raise ValueError("need exactly one exponent per variable")
    if any(e < 0 for e in exps):
        raise ValueError(f"exponents must be non-negative: {exps}")
    if any(exps[i] <= exps[i + 1] for i in range(len(exps) - 1)):
        raise ValueError(f"exponents must be strictly decreasing: {exps}")
    dom, xs = normalize_scalars(xs)
    nums, den = dom.lift(xs)
    length = _partition_length(exps)
    depth = exps[0] - len(exps) + length if length else 0  # lam_1 + l(lam) - 1
    pad = [0] * (len(exps) - 1) + kernel.h_table(nums, depth, dom.modulus)
    weight = sum(exps) - binomial(len(exps), 2)
    return dom.ratio(_jacobi_trudi(exps, pad, dom.modulus), den**weight)


def _jacobi_trudi(exps: Sequence[int], pad: list[int], mod: int | None) -> int:
    """det [H_{lam_i + j - i}] = det [H_{e_i - n + 1 + j}], with pad the H
    table H_0, H_1, ... behind n - 1 zeros, so that row i is the slice
    pad[e_i : e_i + l] (H_d = 0 for d < 0).

    Only the top-left l x l block is eliminated, l = l(lam) the number of
    nonzero parts: a row i >= l has lam_i = 0, so it reads H_{j-i}, which is
    0 left of the diagonal and H_0 = 1 on it. The n x n matrix is therefore
    block upper triangular with a unitriangular lower-right block, and its
    determinant is that of the block (Macdonald, Symmetric Functions and
    Hall Polynomials, I.3). The block reads H up to lam_1 + l - 1; l = 0
    gives the empty determinant 1.
    """
    length = _partition_length(exps)
    return kernel.det([pad[e : e + length] for e in exps[:length]], mod)


def _partition_length(exps: Sequence[int]) -> int:
    """l(lam) for lam_i = e_i - (n - 1 - i), i from 0. lam is non-increasing,
    so its zero parts are the trailing rows with e_i = n - 1 - i, counted
    here from the end."""
    length = len(exps)
    while length and exps[length - 1] == len(exps) - length:
        length -= 1
    return length


def rank_upper_bound(p: HomogeneousPoly, n: int) -> int:
    """min(n, |support|, k+1); if |support| < n the determinant is 0."""
    return min(n, len(p.support()), p.degree + 1)


def det_sum_form(f: UnivariatePoly, pts: PointVectors) -> DetReport:
    """Closed form for [f(a_r + b_s)] at n = deg f + 1:

        alpha_k^n * (-1)^C(n,2) * prod_i C(k,i) * vdm(a) * vdm(b),

    independent of the lower coefficients of f.
    """
    n = pts.n
    k = _sum_form_degree(f, n, "sum form")
    coeff = f.leading_coefficient**n * math.prod(binomial(k, i) for i in range(k + 1))
    return _closed_form(SUM_FORM, coeff, pts)


def pascal_core_det(f: UnivariatePoly, n: int) -> Scalar:
    """Determinant (bareiss_det) of the coefficient grid of f(x+y) at n = deg f + 1.

    Equals alpha_k^n * (-1)^C(n,2) * prod_i C(k,i); computing it from the
    grid keeps this an independent check of that closed form.
    """
    _sum_form_degree(f, n, "pascal core")
    return bareiss_det(pascal_core(f, n))


def _sum_form_degree(f: UnivariatePoly, n: int, what: str) -> int:
    """deg f, after checking the sum form's closed-form regime n = deg f + 1."""
    if not isinstance(f, UnivariatePoly):
        raise TypeError(f"{what} needs a UnivariatePoly, got {type(f).__name__}")
    k = f.degree
    if k < 0:
        raise SizeMismatchError("zero polynomial has no leading coefficient")
    if n != k + 1:
        raise SizeMismatchError(f"{what} needs n = deg f + 1, got n={n}, deg={k}")
    return k


def predict_equivariant_det(f: UnivariatePoly, b: LinearChange, pts: PointVectors):
    """Predicted determinant of [f applied after the change of variables B].

    With c = alpha + gamma and d = beta + delta, the transformed matrix is
    [f(c*a_r + d*b_s)] and its determinant is c^C(n,2) * d^C(n,2) times the
    sum-form determinant at the original points. Returns (c, d, predicted).
    """
    if not b.det:
        raise SingularChangeError("change of variables has det B = 0")
    base = det_sum_form(f, pts)
    e = binomial(pts.n, 2)
    c, d = b.c, b.d
    return c, d, (c ** e) * (d ** e) * base.value


def report_to_json(report: DetReport, include_terms: bool = False) -> dict:
    out = {"value": format_scalar(report.value), "method": report.method}
    if report.method in (BORDERLINE, SUM_FORM):
        out["sign_factor"] = report.sign_factor
        out["coeff_product"] = format_scalar(report.coeff_product)
        out["vdm_a"] = format_scalar(report.vdm_a)
        out["vdm_b"] = format_scalar(report.vdm_b)
    if include_terms and report.subset_terms is not None:
        out["subset_terms"] = [
            {"subset": list(subset), "term": format_scalar(term)}
            for subset, term in report.subset_terms
        ]
    return out
