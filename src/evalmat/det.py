"""Closed-form and expansion determinant engines for evaluation matrices.

Every engine is cross-checkable against the Bareiss oracle. The size regime
relative to the polynomial degree k decides the method: n >= k+2 vanishes by
rank, n = k+1 factors into sign * coefficient product * two Vandermonde
products, and n <= k expands as a column-subset minor sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import kernel
from .matrix import (
    PointVectors,
    bareiss_det,
    evaluation_matrix,
    pascal_core,
    vandermonde_product,
)
from .poly import HomogeneousPoly, UnivariatePoly
from .scalar import (
    Scalar,
    SingularChangeError,
    SizeMismatchError,
    binomial,
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


@dataclass(frozen=True)
class DetReport:
    """Determinant value plus the factor breakdown of the method used.

    For BORDERLINE and SUM_FORM, value = sign_factor * coeff_product *
    vdm_a * vdm_b exactly; for CAUCHY_BINET, value = sum of subset_terms.
    """

    value: Scalar
    method: str
    sign_factor: int = 1
    coeff_product: Scalar | None = None
    vdm_a: Scalar | None = None
    vdm_b: Scalar | None = None
    subset_terms: tuple | None = None


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
    """Brute-force determinant of the evaluation matrix (the independent check)."""
    return DetReport(value=bareiss_det(evaluation_matrix(p, pts)), method=ORACLE)


def det_structured(
    p: HomogeneousPoly, pts: PointVectors, minor_mode: str = DIRECT
) -> DetReport:
    """Dispatch on the size regime: vanish (n >= k+2), borderline (n = k+1),
    or Cauchy-Binet minor expansion (n <= k). No matrix is built."""
    n, k = pts.n, p.degree
    if n >= k + 2:
        return DetReport(value=pts.domain.zero, method=VANISH_RANK)
    if n == k + 1:
        return det_borderline(p, pts)
    return det_cauchy_binet(p, pts, minor_mode)


def det_borderline(p: HomogeneousPoly, pts: PointVectors) -> DetReport:
    """Closed form at n = k+1: (-1)^C(k+1,2) * prod(alpha_i) * vdm(a) * vdm(b).

    O(n^2) scalar operations; nonzero iff every coefficient is nonzero and
    both point vectors are collision-free.
    """
    n, k = pts.n, p.degree
    if n != k + 1:
        raise SizeMismatchError(f"borderline form needs n = k+1, got n={n}, k={k}")
    return _closed_form(BORDERLINE, math.prod(p.coeffs, start=pts.domain.one), pts)


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


def det_cauchy_binet(
    p: HomogeneousPoly, pts: PointVectors, minor_mode: str = DIRECT
) -> DetReport:
    """Minor expansion over n-subsets I of the k+1 columns:

        det A = sum_I det(V(:,I)) * prod_{i in I} alpha_i * det(W(:,I)).

    DIRECT evaluates the minors by elimination. H_ROUTE extracts the
    Vandermonde product of the points and evaluates the remaining factor as
    a Jacobi-Trudi determinant in the complete homogeneous polynomials
    (see schur_minor); W's ascending exponents are reversed to descending,
    whose (-1)^C(n,2) cost cancels the descending minor's own sign. Only
    subsets inside the support of the coefficients are enumerated, in
    lexicographic order. Both routes run on the kernel's integer lift and
    wrap each term over one shared denominator.
    """
    n, k = pts.n, p.degree
    if n > k + 1:
        raise SizeMismatchError(f"minor expansion needs n <= k+1, got n={n}, k={k}")
    if n < 1:
        raise SizeMismatchError("need at least one evaluation point")
    if minor_mode not in (DIRECT, H_ROUTE):
        raise ValueError(f"unknown minor mode {minor_mode!r}")

    dom = shared_domain(p, pts)
    mod = dom.modulus
    c, e = dom.lift(p.coeffs)
    subsets = list(itertools.combinations([i for i, ci in enumerate(c) if ci], n))
    minors = []
    if minor_mode == DIRECT:
        # minors of the scaled power rows: denominator E^n prod d_r^k prod e_s^k
        na, da = dom.parts(pts.a)
        nb, db = dom.parts(pts.b)
        v = kernel.powers(na, da, k, mod)
        w = kernel.powers(db, nb, k, mod)
        den = e**n * math.prod(x**k for x in da + db)
        for subset in subsets:
            mv = kernel.det([[row[i] for i in subset] for row in v], mod)
            mw = kernel.det([[row[i] for i in subset] for row in w], mod)
            minors.append(mv * mw)
    else:
        # a descending-exponent minor is prod_{r<r'}(x_r - x_{r'}) * s_lam,
        # i.e. (-1)^C(n,2) times the ascending Vandermonde product; W's
        # column reversal contributes the same sign again, cancelling it.
        # Over a = X/D, b = Y/G the minors carry D^(nk - sum I) G^(sum I).
        xa, ga = dom.lift(pts.a)
        xb, gb = dom.lift(pts.b)
        h_a = kernel.h_table(xa, k, mod)
        h_b = kernel.h_table(xb, k, mod)
        sign_v = -1 if binomial(n, 2) % 2 else 1
        scale = sign_v * kernel.vandermonde(xa, mod) * kernel.vandermonde(xb, mod)
        den = e**n * (ga * gb) ** (n * k)
        for subset in subsets:
            s = sum(subset)
            mv = _jacobi_trudi([k - i for i in subset], h_a, mod)
            mw = _jacobi_trudi(subset[::-1], h_b, mod)
            minors.append(scale * mv * mw * ga**s * gb ** (n * k - s))
    nums = [x * math.prod(c[i] for i in subset) for subset, x in zip(subsets, minors)]
    terms = tuple((subset, dom.ratio(x, den)) for subset, x in zip(subsets, nums))
    return DetReport(value=dom.ratio(sum(nums), den), method=CAUCHY_BINET, subset_terms=terms)


def schur_minor(xs: Sequence, exponents: Sequence[int]) -> Scalar:
    """The H-determinant factor of a generalized Vandermonde minor.

    For strictly decreasing exponents e_1 > ... > e_n >= 0,

        det [x_r^{e_j}] = prod_{r<r'} (x_r - x_{r'}) * schur_minor(xs, e)
                        = (-1)^C(n,2) * vandermonde_product(xs) * schur_minor(xs, e),

    where this factor is the Jacobi-Trudi determinant det [H_{lam_i + j - i}(xs)]
    with lam_i = e_i - (n - i) (the Schur polynomial s_lam(xs)). It is
    computed on the integer numerators X over their common denominator D as
    s_lam(X) / D^|lam|.
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
    hs = kernel.h_table(nums, max(exps, default=0), dom.modulus)
    weight = sum(exps) - binomial(len(exps), 2)
    return dom.ratio(_jacobi_trudi(exps, hs, dom.modulus), den**weight)


def _jacobi_trudi(exps: Sequence[int], hs: list[int], mod: int | None) -> int:
    """det [H_{lam_i + j - i}] = det [H_{e_i - n + 1 + j}] with H_d = hs[d], 0 for d < 0."""
    n = len(exps)
    rows = [[hs[d] if d >= 0 else 0 for d in range(e - n + 1, e + 1)] for e in exps]
    return kernel.det(rows, mod)


def rank_upper_bound(p: HomogeneousPoly, n: int) -> int:
    """min(n, |support|, k+1); if |support| < n the determinant is 0."""
    return min(n, len(p.support()), p.degree + 1)


def det_sum_form(f: UnivariatePoly, pts: PointVectors) -> DetReport:
    """Closed form for [f(a_r + b_s)] at n = deg f + 1:

        alpha_k^n * (-1)^C(n,2) * prod_i C(k,i) * vdm(a) * vdm(b),

    independent of the lower coefficients of f.
    """
    k = f.degree
    if k < 0:
        raise ValueError("zero polynomial has no leading coefficient")
    n = pts.n
    if n != k + 1:
        raise SizeMismatchError(f"sum form needs n = deg f + 1, got n={n}, deg={k}")
    coeff = f.leading_coefficient**n * math.prod(binomial(k, i) for i in range(k + 1))
    return _closed_form(SUM_FORM, coeff, pts)


def pascal_core_det(f: UnivariatePoly, n: int) -> Scalar:
    """Bareiss determinant of the coefficient grid of f(x+y) at n = deg f + 1.

    Equals alpha_k^n * (-1)^C(n,2) * prod_i C(k,i); computing it by
    elimination keeps this an independent check of that closed form.
    """
    k = f.degree
    if k < 0:
        raise ValueError("zero polynomial has no leading coefficient")
    if n != k + 1:
        raise SizeMismatchError(f"pascal core needs n = deg f + 1, got n={n}, deg={k}")
    return bareiss_det(pascal_core(f, n))


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
