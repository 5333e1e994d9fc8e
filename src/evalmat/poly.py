"""Bivariate homogeneous and univariate polynomials, and the complete
homogeneous symmetric polynomials H_m."""

from __future__ import annotations

from typing import Sequence

from . import kernel
from .scalar import (
    RATIONAL,
    Immutable,
    Scalar,
    ScalarDomain,
    binomial,
    format_scalar,
    normalize_scalars,
    parse_scalars,
)


class HomogeneousPoly(Immutable):
    """Degree-k homogeneous bivariate polynomial.

    coeffs[i] multiplies x^(k-i) y^i; the vector has exactly k+1 entries and
    zeros are allowed anywhere (the zero polynomial of formal degree k is
    legal).
    """

    __slots__ = ("degree", "coeffs", "domain")

    def __init__(self, degree: int, coeffs: Sequence, domain: ScalarDomain | None = None):
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise TypeError(f"degree must be an integer, got {degree!r}")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        dom, vals = normalize_scalars(coeffs, domain)
        if len(vals) != degree + 1:
            raise ValueError(
                f"degree {degree} needs {degree + 1} coefficients, got {len(vals)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", vals)
        object.__setattr__(self, "domain", dom)

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        """p(x, y) = sum_i coeffs[i] x^(k-i) y^i, computed exactly in self.domain."""
        k = self.degree
        xp = _power_table(x, k, self.domain)
        yp = _power_table(y, k, self.domain)
        acc = self.domain.zero
        for i, a in enumerate(self.coeffs):
            if a:
                acc = acc + a * xp[k - i] * yp[i]
        return acc

    def support(self) -> frozenset[int]:
        """Indices of nonzero coefficients."""
        return frozenset(i for i, a in enumerate(self.coeffs) if a)

    def scale(self, c: Scalar) -> "HomogeneousPoly":
        return HomogeneousPoly(self.degree, tuple(c * a for a in self.coeffs), self.domain)

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"HomogeneousPoly(degree={self.degree}, coeffs={self.coeffs!r})"


class UnivariatePoly(Immutable):
    """Univariate f(t) for the sum form p(x, y) = f(x + y).

    coeffs[i] multiplies t^i; trailing zeros are kept as stored but the
    reported degree is the last nonzero index (-1 for the zero polynomial).
    """

    __slots__ = ("coeffs", "domain")

    def __init__(self, coeffs: Sequence, domain: ScalarDomain | None = None):
        dom, vals = normalize_scalars(coeffs, domain)
        if not vals:
            raise ValueError("coefficient vector must be nonempty")
        object.__setattr__(self, "coeffs", vals)
        object.__setattr__(self, "domain", dom)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    @property
    def leading_coefficient(self) -> Scalar:
        d = self.degree
        if d < 0:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[d]

    def evaluate(self, t: Scalar) -> Scalar:
        acc = self.domain.zero
        for a in reversed(self.coeffs):
            acc = acc * t + a
        return acc

    def coefficient(self, m: int) -> Scalar:
        """coeff of t^m, 0 beyond the stored vector."""
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return self.domain.zero

    def __eq__(self, other):
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UnivariatePoly(coeffs={self.coeffs!r})"


def _power_table(x: Scalar, k: int, dom: ScalarDomain) -> list:
    powers = [dom.one]
    for _ in range(k):
        powers.append(powers[-1] * x)
    return powers


def sum_power_poly(k: int, domain: ScalarDomain = RATIONAL) -> HomogeneousPoly:
    """(x+y)^k, i.e. coefficients C(k,0), ..., C(k,k)."""
    return HomogeneousPoly(k, [domain.from_int(binomial(k, i)) for i in range(k + 1)], domain)


def all_ones_poly(k: int, domain: ScalarDomain = RATIONAL) -> HomogeneousPoly:
    """sum_i x^(k-i) y^i (every coefficient 1)."""
    return HomogeneousPoly(k, [domain.one] * (k + 1), domain)


def alternating_poly(k: int, domain: ScalarDomain = RATIONAL) -> HomogeneousPoly:
    """sum_i (-1)^i x^(k-i) y^i."""
    return HomogeneousPoly(
        k, [domain.from_int(-1 if i % 2 else 1) for i in range(k + 1)], domain
    )


def complete_homogeneous_all(m: int, xs: Sequence, domain: ScalarDomain | None = None):
    """All of H_0(xs), ..., H_m(xs) in one dynamic-programming pass.

    The kernel rolls the recursion over the integer numerators X of xs,
    taken over their common denominator D; H_d is homogeneous of degree d,
    so H_d(xs) = H_d(X) / D^d.
    """
    dom, vals = normalize_scalars(xs, domain)
    if m < 0:
        return ()
    nums, den = dom.lift(vals)
    return tuple(dom.ratio(h, den**d) for d, h in enumerate(kernel.h_table(nums, m, dom.modulus)))


def complete_homogeneous(m: int, xs: Sequence, domain: ScalarDomain | None = None) -> Scalar:
    """Complete homogeneous symmetric polynomial H_m evaluated at xs.

    H_0 = 1 always; H_m = 0 for m < 0; H_m of the empty vector is 0 for
    m >= 1.
    """
    dom, _ = normalize_scalars(xs, domain)
    if m < 0:
        return dom.zero
    return complete_homogeneous_all(m, xs, dom)[m]


def poly_to_json(p: HomogeneousPoly | UnivariatePoly) -> dict:
    if isinstance(p, HomogeneousPoly):
        return {
            "kind": "homogeneous",
            "degree": p.degree,
            "coeffs": [format_scalar(a) for a in p.coeffs],
        }
    return {"kind": "sum_form", "coeffs": [format_scalar(a) for a in p.coeffs]}


def poly_from_json(obj: dict, domain: ScalarDomain) -> HomogeneousPoly | UnivariatePoly:
    if not isinstance(obj, dict):
        raise TypeError(f"must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    coeffs = parse_scalars(obj["coeffs"], domain, "coeffs")
    if kind == "homogeneous":
        return HomogeneousPoly(obj["degree"], coeffs, domain)
    if kind == "sum_form":
        return UnivariatePoly(coeffs, domain)
    raise ValueError(f"unknown polynomial kind {kind!r}")
