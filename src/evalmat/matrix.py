"""Dense exact matrices, structured builders, and their integer images.

``DenseMatrix`` holds ``Fraction``/``FpElement`` entries and is the API
type: what a caller passes in or gets back. The engines consume the integer
image instead: ``evaluation_image`` and ``power_image`` build the kernel's
integer rows with their per-row and per-column denominators, and the engines
eliminate those rows with one division at the end. The ``DenseMatrix``
builders here wrap an image in scalars only on return, and ``bareiss_det``
lifts a given ``DenseMatrix`` back to integers for the kernel.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import kernel
from .poly import HomogeneousPoly, UnivariatePoly, binomial
from .scalar import (
    Immutable,
    Scalar,
    ScalarDomain,
    format_scalar,
    normalize_scalars,
    parse_scalar,
    shared_domain,
)


class DenseMatrix(Immutable):
    """Immutable row-major matrix; every entry shares one scalar domain."""

    __slots__ = ("rows", "cols", "entries", "domain")

    def __init__(self, rows: Sequence[Sequence], domain: ScalarDomain | None = None):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have unequal lengths")
        dom, flat = normalize_scalars([x for r in rows for x in r], domain)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(
            self,
            "entries",
            tuple(flat[i * ncols : (i + 1) * ncols] for i in range(len(rows))),
        )
        object.__setattr__(self, "domain", dom)

    def __getitem__(self, r: int):
        return self.entries[r]

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        dom = shared_domain(self, other)
        left, left_den = _lift_rows(self.entries, dom)
        right, right_den = _lift_rows(zip(*other.entries), dom)
        rows = kernel.product(left, [1] * self.cols, right, dom.modulus)
        return _wrap(rows, left_den, right_den, dom)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.domain,
        )

    @classmethod
    def diagonal(cls, values: Sequence, domain: ScalarDomain | None = None) -> "DenseMatrix":
        dom, vals = normalize_scalars(values, domain)
        n = len(vals)
        return cls(
            [[vals[i] if i == j else dom.zero for j in range(n)] for i in range(n)], dom
        )

    @classmethod
    def identity(cls, n: int, domain: ScalarDomain) -> "DenseMatrix":
        return cls.diagonal([domain.one] * n, domain)


class PointVectors(Immutable):
    """The evaluation points a = (a_1..a_n), b = (b_1..b_n), one domain."""

    __slots__ = ("a", "b", "domain")

    def __init__(self, a: Sequence, b: Sequence, domain: ScalarDomain | None = None):
        a, b = list(a), list(b)
        if len(a) != len(b):
            raise ValueError("point vectors a and b must have equal length")
        dom, merged = normalize_scalars(a + b, domain)
        n = len(a)
        object.__setattr__(self, "a", merged[:n])
        object.__setattr__(self, "b", merged[n:])
        object.__setattr__(self, "domain", dom)

    @property
    def n(self) -> int:
        return len(self.a)

    def __repr__(self):
        return f"PointVectors(a={self.a!r}, b={self.b!r})"


def _lift_rows(rows: Iterable[Sequence], dom: ScalarDomain):
    """Each row over its own common denominator, as (int rows, dens)."""
    lifted = [dom.lift(row) for row in rows]
    return [nums for nums, _ in lifted], [d for _, d in lifted]


def _det(rows: Iterable[Sequence], dom: ScalarDomain) -> Scalar:
    """The kernel's determinant of the lifted rows, over their dens' product."""
    nums, dens = _lift_rows(rows, dom)
    return dom.ratio(kernel.det(nums, dom.modulus), math.prod(dens))


def _wrap(rows: list[list[int]], row_den, col_den, dom: ScalarDomain) -> DenseMatrix:
    """The matrix with entries rows[r][s] / (row_den[r] * col_den[s])."""
    return DenseMatrix(
        [[dom.ratio(x, r * c) for x, c in zip(row, col_den)] for row, r in zip(rows, row_den)], dom
    )


def power_image(xs: Sequence, k: int, dom: ScalarDomain, descending: bool = False):
    """The powers x_r^0, ..., x_r^k of each x_r = n_r / d_r (x_r^k first if
    descending) as integer rows over d_r^k: (rows, dens) with
    x_r^i = rows[r][i] / dens[r]. Over F_p every d_r is 1."""
    nums, dens = dom.parts(xs)
    mod = dom.modulus
    rows = kernel.powers(nums, dens, k, mod) if descending else kernel.powers(dens, nums, k, mod)
    return rows, [d**k for d in dens]


def evaluation_image(p: HomogeneousPoly | UnivariatePoly, pts: PointVectors, det: bool = False):
    """The integer image of the evaluation matrix: (rows, row_den, col_den,
    domain) with A[r][s] = rows[r][s] / (row_den[r] * col_den[s]); with det,
    the kernel's determinant of those rows in their place, so that
    det A = rows / (prod(row_den) * prod(col_den)).

    Homogeneous p is the integer product V * D_c * W^T of power_image's rows
    of a (descending) and b (ascending), over E * d_r^k and e_s^k for
    coefficients c_i / E; the sum form runs Horner in a_r + b_s over one
    common point denominator D, with c_i D^(deg-i) folded in once. The
    determinant comes from kernel.product_det and kernel.sum_form_det, which
    pick its route: over Z by CRT where n^3 * bit_length(2H) reaches
    kernel.MULTIMODULAR_MIN_SIZE for H the rows' Hadamard bound, and by
    Bareiss below; over F_p on a large product's packed rows, never
    unpacked.
    """
    dom = shared_domain(p, pts)
    mod = dom.modulus
    c, e = dom.lift(p.coeffs)
    if isinstance(p, UnivariatePoly):
        m = len(c) - 1
        xs, d = dom.lift(pts.a + pts.b)
        folded = [ci * d ** (m - i) for i, ci in enumerate(c)]
        sum_form = kernel.sum_form_det if det else kernel.sum_form
        return sum_form(folded, xs[: pts.n], xs[pts.n :], mod), [e * d**m] * pts.n, [1] * pts.n, dom
    v, v_den = power_image(pts.a, p.degree, dom, descending=True)
    w, w_den = power_image(pts.b, p.degree, dom)
    product = kernel.product_det if det else kernel.product
    return product(v, c, w, mod), [e * x for x in v_den], w_den, dom


def evaluation_matrix(p: HomogeneousPoly | UnivariatePoly, pts: PointVectors) -> DenseMatrix:
    """The n x n matrix [p(a_r, b_s)], or [f(a_r + b_s)] for sum-form f."""
    return _wrap(*evaluation_image(p, pts))


def vandermonde_desc(a: Sequence, k: int, domain: ScalarDomain | None = None) -> DenseMatrix:
    """n x (k+1) matrix with row r = (a_r^k, a_r^(k-1), ..., a_r^0)."""
    dom, vals = normalize_scalars(a, domain)
    rows, dens = power_image(vals, k, dom, descending=True)
    return _wrap(rows, dens, [1] * (k + 1), dom)


def vandermonde_asc(b: Sequence, k: int, domain: ScalarDomain | None = None) -> DenseMatrix:
    """n x (k+1) matrix with row s = (b_s^0, b_s^1, ..., b_s^k)."""
    dom, vals = normalize_scalars(b, domain)
    rows, dens = power_image(vals, k, dom)
    return _wrap(rows, dens, [1] * (k + 1), dom)


def factorization_parts(p: HomogeneousPoly, pts: PointVectors):
    """The factors (V, D_alpha, W) with A = V * D_alpha * W^T."""
    k = p.degree
    v = vandermonde_desc(pts.a, k, pts.domain)
    w = vandermonde_asc(pts.b, k, pts.domain)
    d = DenseMatrix.diagonal(p.coeffs, p.domain)
    return v, d, w


def pascal_core(f: UnivariatePoly, n: int) -> DenseMatrix:
    """n x n coefficient grid of f(x+y): cell (i, j) = alpha_{i+j} * C(i+j, i)."""
    if n < 1:
        raise ValueError("grid dimension must be >= 1")
    c, e = f.domain.lift(f.coeffs)
    return _wrap(kernel.pascal(c, n, f.domain.modulus), [e] * n, [1] * n, f.domain)


def vandermonde_product(xs: Sequence) -> Scalar:
    """prod_{i<j} (x_j - x_i); 1 for fewer than two entries. Computed as
    vdm(X) / D^C(n,2) for xs = X/D over one common denominator D."""
    dom, vals = normalize_scalars(xs)
    nums, den = dom.lift(vals)
    return dom.ratio(kernel.vandermonde(nums, dom.modulus), den ** binomial(len(nums), 2))


def bareiss_det(m: DenseMatrix) -> Scalar:
    """Exact determinant of the rows lifted to integers, each over its own
    common denominator, by ``kernel.det``: cofactors, Bareiss over Z or
    elimination mod p, picked by the row count alone."""
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, not square")
    return _det(m.entries, m.domain)


def rank(m: DenseMatrix) -> int:
    """Exact rank, by the kernel's elimination on the row-wise integer lift."""
    return kernel.echelon(_lift_rows(m.entries, m.domain)[0], m.domain.modulus)[0]


def minor_det(m: DenseMatrix, col_subset: Iterable[int]) -> Scalar:
    """Determinant of the square submatrix picking the given columns."""
    cols = sorted(col_subset)
    if len(cols) != m.rows:
        raise ValueError(
            f"column subset has size {len(cols)}, need {m.rows} for a square minor"
        )
    return _det([[row[c] for c in cols] for row in m.entries], m.domain)


def matrix_to_json(m: DenseMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[format_scalar(x) for x in row] for row in m.entries],
    }


def matrix_from_json(obj: dict, domain: ScalarDomain) -> DenseMatrix:
    entries = [[parse_scalar(s, domain) for s in row] for row in obj["entries"]]
    m = DenseMatrix(entries, domain)
    if m.rows != obj["rows"] or m.cols != obj["cols"]:
        raise ValueError("matrix entries do not match declared dimensions")
    return m
