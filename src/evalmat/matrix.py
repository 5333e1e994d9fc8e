"""Dense exact matrices, structured builders, and the determinant oracle.

``DenseMatrix`` holds ``Fraction``/``FpElement`` entries; every builder and
eliminator here lifts them to integers, runs the matching function of
``kernel``, and wraps the result back into scalars on return.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import kernel
from .poly import HomogeneousPoly, UnivariatePoly, binomial
from .scalar import (
    Scalar,
    ScalarDomain,
    format_scalar,
    normalize_scalars,
    parse_scalar,
    shared_domain,
)


class DenseMatrix:
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

    def __setattr__(self, name, val):
        raise AttributeError("DenseMatrix is immutable")

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
        left = [dom.lift(row) for row in self.entries]
        right = [dom.lift(col) for col in zip(*other.entries)]
        ones = [1] * self.cols
        rows = kernel.product([u for u, _ in left], ones, [w for w, _ in right], dom.modulus)
        return _wrap(rows, [d for _, d in left], [d for _, d in right], dom)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.domain,
        )

    def column_submatrix(self, cols: Iterable[int]) -> "DenseMatrix":
        cols = list(cols)
        return DenseMatrix([[row[c] for c in cols] for row in self.entries], self.domain)

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


class PointVectors:
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

    def __setattr__(self, name, val):
        raise AttributeError("PointVectors is immutable")

    @property
    def n(self) -> int:
        return len(self.a)

    def __repr__(self):
        return f"PointVectors(a={self.a!r}, b={self.b!r})"


def _wrap(rows: list[list[int]], row_den, col_den, dom: ScalarDomain) -> DenseMatrix:
    """The matrix with entries rows[r][s] / (row_den[r] * col_den[s])."""
    return DenseMatrix(
        [[dom.ratio(x, r * c) for x, c in zip(row, col_den)] for row, r in zip(rows, row_den)], dom
    )


def evaluation_matrix(p: HomogeneousPoly | UnivariatePoly, pts: PointVectors) -> DenseMatrix:
    """The n x n matrix [p(a_r, b_s)], or [f(a_r + b_s)] for sum-form f.

    Homogeneous p is built as the integer product V * D_c * W^T of the
    kernel's scaled power rows; the sum form runs Horner in a_r + b_s over
    one common point denominator D, with c_i D^(deg-i) folded in once.
    """
    dom = shared_domain(p, pts)
    mod = dom.modulus
    c, e = dom.lift(p.coeffs)
    if isinstance(p, UnivariatePoly):
        m = len(c) - 1
        xs, d = dom.lift(pts.a + pts.b)
        folded = [ci * d ** (m - i) for i, ci in enumerate(c)]
        rows = kernel.sum_form(folded, xs[: pts.n], xs[pts.n :], mod)
        return _wrap(rows, [e * d**m] * pts.n, [1] * pts.n, dom)
    k = p.degree
    na, da = dom.parts(pts.a)
    nb, db = dom.parts(pts.b)
    rows = kernel.product(kernel.powers(na, da, k, mod), c, kernel.powers(db, nb, k, mod), mod)
    return _wrap(rows, [e * x**k for x in da], [x**k for x in db], dom)


def vandermonde_desc(a: Sequence, k: int, domain: ScalarDomain | None = None) -> DenseMatrix:
    """n x (k+1) matrix with row r = (a_r^k, a_r^(k-1), ..., a_r^0)."""
    w = vandermonde_asc(a, k, domain)
    return DenseMatrix([row[::-1] for row in w.entries], w.domain)


def vandermonde_asc(b: Sequence, k: int, domain: ScalarDomain | None = None) -> DenseMatrix:
    """n x (k+1) matrix with row s = (b_s^0, b_s^1, ..., b_s^k)."""
    dom, vals = normalize_scalars(b, domain)
    nums, dens = dom.parts(vals)
    rows = kernel.powers(dens, nums, k, dom.modulus)
    return _wrap(rows, [d**k for d in dens], [1] * (k + 1), dom)


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
    c += [0] * (2 * n - 1 - len(c))
    rows = [[c[i + j] * binomial(i + j, i) for j in range(n)] for i in range(n)]
    return _wrap(rows, [e] * n, [1] * n, f.domain)


def vandermonde_product(xs: Sequence) -> Scalar:
    """prod_{i<j} (x_j - x_i); 1 for fewer than two entries. Computed as
    vdm(X) / D^C(n,2) for xs = X/D over one common denominator D."""
    dom, vals = normalize_scalars(xs)
    nums, den = dom.lift(vals)
    return dom.ratio(kernel.vandermonde(nums, dom.modulus), den ** binomial(len(nums), 2))


def bareiss_det(m: DenseMatrix) -> Scalar:
    """Exact determinant: the kernel eliminates the rows lifted to integers,
    each over its own common denominator (Bareiss over Z, Gaussian
    elimination with modular inverses over F_p)."""
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, not square")
    rows, den = [], 1
    for row in m.entries:
        nums, d = m.domain.lift(row)
        rows.append(nums)
        den *= d
    return m.domain.ratio(kernel.det(rows, m.domain.modulus), den)


def rank(m: DenseMatrix) -> int:
    """Exact rank, by the kernel's elimination on the row-wise integer lift."""
    return kernel.echelon([m.domain.lift(row)[0] for row in m.entries], m.domain.modulus)[0]


def minor_det(m: DenseMatrix, col_subset: Iterable[int]) -> Scalar:
    """Determinant of the square submatrix picking the given columns."""
    cols = sorted(col_subset)
    if len(cols) != m.rows:
        raise ValueError(
            f"column subset has size {len(cols)}, need {m.rows} for a square minor"
        )
    return bareiss_det(m.column_submatrix(cols))


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
