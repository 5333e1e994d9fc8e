"""Integer kernels behind every engine.

Every function takes plain int lists and ``mod``: None for exact arithmetic
over Z, a prime p for F_p (inputs and results in [0, p)). Callers lift their
scalars to ints with a scale, call a kernel, and wrap the result in
Fraction/FpElement on return. Over F_p the scale is 1. Over Q each point
keeps its own denominator, a_r = A_r/d_r, so V = [a_r^(k-i)] is ``powers``'
row (A_r^k, A_r^(k-1) d_r, ..., d_r^k) over d_r^k, W likewise over e_s^k,
and A = V D_alpha W^T has entries (V D_c W^T)[r][s] / (E d_r^k e_s^k) for
coefficients c_i/E. The symmetric functions (Vandermonde product, H_m) take
a vector over its common denominator D instead: H_m(X/D) = H_m(X) / D^m.
"""

from __future__ import annotations

from operator import mul


def powers(xs: list[int], ds: list[int], k: int, mod: int | None = None) -> list[list[int]]:
    """Row r = (x_r^k, x_r^(k-1) d_r, ..., d_r^k): the descending powers of
    x_r/d_r scaled by d_r^k. Swapping xs and ds gives the ascending powers."""
    rows = []
    for x, d in zip(xs, ds):
        up, down = [1], [1]
        for _ in range(k):
            up.append(up[-1] * x if mod is None else up[-1] * x % mod)
            down.append(down[-1] * d if mod is None else down[-1] * d % mod)
        row = [u * v for u, v in zip(reversed(up), down)]
        rows.append(row if mod is None else [t % mod for t in row])
    return rows


def product(v: list[list[int]], c: list[int], w: list[list[int]], mod: int | None = None):
    """V * diag(c) * W^T: entry (r, s) is sum_i v[r][i] * c[i] * w[s][i]."""
    vc = [[x * y for x, y in zip(row, c)] for row in v]
    if mod is None:
        return [[sum(map(mul, u, t)) for t in w] for u in vc]
    vc = [[x % mod for x in u] for u in vc]
    return [[sum(map(mul, u, t)) % mod for t in w] for u in vc]


def sum_form(coeffs: list[int], xs: list[int], ys: list[int], mod: int | None = None):
    """[f(x_r + y_s)] by Horner, for f(t) = sum_i coeffs[i] t^i."""
    rc = coeffs[::-1]
    rows = []
    for x in xs:
        row = []
        for y in ys:
            t, acc = x + y, 0
            for c in rc:
                acc = acc * t + c if mod is None else (acc * t + c) % mod
            row.append(acc)
        rows.append(row)
    return rows


def vandermonde(xs: list[int], mod: int | None = None) -> int:
    """prod_{i<j} (x_j - x_i); 1 for fewer than two entries."""
    acc = 1
    for j, xj in enumerate(xs):
        for xi in xs[:j]:
            acc *= xj - xi
            if mod is not None:
                acc %= mod
    return acc


def h_table(xs: list[int], m: int, mod: int | None = None) -> list[int]:
    """H_0(xs), ..., H_m(xs), rolling H_d(x_1..x_j) = H_d(x_1..x_{j-1}) +
    x_j H_{d-1}(x_1..x_j) over one length-(m+1) row."""
    h = [1] + [0] * m
    for x in xs:
        for d in range(1, m + 1):
            h[d] = h[d] + x * h[d - 1] if mod is None else (h[d] + x * h[d - 1]) % mod
    return h


def echelon(a: list[list[int]], mod: int | None = None) -> tuple[int, int]:
    """Row echelon form of a, in place, column by column: fraction-free
    (Bareiss) over Z, where each division is exact by Sylvester's identity,
    and with the pivot inverse pow(x, -1, p) over F_p. Returns the rank and,
    for a square matrix of full rank, its determinant."""
    rank, sign, prev, d = 0, 1, 1, 1
    for c in range(len(a[0]) if a else 0):
        for i in range(rank, len(a)):
            if a[i][c]:
                break
        else:
            continue
        if i != rank:
            a[rank], a[i] = a[i], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[c]
        if mod is None:
            for row in a[rank + 1 :]:
                f = row[c]
                for j in range(c + 1, len(top)):
                    row[j] = (pivot * row[j] - f * top[j]) // prev
            prev = d = pivot
        else:
            d = d * pivot % mod
            inv = pow(pivot, -1, mod)
            for row in a[rank + 1 :]:
                f = row[c] * inv % mod
                if f:
                    for j in range(c + 1, len(top)):
                        row[j] = (row[j] - f * top[j]) % mod
        rank += 1
    return rank, sign * d if mod is None else sign * d % mod


def det(a: list[list[int]], mod: int | None = None) -> int:
    """Determinant of a square matrix; consumes a."""
    rank, d = echelon(a, mod)
    return d if rank == len(a) else 0
