"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's elimination and symmetric-function
code paths so that agreement is meaningful.
"""

import itertools
from fractions import Fraction


def leibniz_det(rows):
    """Determinant by direct permutation expansion. O(n!) -- keep n <= 6."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = None
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if _perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def echelon_mod_p(rows, p):
    """(rank, det) of rows mod p by Gaussian elimination entry by entry, the
    F_p reference for kernel.echelon and kernel.det: no packing and no
    kernel code. p is a prime, or a product of primes as det_multimodular
    hands kernel.det, where a pivot that is no unit raises ValueError.

    The conventions are kernel.echelon's: column by column, the pivot is the
    first row at or below the rank with a nonzero entry, a row swap negates
    the sign, and the second value is the signed product of the pivots mod
    p, which is the determinant for a square matrix of full rank; no rows or
    no columns give (0, 1)."""
    a = [[x % p for x in row] for row in rows]
    rank, sign, d = 0, 1, 1
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
        d = d * top[c] % p
        inv = pow(top[c], -1, p)
        for row in a[rank + 1 :]:
            f = row[c] * inv % p
            if f:
                for j in range(c + 1, len(top)):
                    row[j] = (row[j] - f * top[j]) % p
        rank += 1
    return rank, sign * d % p


def det_mod_p(rows, p):
    """det of a square matrix mod p, by echelon_mod_p."""
    rank, d = echelon_mod_p(rows, p)
    return d if rank == len(rows) else 0


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def h_brute(m, xs):
    """Sum of all degree-m monomials in xs, by explicit enumeration."""
    if m < 0:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    if not xs:
        return Fraction(0)
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(len(xs)), m):
        term = Fraction(1)
        for idx in combo:
            term = term * xs[idx]
        total += term
    return total
