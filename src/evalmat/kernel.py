"""Integer kernels behind every engine.

Every function takes plain int lists and ``mod``: None for exact arithmetic
over Z, a prime p for F_p (inputs and results in [0, p)); ``det`` also takes
a product of distinct primes (see the last paragraph). No function changes
the lists it is given, and ``det`` and ``echelon`` take tuple rows too.
The engines stay on this integer image: they build a matrix as int rows
with its row and column denominators and divide once by their product at
the end. Fraction/FpElement, and the DenseMatrix that holds them, appear
only at the API edge, where a caller passes scalars in or takes a matrix
or value back.
Over F_p every denominator is 1. Over Q each point keeps its own
denominator, a_r = A_r/d_r, so V = [a_r^(k-i)] is ``powers``' row
(A_r^k, A_r^(k-1) d_r, ..., d_r^k) over d_r^k, W likewise over e_s^k,
and A = V D_alpha W^T has entries (V D_c W^T)[r][s] / (E d_r^k e_s^k) for
coefficients c_i/E. The symmetric functions (Vandermonde product, H_m) take
a vector over its common denominator D instead: H_m(X/D) = H_m(X) / D^m.

Packed rows over F_p. ``echelon``, ``product`` and ``sum_form`` hold a
whole row (or column) of residues in one Python int, entry j in bits
[j*w, (j+1)*w) with w a whole number of bytes, so that a row operation is
one big-int multiply and add done by CPython in C. Every slot only ever
grows by adding products of residues in [0, p), so it cannot borrow from
its neighbour. A product over k terms puts up to k (p-1)^2 in a slot, and
each elimination step adds at most (p-1)^2 more (a multiple g < p of the
reduced pivot row), so (k + rows) (p-1)^2 + p bounds every slot of a
packed builder's rows (``_product_packed``, ``_pascal_packed``, and
``echelon``'s with k = 0) until they are eliminated. One slot rule,
``_slot_bytes``, sizes every slot for twice that bound: no slot carries
into its neighbour, and each keeps the spare top bit that
``_reduce_slots`` needs. ``_reduce_slots`` reduces every slot of a packed
int mod p in place in a few big-int operations (a Barrett step on the
even and then the odd slots, each alone in a 2w-bit lane), from masks and
a multiplier built once per elimination or table: ``_eliminate`` reduces
each pivot row's remaining slots by it, and ``_pascal_packed`` the columns
of Y P, so the sum form's A = X P Y^T is two products with nothing
unpacked between them. The step is exact for any modulus, so
``det_multimodular``'s prime products take the same packed elimination.
Every other slot is reduced when it is read. The
builders return A's rows unreduced with their slot size: ``product_det``
and ``sum_form_det`` eliminate them as they are, so the oracle's A is
never unpacked, and ``product`` and ``sum_form`` unpack each row once for
the callers that need its entries as lists (``evaluation_matrix``,
``evalmat matrix``). ``_pack_rows`` packs every table, in one pass where
its entries are residues below the slot width, by strided byte copies out
of one array of 64-bit words: W's columns in ``product``, Y's power
columns in ``sum_form`` and ``echelon``'s rows. ``_pack``, one
``to_bytes`` per entry, serves only its fallback: every row of a table
with any other entry, which it reduces. Packing and unpacking cost a few
interpreted operations per entry, which a builder's n x n table pays back
only from about PACK_MIN rows on; below that ``product`` and ``sum_form``
build entry by entry (every ffprob trial's entries). PACK_MIN gates only
these builders and their ``_det`` forms. Elimination mod p packs at every
size: past ``det``'s BAREISS_MAX_N rows it beats an entry-by-entry loop
but for the smallest moduli (CHANGES.md), and below them only
``matrix.rank`` reaches it. The entry-by-entry elimination mod p that it is
tested against is ``echelon_mod_p`` in tests/oracles.py.

Multimodular determinant over Z. Bareiss' intermediate integers are the
leading minors of the matrix, so its cost follows their size, not only
that of the result. ``det_multimodular`` instead takes det mod 62-bit
primes p_1 > p_2 > ... (downward from 2^62, found on first use) and joins
the residues by incremental CRT: x += M ((r - x) / M mod q), M *= q. It
stops once M exceeds 2H, for H the smaller of the row and column Hadamard
bounds (the products of the row or column Euclidean norms) >= |det|, and
returns the residue of x in (-M/2, M/2]. The result is exact and
deterministic: every prime up to the bound is used, and none is skipped on
an early agreement. Each modulus q is the product of up to
MULTIMODULAR_GROUP consecutive primes, eliminated at once by the same
``det``: a row operation on a few wide slots costs less than the
interpreted overhead of one elimination per prime. A group stops taking
primes where one prime at a time would stop, so M and the primes used do
not depend on the group size. Elimination over Z/q is exact while every
pivot is a unit mod q; a pivot that shares a prime with q makes
pow(pivot, -1, q) raise ValueError, and that group is then redone prime by
prime. The cost follows H, so the route pays only where Bareiss' leading
minors grow, and on an evaluation image A they grow with its size: n rows
and the bits of H. ``_image_det`` takes the route where
n^3 * bit_length(2H) >= MULTIMODULAR_MIN_SIZE, for n > BAREISS_MAX_N rows,
the crossover of a grid of 68 images (homogeneous with 10- to 160-bit
integer points or num/den points, and sum forms, at n = 8..26; CHANGES.md),
on which every shape runs on its faster route or within 1.2x of it. So
20-bit points take it from n = 20 on (n = 29: about 330 against 940 ms),
10-bit points from n = 23 and 160-bit points from n = 13. ``_image_det``
computes H once, for the rule and the CRT loop; none at or below
BAREISS_MAX_N rows, where CRT never won, and none where the rows' largest
entries already bound the size below the threshold (about 7 against 100
microseconds on a 12-row image of 20-bit points). Only the determinants
of that image over Z use the route: ``product_det`` and ``sum_form_det``,
by way of ``_image_det``. ``det`` itself never does. W's ascending powers keep
Bareiss' minors small while H stays large: at n = 29, W took 75 ms by
Bareiss against 250 ms by CRT one prime at a time.
(The Jacobi-Trudi determinants of the Cauchy-Binet H route reach this
kernel only as their l(lam) x l(lam) block or through ``minors``, and not
at all at n = k+1, where lam is empty.)

All maximal minors at once. The Cauchy-Binet expansion needs det of the
first n entries of every n of m rows, C(m, n) determinants that share
their smaller minors. ``minors`` builds them level by level: level r holds
the minors of every r rows on the first r columns, each expanded along
column r-1 over level r-1, with the rows, positions and cofactor signs it
reads fixed by (m, n) alone: one call takes every table of that shape and
builds this plan once for all of them, and no plan outlives the call.
The levels below n can outgrow level n (m = n = 95 would need about 2^95
minors); ``det.det_cauchy_binet`` states the rule by which the H route
takes this pass or calls ``det`` per minor.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, repeat
from operator import mul

from .scalar import is_prime

# the F_p builders (product, product_det, sum_form, sum_form_det) pack
# their rows from this many rows (and columns) on; see the crossover table
# in CHANGES.md. Elimination mod p packs at every size
PACK_MIN = 16

# product_det and sum_form_det eliminate an integer image of n rows over Z
# by det_multimodular where n^3 * bit_length(2H) reaches this size, for H
# its Hadamard bound, and by det below; see the grid in CHANGES.md
MULTIMODULAR_MIN_SIZE = 54_500_000

# det_multimodular eliminates modulo the product of this many consecutive
# primes at a time; see the group-size table in CHANGES.md
MULTIMODULAR_GROUP = 4

# sum_form's Horner over F_p reduces once per entry up to this deg f *
# bit_length(p), and every step above; see ffprob's table in CHANGES.md
HORNER_MAX_BITS = 1300

# det runs Bareiss over Z, whatever the modulus, up to this many rows, and
# eliminates mod the modulus above; see the crossover table in CHANGES.md
BAREISS_MAX_N = 8


def powers(xs: list[int], ds: list[int], k: int, mod: int | None = None) -> list[list[int]]:
    """Row r = (x_r^k, x_r^(k-1) d_r, ..., d_r^k): the descending powers of
    x_r/d_r scaled by d_r^k. Swapping xs and ds gives the ascending powers."""
    rows = []
    for x, d in zip(xs, ds):
        # a unit scale (every d_r over F_p, x = 1 in W) leaves one power list
        if d == 1:
            rows.append(_ladder(x, k, mod)[::-1])
        elif x == 1:
            rows.append(_ladder(d, k, mod))
        else:
            row = [u * v for u, v in zip(reversed(_ladder(x, k, mod)), _ladder(d, k, mod))]
            rows.append(row if mod is None else [t % mod for t in row])
    return rows


def _ladder(x: int, k: int, mod: int | None) -> list[int]:
    """1, x, ..., x^k."""
    out, t = [1], 1
    for _ in range(k):
        t = t * x if mod is None else t * x % mod
        out.append(t)
    return out


def _slot_bytes(products: int, mod: int) -> int:
    """Bytes per slot of packed F_p rows whose slots take up to ``products``
    products of residues and one residue: the least w, in whole bytes, with
    2^w > 2 (products (p-1)^2 + p), so that every slot also keeps the spare
    top bit that ``_reduce_slots`` needs."""
    return ((2 * (products * (mod - 1) ** 2 + mod)).bit_length() + 7) // 8


def _pack(row: list[int], size: int, mod: int) -> int:
    """The residues of row, entry j in slot j of size bytes."""
    return int.from_bytes(b"".join([(x % mod).to_bytes(size, "little") for x in row]), "little")


def _pack_rows(rows: list, size: int, mod: int) -> list[int]:
    """[_pack(row, size, mod) for row in rows], in one pass where every entry
    is a residue below 2^(8 size): all rows go into one array of 64-bit
    words, which refuses negative and wider entries, and byte b of every
    word is copied into byte b of its slot by one strided slice. Any other
    entry sends every row through _pack."""
    flat = list(chain.from_iterable(rows))
    try:
        words = array("Q", flat)
    except OverflowError:
        words = None
    if words is None or flat and max(flat) >= min(mod, 1 << 8 * size):
        return [_pack(row, size, mod) for row in rows]
    if sys.byteorder == "big":
        words.byteswap()
    raw, out, step = words.tobytes(), bytearray(len(flat) * size), words.itemsize
    for b in range(min(size, step)):
        out[b::size] = raw[b::step]
    view, packed, at = memoryview(out), [], 0
    for row in rows:
        packed.append(int.from_bytes(view[at : at + len(row) * size], "little"))
        at += len(row) * size
    return packed


def _unpack(packed: int, count: int, size: int, mod: int) -> list[int]:
    """The count slots of packed, each reduced mod p."""
    raw = packed.to_bytes(count * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") % mod for i in range(0, len(raw), size)]


def product(v: list[list[int]], c: list[int], w: list[list[int]], mod: int | None = None):
    """V * diag(c) * W^T: entry (r, s) is sum_i v[r][i] * c[i] * w[s][i].
    Over F_p from PACK_MIN rows on, _product_packed's rows unpacked once each."""
    if len(v) >= PACK_MIN and len(w) >= PACK_MIN and mod is not None:
        rows, size = _product_packed(v, c, w, mod)
        return [_unpack(row, len(w), size, mod) for row in rows]
    vc = [[x * y for x, y in zip(row, c)] for row in v]
    if mod is None:
        return [[sum(map(mul, u, t)) for t in w] for u in vc]
    vc = [[x % mod for x in u] for u in vc]
    return [[sum(map(mul, u, t)) % mod for t in w] for u in vc]


def product_det(v: list[list[int]], c: list[int], w: list[list[int]], mod: int | None = None) -> int:
    """det(V * diag(c) * W^T) for len(v) == len(w): over F_p from PACK_MIN
    rows on, ``_eliminate`` on _product_packed's rows as they are; otherwise
    _image_det(product(...))."""
    if len(v) >= PACK_MIN and len(w) >= PACK_MIN and mod is not None:
        rows, size = _product_packed(v, c, w, mod)
        rank, d = _eliminate(rows, len(w), size, mod)
        return d if rank == len(v) else 0
    return _image_det(product(v, c, w, mod), mod)


def _image_det(rows: list[list[int]], mod: int | None) -> int:
    """The determinant of an evaluation image: over Z by det_multimodular
    where Bareiss' leading minors grow, n^3 * bit_length(2H) >=
    MULTIMODULAR_MIN_SIZE for n > BAREISS_MAX_N rows and H their Hadamard
    bound, which is computed once; otherwise by det.
    H is not computed where a bound from each row's largest entry already
    keeps the size below the threshold: each row's norm is below
    sqrt(n) 2^b for b the bit length of that entry, so bit_length(2H) <=
    1 + n bit_length(n) + the sum of those b."""
    n = len(rows)
    if mod is None and n > BAREISS_MAX_N:
        bits = 1 + n * n.bit_length() + sum(max(map(abs, row)).bit_length() for row in rows)
        if n**3 * bits >= MULTIMODULAR_MIN_SIZE:
            limit = _crt_limit(rows)
            if n**3 * limit.bit_length() >= MULTIMODULAR_MIN_SIZE:
                return det_multimodular(rows, limit)
    return det(rows, mod)


def _product_packed(v, c, w, mod):
    """The packed rows of V * diag(c) * W^T over F_p, unreduced, and their
    slot size in bytes, wide enough for the product and len(v) elimination
    steps: each column i of W packed across s, and row r the packed sum of
    (v[r][i] c[i] mod p) * column_i."""
    size = _slot_bytes(len(c) + len(v), mod)
    cols = _pack_rows(list(zip(*w)), size, mod)
    return [sum(map(mul, [x * y % mod for x, y in zip(row, c)], cols)) for row in v], size


def pascal(coeffs: list[int], n: int, mod: int | None = None) -> list[list[int]]:
    """n x n grid of the coefficients of f(x+y) = sum_{i,j} P[i][j] x^i y^j:
    P[i][j] = coeffs[i+j] * C(i+j, i), 0 past the last coefficient."""
    grid = [[0] * n for _ in range(n)]
    binom = [1]  # C(t, 0..t) on anti-diagonal i + j = t
    for t in range(min(len(coeffs), 2 * n - 1)):
        for i in range(max(0, t - n + 1), min(t, n - 1) + 1):
            cell = coeffs[t] * binom[i]
            grid[i][t - i] = cell if mod is None else cell % mod
        binom = [1] + [x + y if mod is None else (x + y) % mod for x, y in zip(binom, binom[1:])] + [1]
    return grid


def sum_form(coeffs: list[int], xs: list[int], ys: list[int], mod: int | None = None):
    """[f(x_r + y_s)] for f(t) = sum_i coeffs[i] t^i, by Horner in x_r + y_s
    entry by entry, or over F_p from the Pascal grid, whose packed rows
    (_pascal_packed) are unpacked once each.
    Over F_p, Horner runs over Z and reduces each entry once while
    deg f * bit_length(p) <= HORNER_MAX_BITS, and reduces every step past it."""
    if _pascal_pays(coeffs, xs, ys, mod):
        rows, size = _pascal_packed(coeffs, xs, ys, mod)
        return [_unpack(row, len(ys), size, mod) for row in rows]
    # Horner from the leading coefficient, reduced over F_p so that a
    # constant f is too; no coefficients give f = 0
    top, rc = (coeffs[-1], coeffs[-2::-1]) if coeffs else (0, ())
    if mod is not None:
        top %= mod
    each_step = mod is not None and (len(coeffs) - 1) * mod.bit_length() > HORNER_MAX_BITS
    once = mod is not None and not each_step
    rows = []
    for x in xs:
        row = []
        for y in ys:
            t, acc = x + y, top
            if each_step:
                for c in rc:
                    acc = (acc * t + c) % mod
            else:
                for c in rc:
                    acc = acc * t + c
            row.append(acc % mod if once else acc)
        rows.append(row)
    return rows


def sum_form_det(coeffs: list[int], xs: list[int], ys: list[int], mod: int | None = None) -> int:
    """det [f(x_r + y_s)]: where sum_form takes the Pascal grid, ``_eliminate``
    on _pascal_packed's rows as they are; otherwise _image_det(sum_form(...))."""
    if _pascal_pays(coeffs, xs, ys, mod):
        rows, size = _pascal_packed(coeffs, xs, ys, mod)
        rank, d = _eliminate(rows, len(ys), size, mod)
        return d if rank == len(xs) else 0
    return _image_det(sum_form(coeffs, xs, ys, mod), mod)


def _pascal_pays(coeffs, xs, ys, mod):
    """Whether sum_form takes the packed Pascal route: over F_p, from PACK_MIN
    rows on, and while the (deg+1)^2 grid is no larger than the n x n
    result, deg f < n."""
    return len(xs) >= PACK_MIN and len(ys) >= PACK_MIN and 0 < len(coeffs) <= len(xs) and mod is not None


def _pascal_packed(coeffs, xs, ys, mod):
    """The packed rows of X * P * Y^T over F_p, for X = [x_r^i], Y = [y_s^j]
    and the symmetric Pascal grid P of f, and their slot size in bytes.
    Column i of Y P is row i of P Y^T, P's row i against Y's packed power
    columns; its slots are reduced in place (_reduce_slots), and row r is
    X's row r against those columns. One slot size serves both products and
    the elimination: _slot_bytes for deg f + 1 + len(xs) products."""
    m = len(coeffs) - 1
    size = _slot_bytes(m + 1 + len(xs), mod)
    ycols = _pack_rows(list(zip(*powers([1] * len(ys), ys, m, mod))), size, mod)
    reduce = _reduce_slots(len(ys), size, mod)
    cols = [reduce(sum(map(mul, row, ycols))) for row in pascal(coeffs, m + 1, mod)]
    return [sum(map(mul, row, cols)) for row in powers([1] * len(xs), xs, m, mod)], size


def _reduce_slots(count, size, mod):
    """The function that reduces mod p, in place, every slot of a packed int
    of up to count slots of size bytes, each below 2^(w-1), w = 8 size; its
    masks and multiplier are built here, once per table or elimination.
    The even and the odd slots each sit alone in a 2w-bit lane, where
    x - p * floor(x * M / 2^s), with s = w - 1 + bit_length(p) and
    M = floor(2^s / p) + 1, is x mod p for any modulus p (division by an
    invariant integer, Granlund and Montgomery, PLDI 1994): x * M <
    2^(w-1) (2^w + 1) stays in its lane, and its quotient, below
    2^(w - bit_length(p)), is masked off from the next lane's product, which
    comes in at bit 2w - s."""
    w = 8 * size
    s = w - 1 + mod.bit_length()
    factor = (1 << s) // mod + 1
    lanes = (count + 1) // 2
    even = int.from_bytes((b"\xff" * size + bytes(size)) * lanes, "little")
    quotients = int.from_bytes(((1 << 2 * w - s) - 1).to_bytes(2 * size, "little") * lanes, "little")

    def reduce(x):
        lo, hi = x & even, x >> w & even
        lo -= (lo * factor >> s & quotients) * mod
        hi -= (hi * factor >> s & quotients) * mod
        return lo | hi << w

    return reduce


def vandermonde(xs: list[int], mod: int | None = None) -> int:
    """prod_{i<j} (x_j - x_i); 1 for fewer than two entries. Over F_p the
    points go in pairs, a = x_j and b = x_(j+1), against each earlier point
    u: (a - u)(b - u) = u (u - s) + q for s = a + b and q = a b, one product
    per two differences. Two pairs share each u, and the product is reduced
    once per four such factors; up to three last points go one difference
    at a time. Shifting every point by -floor(p/2) leaves each difference
    as it is and keeps residues of p < 2^31 in one 30-bit digit of
    CPython's ints, whose arithmetic takes a shorter path."""
    acc = 1
    if mod is None:
        for j, xj in enumerate(xs):
            for xi in xs[:j]:
                acc *= xj - xi
        return acc
    n, half = len(xs), mod // 2
    xs = [x - half for x in xs]
    for j in range(0, n - 3, 4):
        a, b, c, d = xs[j : j + 4]
        s, q, t, r = a + b, a * b, c + d, c * d
        for u, v in zip(xs[:j:2], xs[1:j:2]):
            acc = acc * ((u * (u - s) + q) * (u * (u - t) + r) * (v * (v - s) + q) * (v * (v - t) + r)) % mod
        acc = acc * ((b - a) * (c - a) * (d - a) * (c - b) * (d - b) * (d - c)) % mod
    for j in range(n - n % 4, n):
        for u in xs[:j]:
            acc = acc * (xs[j] - u) % mod
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
    """Row echelon form of a, column by column. Over F_p, ``_eliminate`` on
    a's rows packed in slots wide enough for len(a) steps, with the pivot
    inverse pow(x, -1, p), at every shape; over Z, fraction-free (Bareiss)
    on a copy of a, where each division is exact by Sylvester's identity.
    Returns the rank and, for a square matrix of full rank, its
    determinant; (0, 1) for no rows or no columns."""
    if mod is not None:
        size = _slot_bytes(len(a), mod)
        return _eliminate(_pack_rows(a, size, mod), len(a[0]) if a else 0, size, mod)
    # the packed route only reads a's rows; Bareiss changes a copy
    a = [list(row) for row in a]
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
        for row in a[rank + 1 :]:
            f = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = d = pivot
        rank += 1
    return rank, sign * d


def _eliminate(live, cols, size, mod):
    """Elimination over F_p on packed rows of cols slots, each size bytes.
    The current column is always slot 0: each step shifts it out of every
    row and adds g = -h/pivot mod p (so 0 <= g < p) times the pivot row's
    remaining slots, reduced in place by ``_reduce_slots``, to each row with
    h in slot 0. Other slots need not be reduced: h and the pivot are
    reduced when read."""
    shift = 8 * size
    mask = (1 << shift) - 1
    reduce = _reduce_slots(cols, size, mod)
    rank, sign, d = 0, 1, 1
    for c in range(cols):
        for i, row in enumerate(live):
            pivot = (row & mask) % mod
            if pivot:
                break
        else:
            live = [row >> shift for row in live]
            continue
        if i:
            live[0], live[i] = live[i], live[0]
            sign = -sign
        d = d * pivot % mod
        neg_inv = mod - pow(pivot, -1, mod)
        top = reduce(live[0] >> shift)
        live = [(row >> shift) + (neg_inv * (row & mask) % mod) * top for row in live[1:]]
        rank += 1
        if not live:
            break
    return rank, sign * d % mod


def det(a: list[list[int]], mod: int | None = None) -> int:
    """Determinant of a square matrix by the route its row count picks: 1 to
    4 rows by cofactors, 0 and 5 to BAREISS_MAX_N by Bareiss, both over Z
    and reduced mod ``mod`` once, which is exact for any modulus
    (det_multimodular's prime products too); more by ``echelon``'s packed
    elimination mod ``mod``, a prime or such a product, where a pivot that
    is no unit mod ``mod`` raises ValueError."""
    if 0 < len(a) <= 4:
        d = _cofactor_det(a)
    else:
        rank, d = echelon(a, None if len(a) <= BAREISS_MAX_N else mod)
        d = d if rank == len(a) else 0
    return d if mod is None else d % mod


def _cofactor_det(m: list[list[int]]) -> int:
    """The determinant over Z of an n x n matrix, 1 <= n <= 4, by explicit
    formulas: Sarrus' rule at n = 3, and at n = 4 the Laplace expansion by
    the 2x2 minors of rows 0-1 against their complements in rows 2-3."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def minors(tables: list[list[list[int]]], n: int, mod: int | None = None) -> list[list[int]]:
    """For each table of one shape (the same number of rows, each with at
    least n entries), det of the first n entries of rows[i], i in each
    n-combination of range(len(rows)), in itertools.combinations order: the
    determinants that ``det`` gives, all at once, reduced into [0, mod) when
    mod is given. One list per table, in the order of tables.

    Level r holds the minors of every r rows on columns 0..r-1, each the
    Laplace expansion along column r-1 over level r-1: r products per minor
    at level r, against one n x n elimination per minor for ``det``. The
    levels run over the rows reversed, in colex order, where the r-row
    combinations whose last row is j come after every combination of rows
    below j, so each level's plan (per cofactor t: the row read and the
    level r-1 position of the minor without it) is built from the last by
    slices and offsets, with no search and no memo. The plan depends on the
    shape alone, so it is built once per call and read by every table.
    Colex order over the reversed rows is combinations order reversed, and
    each minor then reads its rows bottom up, which costs (-1)^C(n,2), put
    on column 0. Each level is reduced mod ``mod`` once. The levels below n
    can outgrow level n; ``det.det_cauchy_binet`` states the rule by which
    the H route calls this pass."""
    if not n:
        return [[1] for _ in tables]
    m = len(tables[0])
    tables = [rows[::-1] for rows in tables]
    sign = -1 if n % 4 > 1 else 1
    levels = [[sign * row[0] if mod is None else sign * row[0] % mod for row in rows] for rows in tables]
    # level 1's plan: combination (i,) reads row i, and the empty minor at 0
    plan = [(range(m), [0] * m)]
    for r in range(2, n + 1):
        # level r's combinations ending in row j, j = r-1..m-1, number
        # C(j, r-1), as do level r-1's combinations of rows below j
        sizes = [math.comb(j, r - 1) for j in range(r - 1, m)]
        plan = [
            (list(chain.from_iterable(rows_t[:s] for s in sizes)), [s + x for s in sizes for x in below_t[:s]])
            for rows_t, below_t in plan
        ]
        last = list(chain.from_iterable(map(repeat, range(r - 1, m), sizes)))
        plan.append((last, list(chain.from_iterable(map(range, sizes)))))
        (first, below), *rest = plan
        for slot, (rows, level) in enumerate(zip(tables, levels)):
            # column r-1 as it stands and negated: cofactor t reads
            # signed[(t + r - 1) % 2], its sign (-1)^(t+r-1)
            col = [row[r - 1] for row in rows]
            signed = (col, [-x for x in col])
            acc = [signed[(r - 1) % 2][i] * level[j] for i, j in zip(first, below)]
            for parity, (rows_t, below_t) in enumerate(rest, r):
                c = signed[parity % 2]
                acc = [a + c[i] * level[j] for a, i, j in zip(acc, rows_t, below_t)]
            levels[slot] = acc if mod is None else [x % mod for x in acc]
    return [level[::-1] for level in levels]


# det_multimodular's primes, descending from 2^62; found on first use, never
# at import, and kept for the life of the process
PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The i-th prime below 2^62, counting down from the largest."""
    while len(PRIMES) <= i:
        q = PRIMES[-1] - 2 if PRIMES else (1 << 62) - 1
        while not is_prime(q):
            q -= 2
        PRIMES.append(q)
    return PRIMES[i]


def _crt_limit(a: list[list[int]]) -> int:
    """floor(2H) for H the smaller of a's row and column Hadamard bounds
    (the products of the row or column Euclidean norms), H >= |det a|: an
    integer M exceeds 2H exactly when it exceeds this limit."""
    bound_sq = min(
        math.prod(sum(map(mul, row, row)) for row in a),
        math.prod(sum(map(mul, col, col)) for col in zip(*a)),
    )
    return math.isqrt(4 * bound_sq)


def det_multimodular(a: list[list[int]], limit: int | None = None) -> int:
    """Determinant of a square integer matrix by CRT over det mod q_j. Each
    q_j is the product of up to MULTIMODULAR_GROUP
    consecutive primes p_i, and primes are taken until their product M
    exceeds twice the Hadamard bound H >= |det|, so the symmetric residue
    mod M is det itself. limit is _crt_limit(a), computed here unless the
    caller has it."""
    if limit is None:
        limit = _crt_limit(a)
    x, m, i = 0, 1, 0
    while m <= limit:
        # the next prime joins the group only where one prime at a time
        # would still take it, so M and the primes used stay the same
        q = _prime(i)
        group = [q]
        while len(group) < MULTIMODULAR_GROUP and m * q <= limit:
            group.append(_prime(i + len(group)))
            q *= group[-1]
        rows = [[v % q for v in row] for row in a]
        try:
            residues = [(det(rows, q), q)]
        except ValueError:  # a pivot that is no unit mod q: prime by prime
            residues = [(det([[v % p for v in row] for row in a], p), p) for p in group]
        for r, p in residues:
            x += m * ((r - x % p) * pow(m % p, -1, p) % p)
            m *= p
        i += len(group)
    return x - m if 2 * x > m else x
