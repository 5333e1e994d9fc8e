"""The packed-row F_p kernels against the entry-by-entry code they replace
from PACK_MIN rows on. The public functions are called with packing taken
at every size and with packing switched off, so both routes run at every
size; the public tests check the dispatch around PACK_MIN against the
closed forms. The multimodular determinant over Z is checked against
Bareiss, and its grouped moduli against the primes one at a time. ``det``'s cofactor
path and ``sum_form``'s two Horner modes are checked against a Leibniz
expansion and against f evaluated entry by entry, and ``det``'s routes on
both sides of BAREISS_MAX_N against Bareiss over Z and elimination mod p.
``minors`` is checked against a Leibniz expansion of each combination.
``_pack_rows`` is checked against ``_pack`` row by row, ``_reduce_slots``
against % p at its edges, every packed builder's slot size against its
worst-case sum, and ``vandermonde`` against its differences one at a
time. No public function
may change its arguments, and ``det`` must hand rows from PACK_MIN on to
the packed elimination uncopied."""

import copy
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat import kernel
from evalmat.cli import main
from evalmat.det import DIRECT, det_borderline, det_cauchy_binet, det_sum_form, oracle_det
from evalmat.matrix import PointVectors, bareiss_det, evaluation_image, evaluation_matrix
from evalmat.poly import HomogeneousPoly, UnivariatePoly
from evalmat.scalar import PrimeField, is_prime

from oracles import leibniz_det

# F_2 and F_3 are full of singular matrices; 2^61-1 needs the widest slots
PRIMES = [2, 3, 101, 2**31 - 1, 2**61 - 1]

# the packed elimination's moduli: primes small and wide, and "group", the
# product of MULTIMODULAR_GROUP primes that det_multimodular hands det
ELIMINATION_MODULI = [3, 2**31 - 1, 2**61 - 1, "group"]


def _modulus(mod):
    """mod, or the product of the first MULTIMODULAR_GROUP CRT primes for "group"."""
    return math.prod(kernel._prime(i) for i in range(kernel.MULTIMODULAR_GROUP)) if mod == "group" else mod


def rand_rows(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def _with_pack_min(monkeypatch, value):
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(kernel, "PACK_MIN", value)
            return fn(*args)

    return run


@pytest.fixture
def entries(monkeypatch):
    """Call a kernel with the packed routes switched off."""
    return _with_pack_min(monkeypatch, 10**9)


@pytest.fixture
def packed(monkeypatch):
    """Call a kernel with the packed routes taken at every size."""
    return _with_pack_min(monkeypatch, 1)


@pytest.fixture
def both_echelons(entries, packed):
    def run(a, p):
        return entries(kernel.echelon, a, p), packed(kernel.echelon, a, p)

    return run


@pytest.mark.parametrize("p", PRIMES)
def test_packed_echelon_matches_entries_square_and_rectangular(p, both_echelons):
    rng = random.Random(p % 1000)
    for n in range(1, 41):
        for cols in {n, n + 3, max(1, n - 4)}:
            a = rand_rows(rng, n, cols, p)
            entries, packed = both_echelons(a, p)
            assert packed == entries, (n, cols)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_echelon_repeated_rows_and_zero_columns(p, both_echelons):
    rng = random.Random(7 + p % 1000)
    for n in (2, 5, 16, 17, 31, 40):
        a = rand_rows(rng, n, n, p)
        a[n - 1] = list(a[0])
        a[n // 2] = [(x + y) % p for x, y in zip(a[0], a[1])]
        for row in a:
            row[n // 3] = 0
            row[-1] = 0
        entries, packed = both_echelons(a, p)
        assert packed == entries
        assert packed[0] < n
        assert kernel.det([row[:] for row in a], p) == 0
        # all-zero and rank-one matrices
        assert both_echelons([[0] * n for _ in range(n)], p) == ((0, 1), (0, 1))
        one = [rng.randrange(p) for _ in range(n)]
        entries, packed = both_echelons([[x * c % p for x in one] for c in range(1, n + 1)], p)
        assert packed == entries and packed[0] == (1 if any(one) else 0)


def test_echelon_dispatches_on_pack_min(entries):
    rng = random.Random(11)
    p = 2**31 - 1
    for n in (kernel.PACK_MIN - 1, kernel.PACK_MIN, 40):
        a = rand_rows(rng, n, n, p)
        assert kernel.echelon([row[:] for row in a], p) == entries(kernel.echelon, a, p)
        wide = rand_rows(rng, n, n + 5, p)
        assert kernel.echelon([row[:] for row in wide], p) == entries(kernel.echelon, wide, p)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_product_matches_entries(p, entries, packed):
    rng = random.Random(3 + p % 1000)
    # square shapes also check product_det, fused at its own dispatch and at
    # every size: both sides of PACK_MIN, len(c) far above the row count,
    # and fewer terms than rows (n >= k+2 for degree k), so A is singular
    shapes = [(1, 1, 1), (1, 7, 3), (9, 2, 1), (16, 16, 16), (17, 30, 5), (40, 40, 40), (16, 20, 200)]
    shapes += [(3, 3, 2), (15, 15, 15), (16, 16, 200), (20, 20, 18), (33, 33, 40)]
    for n, m, k in shapes:
        v = rand_rows(rng, n, k, p)
        w = rand_rows(rng, m, k, p)
        c = [rng.randrange(p) if i % 5 else 0 for i in range(k)]
        assert packed(kernel.product, v, c, w, p) == entries(kernel.product, v, c, w, p)
        if n != m:
            continue
        # as drawn, with a repeated point (two equal rows of V), and with
        # every term near (p-1)^2, which fills the product's slots
        big = [[p - 1 - rng.randrange(1 + p // 16) for _ in range(k)] for _ in range(2 * n)]
        for rows, diag, cols in ((v, c, w), (v[:-1] + v[:1], c, w), (big[:n], [1] * k, big[n:])):
            expected = entries(kernel.det, entries(kernel.product, rows, diag, cols, p), p)
            assert kernel.product_det(rows, diag, cols, p) == expected, (n, k)
            assert packed(kernel.product_det, rows, diag, cols, p) == expected, (n, k)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_sum_form_matches_horner(p, entries, packed):
    rng = random.Random(5 + p % 1000)
    # deg < n as dispatched, deg = n - 1, and deg far above n; sum_form_det
    # also at deg < n - 1 (rank deg + 1 < n) and at the Horner fallback,
    # deg >= n, from PACK_MIN rows on
    cases = [(1, 0), (3, 2), (16, 4), (16, 15), (25, 24), (40, 39), (12, 90)]
    for n, deg in cases + [(15, 14), (20, 20), (17, 30), (41, 40)]:
        coeffs = [rng.randrange(p) for _ in range(deg + 1)]
        xs = [rng.randrange(p) for _ in range(n)]
        ys = [rng.randrange(p) for _ in range(n)]
        if n == 41:
            # every coefficient and point at p - 1, the largest residues, so
            # the slots of Y P's columns grow toward their bound
            coeffs, xs, ys = [p - 1] * (deg + 1), [p - 1] * n, [p - 1] * n
        expected = entries(kernel.sum_form, coeffs, xs, ys, p)
        assert packed(kernel.sum_form, coeffs, xs, ys, p) == expected
        assert kernel.sum_form(coeffs, xs, ys, p) == expected
        # as drawn, then with a repeated point
        for a in (xs, xs[:-1] + xs[:1]):
            det = entries(kernel.det, entries(kernel.sum_form, coeffs, a, ys, p), p)
            assert kernel.sum_form_det(coeffs, a, ys, p) == det, (n, deg)
            assert packed(kernel.sum_form_det, coeffs, a, ys, p) == det, (n, deg)


@pytest.mark.parametrize("p", PRIMES + ["group"])
def test_reduce_slots_matches_mod_p(p):
    """_reduce_slots against % p slot by slot, in the slot sizes of one
    product and of 40 products and one byte wider, on slots at 0, p - 1, p,
    2p, the largest value it takes, 2^(w-1) - 1, the largest multiple of p
    below it and the largest below it that is p - 1 mod p, where the
    quotient estimate has the least room, in every position and parity, and
    on ints of fewer slots than the reducer was built for, as the
    elimination's shrinking pivot rows are."""
    p = _modulus(p)
    rng = random.Random(13 + p % 1000)
    for size in (kernel._slot_bytes(1, p), kernel._slot_bytes(40, p) + 1):
        top = (1 << 8 * size - 1) - 1
        edges = [0, p - 1, p, 2 * p, top, top - top % p, top - (top + 1) % p]
        for count in (1, 2, 17):
            reduce = kernel._reduce_slots(count, size, p)
            slots = [[edges[(j + shift) % len(edges)] for j in range(count)] for shift in range(len(edges))]
            slots += [[p * rng.randrange(top // p + 1) for _ in range(count)] for _ in range(2)]
            slots += [[rng.randrange(top + 1) for _ in range(count)] for _ in range(4)]
            slots += [row[: rng.randrange(count)] for row in slots]
            packed = [sum(x << 8 * size * j for j, x in enumerate(row)) for row in slots]
            expected = [kernel._pack(row, size, p) for row in slots]
            assert [reduce(x) for x in packed] == expected, (size, count)


def _stairs(rng, rows, cols, p):
    """rows x cols residues, row i led by a random number of zeros, so that
    most steps of an elimination find their pivot below the first row."""
    a = rand_rows(rng, rows, cols, p)
    for row in a:
        zeros = rng.randrange(cols)
        row[:zeros] = [0] * zeros
    return a


@pytest.mark.parametrize("mod", ELIMINATION_MODULI)
def test_packed_elimination_matches_entries(mod, both_echelons):
    """echelon's packed route, whose pivot row _reduce_slots reduces in
    place (_eliminate names neither _pack nor _unpack), against the
    entry-by-entry route at PACK_MIN, 17 and 40 rows: with pivot swaps at
    most steps, singular, and rectangular of a rank below both sides."""
    assert not {"_pack", "_unpack"} & set(kernel._eliminate.__code__.co_names)
    p = _modulus(mod)
    rng = random.Random(23 + p % 1000)
    for n in (kernel.PACK_MIN, 17, 40):
        a = _stairs(rng, n, n, p)
        singular = a[:-1] + [[(x + y) % p for x, y in zip(a[0], a[1])]]
        cases = [(a, n), (singular, n - 1)]
        for rows, cols in ((n, n + 5), (n + 5, n)):
            left, right = rand_rows(rng, rows, n - 3, p), rand_rows(rng, n - 3, cols, p)
            low = [[sum(map(mul, row, col)) % p for col in zip(*right)] for row in left]
            cases.append((low, n - 3))
        for rows, most in cases:
            entries, packed = both_echelons(rows, p)
            assert packed == entries, (n, len(rows), len(rows[0]))
            assert packed[0] <= most


@pytest.mark.parametrize("mod", ELIMINATION_MODULI)
def test_packed_slots_keep_the_spare_top_bit(monkeypatch, mod):
    """Every packed builder sizes its slots for its worst-case sum, k
    products of residues plus one per elimination step and a residue,
    (k + rows) (p-1)^2 + p, below 2^(w-1): echelon (k = 0), _product_packed
    (k terms) and _pascal_packed (deg f + 1 terms, both products). And on
    tables of the largest residues every int that _reduce_slots is given
    keeps each slot below 2^(w-1), as its Barrett step needs."""
    p = _modulus(mod)
    rng = random.Random(29 + p % 1000)
    sizes, eliminate, reduce_slots = [], kernel._eliminate, kernel._reduce_slots

    def spy_eliminate(live, cols, size, mod):
        sizes.append((len(live), size))
        return eliminate(live, cols, size, mod)

    def checked(count, size, mod):
        reduce, w = reduce_slots(count, size, mod), 8 * size

        def run(x):
            for j in range(count):
                assert x >> w * j & (1 << w) - 1 < 1 << w - 1, (j, size)
            return reduce(x)

        return run

    monkeypatch.setattr(kernel, "_eliminate", spy_eliminate)
    monkeypatch.setattr(kernel, "_reduce_slots", checked)

    def big(rows, cols):
        return [[p - 1 - rng.randrange(1 + p // 16) for _ in range(cols)] for _ in range(rows)]

    for n in (kernel.PACK_MIN, 24):
        cases = [(0, lambda: kernel.echelon(big(n, n), p))]
        if is_prime(p):
            for k in (1, n, 3 * n):
                cases.append((k, lambda k=k: kernel.product_det(big(n, k), [p - 1] * k, big(n, k), p)))
            for deg in (0, n // 2, n - 1):
                coeffs = big(1, deg + 1)[0]
                cases.append((deg + 1, lambda c=coeffs: kernel.sum_form_det(c, big(1, n)[0], big(1, n)[0], p)))
        for k, run in cases:
            sizes.clear()
            run()
            assert [rows for rows, _ in sizes] == [n], k
            size = sizes[0][1]
            assert (k + n) * (p - 1) ** 2 + p < 1 << 8 * size - 1, (n, k, size)


def _no_pack(*args):
    raise AssertionError("_pack called on a table of residues")


# (mod, size): slots of 3, 8, 9 and 63 bytes, each wide enough for residues
PACK_ROWS_CASES = [(65537, 3), (2**61 - 1, 8), (2**31 - 1, 9), (2**61 - 1, 63), (2, 3)]


@pytest.mark.parametrize("mod,size", PACK_ROWS_CASES)
def test_pack_rows_matches_pack_row_by_row(monkeypatch, mod, size):
    """On tables of residues, lists or tuples of equal or unequal lengths,
    with 0 and p - 1 at every position, _pack_rows gives _pack's ints row by
    row, without calling _pack."""
    rng = random.Random(size + mod % 1000)
    tables = [[], [[]], [[0, mod - 1, 1]], [tuple(rng.randrange(mod) for _ in range(80)) for _ in range(80)]]
    tables += [[[mod - 1] * 17] * 3 + [[0] * 17], [[rng.randrange(mod) for _ in range(j)] for j in range(9)]]
    expected = [[kernel._pack(row, size, mod) for row in rows] for rows in tables]
    monkeypatch.setattr(kernel, "_pack", _no_pack)
    assert [kernel._pack_rows(rows, size, mod) for rows in tables] == expected


@pytest.mark.parametrize(
    "rows,size,mod",
    [
        ([[1, 2], [101, 3]], 3, 101),  # an entry of p, which _pack reduces
        ([[5, 2**64 + 7]], 9, 2**127 - 1),  # a residue wider than a 64-bit word
        ([[5, 2**70 + 1]], 3, 65537),  # unreduced and wider than a word
        ([[1, -1], [2, 3]], 3, 101),  # a negative entry
    ],
)
def test_pack_rows_falls_back_to_pack(monkeypatch, rows, size, mod):
    """Entries that are no residues below 2^(8 size), or wider than a
    64-bit word, take _pack row by row, which reduces them."""
    expected, pack, calls = [kernel._pack(row, size, mod) for row in rows], kernel._pack, []
    monkeypatch.setattr(kernel, "_pack", lambda row, size, mod: calls.append(row) or pack(row, size, mod))
    assert kernel._pack_rows(rows, size, mod) == expected
    assert calls == rows


def test_pack_rows_raises_as_pack_on_a_residue_wider_than_its_slot():
    """2^24 is a residue mod 2^31 - 1 that needs a fourth byte: _pack_rows
    raises _pack's OverflowError, as a 3-byte slot would in _pack."""
    for pack in (lambda: kernel._pack([0, 2**24], 3, 2**31 - 1), lambda: kernel._pack_rows([[0, 2**24]], 3, 2**31 - 1)):
        with pytest.raises(OverflowError):
            pack()


@pytest.mark.parametrize("mod", [None] + PRIMES)
def test_det_rows_matches_det_and_keeps_its_rows(monkeypatch, mod):
    """det on rows given as tuples or lists, also singular, equals det on
    list copies over Z and F_p, at cofactor, Bareiss and elimination sizes
    and on both sides of PACK_MIN, and leaves its rows as they are. Over F_p
    from PACK_MIN rows on, the packed elimination packs the rows themselves,
    uncopied."""
    rng = random.Random(17 + (mod or 0) % 1000)
    calls, pack_rows = [], kernel._pack_rows
    monkeypatch.setattr(kernel, "_pack_rows", lambda rows, size, m: calls.append(rows) or pack_rows(rows, size, m))
    for n in (1, 4, 5, kernel.BAREISS_MAX_N + 1, kernel.PACK_MIN - 1, kernel.PACK_MIN, kernel.PACK_MIN + 1, 24):
        top = mod or 2**20
        a = [[rng.randrange(-top if mod is None else 0, top) for _ in range(n)] for _ in range(n)]
        singular = a[:-1] + [a[0]]
        for rows in (a, [tuple(row) for row in a], singular):
            before = copy.deepcopy(rows)
            expected = kernel.det([list(row) for row in rows], mod)
            calls.clear()
            assert kernel.det(rows, mod) == expected, n
            assert rows == before
            assert [given is rows for given in calls] == ([True] if mod is not None and n >= kernel.PACK_MIN else [])


def test_direct_minors_reach_the_packed_elimination_uncopied(monkeypatch):
    """DIRECT's minors from PACK_MIN rows on are packed from the tuples of
    V^T and W^T themselves, one _pack_rows call per minor, and give the
    oracle's value."""
    field = PrimeField(2**31 - 1)
    n = kernel.PACK_MIN
    rng = random.Random(19)
    p = HomogeneousPoly(n, [rng.randrange(1, field.p) for _ in range(n + 1)], field)
    pts = PointVectors(rng.sample(range(field.p), n), rng.sample(range(field.p), n), field)
    expected, calls, pack_rows = oracle_det(p, pts).value, [], kernel._pack_rows
    monkeypatch.setattr(kernel, "_pack_rows", lambda rows, size, m: calls.append(rows) or pack_rows(rows, size, m))
    assert det_cauchy_binet(p, pts, DIRECT).value == expected
    assert len(calls) == 2 * math.comb(n + 1, n)
    assert all(type(row) is tuple for rows in calls for row in rows)


def _lists(x):
    """x with every tuple and list, at any depth, a new list."""
    return [_lists(y) for y in x] if isinstance(x, (list, tuple)) else x


# the moduli det and echelon take: exact, a prime, and a product of
# MULTIMODULAR_GROUP primes as det_multimodular hands det
ARG_MODULI = [None, 2**31 - 1, "group"]


@pytest.mark.parametrize("mod", ARG_MODULI)
def test_no_public_kernel_function_changes_its_arguments(mod):
    """Each public kernel function leaves its arguments as they are, and
    gives on them the value it gives on list copies. det and echelon take
    list and tuple rows on every route: 0 rows, 1 to 4 (cofactors), 5 to
    BAREISS_MAX_N (Bareiss over Z, whatever the modulus), up to PACK_MIN - 1
    (elimination mod p entry by entry) and from PACK_MIN on (packed), square
    or rectangular for its rank, and singular."""
    mod = _modulus(mod)
    rng = random.Random(41 + (mod or 0) % 1000)
    lo, hi = (-(2**20), 2**20) if mod is None else (0, mod)

    def table(rows, cols):
        return [[rng.randrange(lo, hi) for _ in range(cols)] for _ in range(rows)]

    cases = []
    for n in (0, 1, 2, 3, 4, 5, kernel.BAREISS_MAX_N, kernel.BAREISS_MAX_N + 1, kernel.PACK_MIN - 1, kernel.PACK_MIN, 20):
        a = table(n, n)
        for rows in (a, a[:-1] + a[:1]):
            cases += [(kernel.det, rows, mod), (kernel.echelon, rows, mod)]
            cases += [(kernel.det, [tuple(row) for row in rows], mod), (kernel.echelon, [tuple(row) for row in rows], mod)]
    for n in (3, kernel.BAREISS_MAX_N + 1, kernel.PACK_MIN):
        for rows in (table(n, n + 3), table(n + 3, n)):
            cases += [(kernel.echelon, rows, mod), (kernel.echelon, [tuple(row) for row in rows], mod)]
    if mod is None or is_prime(mod):
        for n in (3, kernel.BAREISS_MAX_N + 1, kernel.PACK_MIN):
            xs, ys, coeffs = table(1, n)[0], table(1, n)[0], table(1, n)[0]
            v, w = table(n, n), table(n, n)
            cases += [
                (kernel.powers, xs, ys, n - 1, mod),
                (kernel.product, v, coeffs, w, mod),
                (kernel.product_det, v, coeffs, w, mod),
                (kernel.pascal, coeffs, n, mod),
                (kernel.sum_form, coeffs, xs, ys, mod),
                (kernel.sum_form_det, coeffs, xs, ys, mod),
                (kernel.vandermonde, xs, mod),
                (kernel.h_table, xs, n, mod),
                (kernel.minors, [v, w], 2, mod),
            ]
            if mod is None:
                cases.append((kernel.det_multimodular, v))
    for fn, *args in cases:
        before = copy.deepcopy(args)
        value = fn(*args)
        assert args == before, fn.__name__
        assert value == fn(*_lists(before)), fn.__name__


def test_vandermonde_grouped_differences_match_one_at_a_time():
    """vandermonde against the product of its differences one at a time, for
    n = 0..40 points over Z and five primes, drawn, with a repeated point and
    with every point equal."""
    rng = random.Random(13)
    for p in [None] + PRIMES:
        for n in range(0, 41):
            xs = [rng.randrange(p or 2**20) for _ in range(n)]
            repeated = xs[:-1] + xs[n // 2 : n // 2 + 1]
            for points in (xs, repeated, xs[:1] * n):
                acc = 1
                for j in range(n):
                    for i in range(j):
                        acc *= points[j] - points[i]
                assert kernel.vandermonde(points, p) == (acc if p is None or n < 2 else acc % p), (p, n)


@pytest.mark.parametrize("kind", ["homogeneous", "sum_form"])
def test_public_det_around_pack_min(kind, entries):
    field = PrimeField(2**31 - 1)
    rng = random.Random(17)
    for n in (kernel.PACK_MIN - 1, kernel.PACK_MIN, 40):
        coeffs = [field.from_int(rng.randrange(1, field.p)) for _ in range(n)]
        pts = PointVectors(
            [field.from_int(rng.randrange(field.p)) for _ in range(n)],
            [field.from_int(rng.randrange(field.p)) for _ in range(n)],
            field,
        )
        if kind == "homogeneous":
            poly = HomogeneousPoly(n - 1, coeffs, field)
            closed = det_borderline(poly, pts).value
        else:
            poly = UnivariatePoly(coeffs, field)
            closed = det_sum_form(poly, pts).value
        matrix = evaluation_matrix(poly, pts)
        value = bareiss_det(matrix)
        assert value == closed
        assert entries(evaluation_matrix, poly, pts) == matrix
        assert entries(bareiss_det, matrix) == value


@pytest.mark.parametrize("mod", [None, 101, 2**31 - 1])
def test_powers_unit_and_general_scales(mod):
    """Row r is x_r^(k-i) d_r^i; a unit scale on either side builds one
    power list only, and must give the same rows as a general scale."""
    rng = random.Random(11)
    hi = 1000 if mod is None else mod
    for k in range(6):
        general = [rng.randrange(2, hi) for _ in range(4)]
        for xs, ds in [
            (general, [1] * 4),
            ([1] * 4, general),
            ([1] * 4, [1] * 4),
            (general, general[::-1]),
            ([0, 1, 5, 0], [1, 0, 3, 2]),
        ]:
            want = [[x ** (k - i) * d**i for i in range(k + 1)] for x, d in zip(xs, ds)]
            if mod is not None:
                want = [[t % mod for t in row] for row in want]
            assert kernel.powers(xs, ds, k, mod) == want, (k, xs, ds)


# ------------------------------------------------ multimodular over Z
def test_multimodular_primes_descend_from_2_62():
    kernel._prime(11)
    primes = kernel.PRIMES
    assert len(primes) >= 12 and primes[0] < 2**62
    assert all(p > q for p, q in zip(primes, primes[1:]))
    assert all(is_prime(p) for p in primes)
    # none skipped: every odd number from 2^62 down to the 12th prime is one of them
    listed = set(primes)
    assert all(is_prime(q) == (q in listed) for q in range(2**62 - 1, primes[11] - 1, -2))


def test_multimodular_primes_pinned():
    # the first 300 primes below 2^62, as found by twelve-base Miller-Rabin
    kernel._prime(299)
    primes = kernel.PRIMES[:300]
    assert (primes[0], primes[-1]) == (4611686018427387847, 4611686018427375751)
    digest = hashlib.sha256(",".join(map(str, primes)).encode()).hexdigest()
    assert digest == "448ea4ac07d021bc48fd1288c60747d18e5348bfdf7e30301349a914f001f8d1"


def test_import_generates_no_primes():
    code = "import evalmat, evalmat.kernel as k; assert k.PRIMES == [], len(k.PRIMES)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multimodular_matches_bareiss(data):
    # sizes up to q-verify's 20 and 21 rows; entries above 2^600 only where
    # Bareiss stays cheap. The bound a caller hands in gives the same value
    n = data.draw(st.sampled_from([0, 1, 2, 3, 5, 8, 20, 21]))
    bits = data.draw(st.sampled_from([1, 8, 64] if n >= 20 else [1, 8, 64, 640]))
    rng = data.draw(st.randoms(use_true_random=False))
    a = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(n)] for _ in range(n)]
    expected = kernel.det([row[:] for row in a])
    assert kernel.det_multimodular(a) == kernel.det_multimodular(a, kernel._crt_limit(a)) == expected
    if n < 2:
        return
    i, j = rng.sample(range(n), 2)
    swapped = a[:]
    swapped[i], swapped[j] = a[j], a[i]
    assert kernel.det_multimodular(swapped) == -expected  # one of the two is negative
    # singular with a nonzero Hadamard bound: row i a combination of the others
    weights = [0 if r == i else rng.randrange(-3, 4) for r in range(n)]
    dependent = a[:]
    dependent[i] = [sum(map(mul, weights, col)) for col in zip(*a)]
    assert kernel.det_multimodular(dependent) == 0
    zero_row = a[:i] + [[0] * n] + a[i + 1 :]
    zero_col = [row[:j] + [0] + row[j + 1 :] for row in a]
    assert kernel.det_multimodular(zero_row) == kernel.det_multimodular(zero_col) == 0


# odd primes from 3 up, in place of kernel._prime's: a pivot often shares
# one of them with its group's modulus
SMALL_PRIMES = [q for q in range(3, 20_000, 2) if is_prime(q)]


def spy_det(patcher):
    """Record the modulus of every kernel.det call and whether it raised."""
    calls, det = [], kernel.det

    def spy(a, mod=None):
        try:
            out = det(a, mod)
        except ValueError:
            calls.append((mod, "raised"))
            raise
        calls.append((mod, "ok"))
        return out

    patcher.setattr(kernel, "det", spy)
    return calls


def hadamard_sq(a):
    """H^2 for H the smaller of a's row and column Hadamard bounds,
    computed here without the kernel."""
    return min(
        math.prod(sum(x * x for x in row) for row in a),
        math.prod(sum(x * x for x in col) for col in zip(*a)),
    )


def one_prime_moduli(a):
    """The primes that CRT one prime at a time takes for a: until their
    product exceeds twice the smaller Hadamard bound."""
    bound_sq = hadamard_sq(a)
    primes, m = [], 1
    while m * m <= 4 * bound_sq:
        primes.append(kernel._prime(len(primes)))
        m *= primes[-1]
    return primes


def test_multimodular_groups_take_the_one_prime_rules_primes(monkeypatch):
    # 64-bit entries at 21 rows need several full groups and one partial
    # one; the groups must cover exactly the one-prime rule's primes, in
    # order, so M is the same
    n, g = 21, kernel.MULTIMODULAR_GROUP
    rng = random.Random(13)
    partial = 0
    for _ in range(4):
        a = [[rng.randrange(-(2**64), 2**64 + 1) for _ in range(n)] for _ in range(n)]
        primes = one_prime_moduli(a)
        expected = kernel.det([row[:] for row in a])
        with monkeypatch.context() as m:
            calls = spy_det(m)
            assert kernel.det_multimodular(a) == expected
        groups = [primes[i : i + g] for i in range(0, len(primes), g)]
        assert len(groups) > 2 and calls == [(math.prod(group), "ok") for group in groups]
        partial += len(groups[-1]) < g
    assert partial


def test_multimodular_redoes_a_group_prime_by_prime(monkeypatch):
    # the first pivot is a nonzero multiple of the first prime, so it is no
    # unit modulo the first group's product: that group is redone one prime
    # at a time, the next group is whole again, and the value is Bareiss'
    n, g = 21, kernel.MULTIMODULAR_GROUP
    rng = random.Random(29)
    a = [[rng.randrange(-(2**64), 2**64 + 1) for _ in range(n)] for _ in range(n)]
    a[0][0] = 3 * kernel._prime(0)
    primes = one_prime_moduli(a)
    expected = kernel.det([row[:] for row in a])
    assert expected != 0 and len(primes) > 2 * g
    calls = spy_det(monkeypatch)
    assert kernel.det_multimodular(a) == expected
    first = primes[:g]
    assert calls[: g + 2] == [
        (math.prod(first), "raised"),
        *[(p, "ok") for p in first],
        (math.prod(primes[g : 2 * g]), "ok"),
    ]
    assert all(outcome == "ok" for _, outcome in calls[1:])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_multimodular_small_primes_match_bareiss(data):
    # with the moduli 3 * 5 * 7 * 11, 13 * 17 * 19 * 23, ... non-unit
    # pivots are frequent where det eliminates mod q, past BAREISS_MAX_N
    # rows and on both sides of PACK_MIN; every one must fall back to the
    # primes, exactly. At 1, 2, 3, 5 and 8 rows det takes no inverse
    # (cofactors, Bareiss over Z), so no group falls back there
    n = data.draw(st.sampled_from([1, 2, 3, 5, 8, kernel.PACK_MIN - 1, kernel.PACK_MIN + 2]))
    bits = data.draw(st.sampled_from([1, 4, 16]))
    kind = data.draw(st.sampled_from(["random", "rank-deficient", "zero row"]))
    rng = data.draw(st.randoms(use_true_random=False))
    a = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(n)] for _ in range(n)]
    i = rng.randrange(n)
    if kind == "rank-deficient":
        weights = [0 if r == i else rng.randrange(-3, 4) for r in range(n)]
        a[i] = [sum(map(mul, weights, col)) for col in zip(*a)]
    elif kind == "zero row":
        a[i] = [0] * n
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "_prime", SMALL_PRIMES.__getitem__)
        got = kernel.det_multimodular(a)
    assert got == kernel.det([row[:] for row in a])


def test_verify_over_q_on_small_primes_passes(monkeypatch, capsys):
    # the CLI's oracle over Q on the CRT route (20-bit points at 21 rows) on
    # small primes: the non-unit pivots fall back inside the kernel, and no
    # ValueError reaches main() as an input error (exit 2)
    n = 21
    rng = random.Random(31)
    inst = {
        "domain": "rational",
        "poly": {"kind": "homogeneous", "degree": n - 1, "coeffs": [str(rng.randrange(1, 10)) for _ in range(n)]},
        "a": [str(x) for x in rng.sample(range(-(2**20), 2**20), n)],
        "b": [str(x) for x in rng.sample(range(-(2**20), 2**20), n)],
    }
    monkeypatch.setattr(kernel, "_prime", SMALL_PRIMES.__getitem__)
    calls = spy_det(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(inst)))
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1] == "verification: PASS", out
    assert "ORACLE" in out and any(outcome == "raised" for _, outcome in calls)


def hadamard_bits(a):
    """bit_length(2H), the size measure of kernel._image_det's rule."""
    return math.isqrt(4 * hadamard_sq(a)).bit_length()


def spy_routes(patcher):
    """Record the row count of every det_multimodular call, whether it was
    handed a bound, and the row count of every _crt_limit call."""
    crt, limits, crt_limit = [], [], kernel._crt_limit
    patcher.setattr(kernel, "_crt_limit", lambda a: limits.append(len(a)) or crt_limit(a))
    det_multimodular = kernel.det_multimodular

    def spy(a, limit=None):
        crt.append((len(a), limit is not None))
        return det_multimodular(a, limit)

    patcher.setattr(kernel, "det_multimodular", spy)
    return crt, limits


@pytest.mark.parametrize("patch", [None, 1])
def test_image_det_takes_crt_by_image_size_over_z(monkeypatch, patch):
    """product_det and sum_form_det over Z take det_multimodular where
    n^3 * bit_length(2H) >= MULTIMODULAR_MIN_SIZE for n > BAREISS_MAX_N
    rows, and det otherwise, at the threshold given and with it patched to
    each image's own size (taken) and one above (not taken). Where they
    take it they compute H once and hand it on; they compute none at or
    below BAREISS_MAX_N rows. Over a prime they never take the CRT route,
    and neither does kernel.det at any size. Unpatched, 10-bit points at
    n = 21 stay on Bareiss and 20-bit points at n = 20 take CRT; patched to
    1, every image past BAREISS_MAX_N rows takes CRT."""
    if patch is not None:
        monkeypatch.setattr(kernel, "MULTIMODULAR_MIN_SIZE", patch)
    crt, limits = spy_routes(monkeypatch)
    rng = random.Random(21)
    routes = set()
    for n, bits in ((kernel.BAREISS_MAX_N, 20), (kernel.BAREISS_MAX_N + 1, 4), (21, 10), (20, 20)):
        # n = k+1 = deg f + 1 on distinct points: both determinants are nonzero
        xs, ys = rng.sample(range(1, 2**bits), n), rng.sample(range(1, 2**bits), n)
        c = [rng.randrange(1, 10) for _ in range(n)]
        v, w = kernel.powers(xs, [1] * n, n - 1), kernel.powers([1] * n, ys, n - 1)
        for fused, build, args in (
            (kernel.product_det, kernel.product, (v, c, w)),
            (kernel.sum_form_det, kernel.sum_form, (c, xs, ys)),
        ):
            rows = build(*args)
            size = n**3 * hadamard_bits(rows)
            expected = kernel.det([row[:] for row in rows])
            assert expected != 0
            routes.add(n > kernel.BAREISS_MAX_N and size >= kernel.MULTIMODULAR_MIN_SIZE)
            for threshold in (kernel.MULTIMODULAR_MIN_SIZE, size, size + 1):
                takes_crt = n > kernel.BAREISS_MAX_N and size >= threshold
                crt.clear()
                limits.clear()
                with monkeypatch.context() as m:
                    m.setattr(kernel, "MULTIMODULAR_MIN_SIZE", threshold)
                    assert fused(*args) == expected, (fused.__name__, n, threshold)
                assert crt == ([(n, True)] if takes_crt else []), (fused.__name__, n, threshold)
                assert limits == [n] if takes_crt else len(limits) <= (n > kernel.BAREISS_MAX_N)
            for p in (101, 2**31 - 1):
                assert fused(*args, p) == kernel.det(build(*args, p), p), (fused.__name__, n, p)
            assert len(crt) == takes_crt and len(limits) <= (n > kernel.BAREISS_MAX_N), (fused.__name__, n)
    assert routes == {False, True}


def test_q_verify_shapes_take_their_faster_route(monkeypatch):
    """The oracle over Q on homogeneous n = k+1 instances with 20-bit
    coefficients: 20-bit points at n = 20 (q-verify's slowest ops but one)
    take CRT with at least 15% to spare over MULTIMODULAR_MIN_SIZE, and
    10-bit points at n = 21 stay on Bareiss, the faster route for each in
    the grid of CHANGES.md."""
    crt, _ = spy_routes(monkeypatch)
    for seed in range(5):
        rng = random.Random(seed)
        for n, bits, on_crt in ((20, 20, True), (21, 10, False)):
            coeffs = [Fraction(rng.randrange(1, 2**20)) for _ in range(n)]
            a, b = (rng.sample(range(1, 2**bits), n) for _ in range(2))
            p = HomogeneousPoly(n - 1, coeffs)
            pts = PointVectors([Fraction(x) for x in a], [Fraction(x) for x in b])
            size = n**3 * hadamard_bits(evaluation_image(p, pts)[0])
            crt.clear()
            oracle_det(p, pts)
            assert crt == ([(n, True)] if on_crt else []), (seed, n, bits, size)
            if on_crt:
                assert size >= 1.15 * kernel.MULTIMODULAR_MIN_SIZE, (seed, size)
            else:
                assert size < kernel.MULTIMODULAR_MIN_SIZE, (seed, size)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_det_small_matches_leibniz(data):
    """0 to 6 rows (1 to 4 by cofactors, 5 and 6 by Bareiss over Z, 0
    giving 1) over Z, mod a prime and mod a product of two primes, as
    det_multimodular uses it."""
    n = data.draw(st.integers(0, 6), label="n")
    mod = data.draw(st.sampled_from([None, 2, 101, 2**61 - 1, (2**61 - 1) * (2**31 - 1)]))
    entry = st.integers(-(2**70), 2**70) if mod is None else st.integers(0, mod - 1)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    expected = leibniz_det(a)
    assert kernel.det([row[:] for row in a], mod) == (expected if mod is None else expected % mod)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([None] + PRIMES),
    st.lists(st.integers(0, 2**62), min_size=1, max_size=9),
    st.lists(st.integers(0, 2**62), min_size=1, max_size=6),
    st.lists(st.integers(0, 2**62), min_size=1, max_size=6),
    st.sampled_from([0, -1]),
)
def test_sum_form_horner_modes_match_entrywise(mod, coeffs, xs, ys, below):
    """With HORNER_MAX_BITS patched to deg f * bit_length(p) (each entry
    reduced once) or one below it (every step reduced), and over Z, the rows
    are f(x_r + y_s) evaluated entry by entry."""
    if mod is not None:
        coeffs, xs, ys = ([v % mod for v in vs] for vs in (coeffs, xs, ys))

    def f(t):
        value = sum(c * t**i for i, c in enumerate(coeffs))
        return value if mod is None else value % mod

    bits = (len(coeffs) - 1) * (mod or 1).bit_length() + below
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "HORNER_MAX_BITS", bits)
        assert kernel.sum_form(coeffs, xs, ys, mod) == [[f(x + y) for y in ys] for x in xs]


@pytest.mark.parametrize("bits", [None, -1])
@pytest.mark.parametrize("mod", [None, 7, 2**31 - 1])
def test_sum_form_of_no_coefficients_and_of_degree_0(mod, bits):
    """Horner starts at the leading coefficient: no coefficients still give
    zeros, and a constant, here unreduced, is reduced over F_p, with each
    entry reduced once and (HORNER_MAX_BITS patched to -1) every step."""
    with pytest.MonkeyPatch.context() as m:
        if bits is not None:
            m.setattr(kernel, "HORNER_MAX_BITS", bits)
        assert kernel.sum_form([], [1, 2], [3, 4, 5], mod) == [[0] * 3] * 2
        c = 3 * 2**31 + 5
        assert kernel.sum_form([c], [1, 2], [3], mod) == [[c if mod is None else c % mod]] * 2


MODULI = [2, 101, 2**31 - 1, 2**61 - 1, (2**61 - 1) * (2**31 - 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_det_mod_on_both_sides_of_bareiss_max_n(data):
    """5 to 9 rows mod a prime or a product of two primes: det equals
    Bareiss over Z reduced once, and for a prime also the determinant by
    elimination mod p, the route that 5 to 8 rows leave. Mod the product,
    only elimination (9 rows) takes inverses, and it may meet a pivot that
    is no unit, which det_multimodular catches."""
    n = data.draw(st.integers(5, kernel.BAREISS_MAX_N + 1), label="n")
    mod = data.draw(st.sampled_from(MODULI))
    entry = st.sampled_from([0, 1, mod - 1]) | st.integers(0, mod - 1)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rank, over_z = kernel.echelon([row[:] for row in a])
    expected = over_z % mod if rank == n else 0
    if is_prime(mod):
        rank, d = kernel.echelon([row[:] for row in a], mod)
        assert (d if rank == n else 0) == expected
    try:
        got = kernel.det([row[:] for row in a], mod)
    except ValueError:
        assert n > kernel.BAREISS_MAX_N and not is_prime(mod)
        return
    assert got == expected


@pytest.mark.parametrize("patch,limit", [(None, 8), (4, 4), (6, 6), (12, 12)])
def test_det_route_follows_bareiss_max_n(monkeypatch, patch, limit):
    """det hands echelon no modulus from 5 to BAREISS_MAX_N rows (5 to 8
    unpatched) and the modulus above; it expands 1 to 4 rows by cofactors
    whatever the constant."""
    if patch is not None:
        monkeypatch.setattr(kernel, "BAREISS_MAX_N", patch)
    assert kernel.BAREISS_MAX_N == limit
    received, echelon = [], kernel.echelon

    def spy(a, mod=None):
        received.append(mod)
        return echelon(a, mod)

    monkeypatch.setattr(kernel, "echelon", spy)
    rng = random.Random(18)
    p = 2**31 - 1
    for n in range(1, 14):
        a = rand_rows(rng, n, n, p)
        rank, d = echelon([row[:] for row in a])
        received.clear()
        assert kernel.det(a, p) == (d % p if rank == n else 0)
        assert received == ([] if n <= 4 else [None if n <= limit else p]), n


# (rows, n): n = 0 and 1, 2n = m + 1, m = n, m < n and wider shapes
MINOR_SHAPES = [(3, 0), (4, 1), (1, 1), (3, 2), (5, 3), (7, 4), (2, 2), (3, 3), (4, 4), (6, 2), (6, 5), (8, 3), (2, 3)]


@pytest.mark.parametrize("mod", [None, 2, 101, 2**31 - 1])
@pytest.mark.parametrize("m,n", MINOR_SHAPES)
def test_minors_match_leibniz_per_combination(mod, m, n):
    """minors lists det of the first n entries of each n-combination of rows,
    in combinations order, exact over Z and in [0, p) over F_p, also from
    entries that are negative or past p; rows of zeros and repeated rows
    give zero minors, and the rows are left as they are. Each row has one
    entry more than the minors read. Each table is taken alone, and then
    two and three tables of the shape in one call (the second with a zero
    row), which share one plan: each list is held to its own table's
    Leibniz minors, so no value can leak from one table into another."""
    rng = random.Random(31 * m + n)
    entry = (lambda: rng.randrange(-9, 10)) if mod is None else (lambda: rng.randrange(-mod, 2 * mod))
    tables, expected = [], []
    for case in range(3):
        rows = [[entry() for _ in range(n + 1)] for _ in range(m)]
        if case == 1 and m:
            rows[-1] = [0] * (n + 1)
        if case == 2 and m >= 2:
            rows[m // 2] = rows[0][:]
        dets = [leibniz_det([rows[i][:n] for i in c]) for c in itertools.combinations(range(m), n)]
        tables.append(rows)
        expected.append([d if mod is None else d % mod for d in dets])
    before = [[row[:] for row in rows] for rows in tables]
    for case, rows in enumerate(tables):
        assert kernel.minors([rows], n, mod) == [expected[case]], case
    assert kernel.minors(tables[:2], n, mod) == expected[:2]
    assert kernel.minors(tables[::-1], n, mod) == expected[::-1]
    assert tables == before
