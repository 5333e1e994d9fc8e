"""Differential harness for the Cauchy-Binet routes.

Every instance with 1 <= n <= k+1 <= 8 goes through both minor-expansion
routes (DIRECT and H_ROUTE), the regime dispatcher and the elimination
oracle, which must all agree, term by term between the two routes; for
n <= 5 the oracle is also held to a Leibniz expansion of the evaluated
entries. In half the instances the points come partly from a small pool,
so repeated points and, in F_2 and F_3 (where nk/q > 1), zero
determinants are common; a random set of coefficients is zeroed, which
gives random supports, including ones smaller than n.

A second test stays in F_2 and F_3 with n*k > q and n <= k+1 <= 7, and
draws every point from a pool of at most q residues, so collisions are the
rule there rather than the exception.

A third test runs both routes past the harness' sizes, where kernel.det
eliminates: by Bareiss over Z at 5 and 8 rows, and at 9 and 10 over Q,
and by elimination mod p past kernel.BAREISS_MAX_N at 9 and 10 rows over
F_101. Each route takes every minor's rows from tables built once per
expansion, so a table row that one minor's elimination changed would
corrupt the later terms that read it.

A fourth test holds both routes' terms to freshly built minors on supports
just inside and just outside 2n <= m + 1, the rule under which the H route
takes every minor of both sides from one kernel.minors call. The last two
hold each stored numerator over term_den to the same minors: at the edges
of the expansion (n = 1, one subset at m = n, none at m < n), and over Q at
points whose common denominators differ between a and b, the H route's
per-index weights c_i D^i G^(k-i), on both sides of the rule.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat import kernel
from evalmat.det import DIRECT, H_ROUTE, det_cauchy_binet, det_structured, oracle_det
from evalmat.matrix import PointVectors, factorization_parts, minor_det
from evalmat.poly import HomogeneousPoly
from evalmat.scalar import PrimeField

from oracles import leibniz_det


def scalars(field, low=0):
    """Rationals num/den with |num| <= 9, or residues; nonzero for low = 1."""
    if field is None:
        num = st.integers(low, 9) | st.integers(-9, -low)
        return st.builds(Fraction, num, st.integers(1, 6))
    return st.integers(low, field.p - 1).map(field.from_int)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([None, None, PrimeField(2), PrimeField(3), PrimeField(101)]), st.data())
def test_cauchy_binet_routes_dispatcher_and_oracle_agree(field, data):
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(n - 1, 7), label="k")
    coeffs = data.draw(st.lists(scalars(field, low=1), min_size=k + 1, max_size=k + 1), label="coeffs")
    for i in data.draw(st.sets(st.integers(0, k)), label="zero coefficients"):
        coeffs[i] = 0
    point = scalars(field)
    if data.draw(st.booleans(), label="collide"):
        pool = data.draw(st.lists(scalars(field), min_size=1, max_size=n), label="pool")
        point = st.one_of(st.sampled_from(pool), point)
    a = data.draw(st.lists(point, min_size=n, max_size=n), label="a")
    b = data.draw(st.lists(point, min_size=n, max_size=n), label="b")
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)

    expected = oracle_det(p, pts).value
    assert det_structured(p, pts).value == expected
    direct = det_cauchy_binet(p, pts, DIRECT)
    h_route = det_cauchy_binet(p, pts, H_ROUTE)
    assert direct.value == h_route.value == expected
    assert direct.subset_terms == h_route.subset_terms
    if n <= 5:
        entries = [[p.evaluate(x, y) for y in pts.b] for x in pts.a]
        assert leibniz_det(entries) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PrimeField(2), PrimeField(3)]), st.data())
def test_collision_heavy_small_fields_agree(field, data):
    # n*k > q, and every point comes from a pool of at most q residues, so
    # repeated points (and zero determinants) are the common case
    q = field.p
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(max(n - 1, q // n + 1), 6), label="k")
    coeffs = data.draw(st.lists(scalars(field), min_size=k + 1, max_size=k + 1), label="coeffs")
    pool = sorted(data.draw(st.sets(st.integers(0, q - 1), min_size=1), label="pool"))
    point = st.sampled_from(pool).map(field.from_int)
    a = data.draw(st.lists(point, min_size=n, max_size=n), label="a")
    b = data.draw(st.lists(point, min_size=n, max_size=n), label="b")
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)

    expected = oracle_det(p, pts).value
    assert det_structured(p, pts).value == expected
    assert det_cauchy_binet(p, pts, DIRECT).value == expected
    assert det_cauchy_binet(p, pts, H_ROUTE).value == expected
    if n <= 6:
        entries = [[p.evaluate(x, y) for y in pts.b] for x in pts.a]
        assert leibniz_det(entries) == expected


@pytest.mark.parametrize("field", [None, PrimeField(101)])
@pytest.mark.parametrize("n", [5, kernel.BAREISS_MAX_N, kernel.BAREISS_MAX_N + 1, 10])
def test_routes_agree_term_by_term_where_minors_are_consumed(field, n):
    # k = n+1 with a dense support gives C(n+2, 2) >= 21 subsets, whose V and
    # W minors share all but one or two rows with their neighbours; each term
    # is also held to minor_det on freshly built V and W
    k = n + 1
    rng = random.Random(800 + n)
    if field is None:
        pool = sorted({Fraction(u, v) for u in range(-9, 10) for v in range(1, 6)})
        a, b = rng.sample(pool, n), rng.sample(pool, n)
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(k + 1)]
    else:
        a, b = rng.sample(range(field.p), n), rng.sample(range(field.p), n)
        coeffs = [rng.randrange(1, field.p) for _ in range(k + 1)]
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)
    direct = det_cauchy_binet(p, pts, DIRECT)
    h_route = det_cauchy_binet(p, pts, H_ROUTE)
    assert len(direct.subset_terms) == (n + 2) * (n + 1) // 2
    assert direct.subset_terms == h_route.subset_terms
    v, _, w = factorization_parts(p, pts)
    for subset, term in direct.subset_terms:
        alpha = prod((p.coeffs[i] for i in subset), start=pts.domain.one)
        assert term == minor_det(v, subset) * alpha * minor_det(w, subset)
    assert direct.value == h_route.value == oracle_det(p, pts).value
    assert direct.value != 0


@pytest.mark.parametrize("field", [None, PrimeField(101)])
@pytest.mark.parametrize("n,m", [(3, 5), (3, 4), (4, 7), (4, 6)])
def test_one_pass_and_per_subset_minors_give_the_same_terms(monkeypatch, field, n, m):
    # supports of m coefficients just inside (2n = m + 1) and just outside
    # (2n = m + 2) the rule under which the H route takes every minor of a
    # side from kernel.minors; each term is held to minor_det on freshly
    # built V and W, and the pass is seen to run on exactly one side of the
    # rule, once for both sides, and never for DIRECT
    calls, minors = [], kernel.minors

    def spy(tables, n, mod=None):
        calls.append((len(tables), n))
        return minors(tables, n, mod)

    monkeypatch.setattr(kernel, "minors", spy)
    k = m + 2
    rng = random.Random(40 * n + m)
    support = sorted(rng.sample(range(k + 1), m))
    if field is None:
        pool = sorted({Fraction(u, v) for u in range(-9, 10) for v in range(1, 6)})
        a, b = rng.sample(pool, n), rng.sample(pool, n)
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) if i in support else 0 for i in range(k + 1)]
    else:
        a, b = rng.sample(range(field.p), n), rng.sample(range(field.p), n)
        coeffs = [rng.randrange(1, field.p) if i in support else 0 for i in range(k + 1)]
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)
    v, _, w = factorization_parts(p, pts)
    for mode in (DIRECT, H_ROUTE):
        calls.clear()
        report = det_cauchy_binet(p, pts, mode)
        assert calls == ([(2, n)] if mode == H_ROUTE and 2 * n <= m + 1 else []), mode
        assert [subset for subset, _ in report.subset_terms] == list(combinations(support, n))
        for subset, term in report.subset_terms:
            alpha = prod((p.coeffs[i] for i in subset), start=pts.domain.one)
            assert term == minor_det(v, subset) * alpha * minor_det(w, subset), (mode, subset)
        assert report.value == oracle_det(p, pts).value != 0


def _assert_terms_are_minors(p, pts, report, support):
    # every numerator over term_den, and every term scalar, is
    # det V(:,I) * prod_{i in I} alpha_i * det W(:,I) on fresh V and W
    v, _, w = factorization_parts(p, pts)
    subsets = list(combinations(support, pts.n))
    assert [subset for subset, _ in report.term_nums] == subsets
    assert [subset for subset, _ in report.subset_terms] == subsets
    for (subset, num), (_, term) in zip(report.term_nums, report.subset_terms):
        alpha = prod((p.coeffs[i] for i in subset), start=pts.domain.one)
        expected = minor_det(v, subset) * alpha * minor_det(w, subset)
        assert pts.domain.ratio(num, report.term_den) == term == expected, subset


@pytest.mark.parametrize("mode", [DIRECT, H_ROUTE])
@pytest.mark.parametrize("field", [None, PrimeField(2**31 - 1)])
@pytest.mark.parametrize(
    "n,support",
    [(1, [0, 2, 3, 5]), (3, [1, 3, 4]), (4, [0, 2, 5])],
    ids=["n=1", "m=n", "m<n"],
)
def test_edge_expansions_match_minors(field, n, support, mode):
    # n = 1 takes the H route's pass, m = n its one subset per subset, and
    # m < n lists no subset at all and gives 0
    k = 5
    rng = random.Random(60 * n + len(support))
    if field is None:
        pool = sorted({Fraction(u, v) for u in range(-9, 10) for v in range(1, 6)})
        a, b = rng.sample(pool, n), rng.sample(pool, n)
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) if i in support else 0 for i in range(k + 1)]
    else:
        a, b = rng.sample(range(field.p), n), rng.sample(range(field.p), n)
        coeffs = [rng.randrange(1, field.p) if i in support else 0 for i in range(k + 1)]
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)
    report = det_cauchy_binet(p, pts, mode)
    _assert_terms_are_minors(p, pts, report, support)
    assert report.value == oracle_det(p, pts).value
    assert (report.value == 0) == (len(support) < n)


@pytest.mark.parametrize("mode", [DIRECT, H_ROUTE])
@pytest.mark.parametrize(
    "n,support",
    [(3, [0, 1, 3, 5, 8]), (3, [1, 2, 6, 7]), (4, [0, 1, 2, 4, 5, 7, 8]), (4, [0, 3, 4, 6, 7, 8])],
    ids=["n=3 pass", "n=3 per subset", "n=4 pass", "n=4 per subset"],
)
def test_rational_denominators_enter_each_term(n, support, mode):
    # a over D = 60, b over G = 77: D^i G^(k-i) differs from D^(k-i) G^i
    # and from G^(k-i) alone at every i, so a weight that drops either
    # power, or swaps i and k - i, changes a term
    k = 8
    a = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 5)][:n]
    b = [Fraction(3, 7), Fraction(-1, 11), Fraction(4, 7), Fraction(2, 1)][:n]
    coeffs = [Fraction(i + 2, 1 + i % 3) if i in support else 0 for i in range(k + 1)]
    p = HomogeneousPoly(k, coeffs)
    pts = PointVectors(a, b)
    report = det_cauchy_binet(p, pts, mode)
    _assert_terms_are_minors(p, pts, report, support)
    assert report.value == oracle_det(p, pts).value != 0
