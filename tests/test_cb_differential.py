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
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat.det import DIRECT, H_ROUTE, det_cauchy_binet, det_structured, oracle_det
from evalmat.matrix import PointVectors
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
