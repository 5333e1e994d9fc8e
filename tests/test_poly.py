import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat.poly import (
    HomogeneousPoly,
    UnivariatePoly,
    all_ones_poly,
    alternating_poly,
    complete_homogeneous,
    complete_homogeneous_all,
    poly_from_json,
    poly_to_json,
    sum_power_poly,
)
from evalmat.scalar import RATIONAL, DomainMismatchError, PrimeField

from oracles import h_brute

F7 = PrimeField(7)


def test_eval_examples():
    assert sum_power_poly(2).evaluate(Fraction(1), Fraction(1)) == 4
    p = HomogeneousPoly(3, [1, 0, 1, 1])
    assert p.evaluate(Fraction(2), Fraction(1)) == 11
    z = HomogeneousPoly(2, [0, 0, 0])
    assert z.evaluate(Fraction(5), Fraction(-3)) == 0


def test_coeff_length_checked():
    with pytest.raises(ValueError):
        HomogeneousPoly(2, [1, 2])
    with pytest.raises(ValueError):
        HomogeneousPoly(-1, [])


small_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=8)


@given(
    st.integers(min_value=0, max_value=5),
    st.lists(small_fracs, min_size=6, max_size=6),
    small_fracs,
    small_fracs,
    small_fracs,
)
def test_homogeneity(k, coeffs, x, y, t):
    p = HomogeneousPoly(k, coeffs[: k + 1])
    assert p.evaluate(t * x, t * y) == t**k * p.evaluate(x, y)


def test_sum_power_constructor():
    assert sum_power_poly(3).coeffs == (1, 3, 3, 1)
    assert sum_power_poly(0).coeffs == (Fraction(1),)
    assert alternating_poly(2).coeffs == (1, -1, 1)
    assert all_ones_poly(4).coeffs == (1, 1, 1, 1, 1)
    assert sum_power_poly(2, F7).coeffs == (F7.one, F7.from_int(2), F7.one)


def test_sum_power_matches_binomial_expansion():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randrange(0, 7)
        x = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        y = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        assert sum_power_poly(k).evaluate(x, y) == (x + y) ** k


def test_support():
    assert HomogeneousPoly(3, [1, 0, 1, 1]).support() == {0, 2, 3}
    assert HomogeneousPoly(3, [0, 1, 0, 0]).support() == {1}
    assert HomogeneousPoly(1, [0, 0]).support() == frozenset()


def test_scale():
    p = HomogeneousPoly(2, [1, 2, 1])
    assert p.scale(Fraction(3)).coeffs == (3, 6, 3)


def test_complete_homogeneous_base_cases():
    assert complete_homogeneous(0, [Fraction(4), Fraction(9)]) == 1
    assert complete_homogeneous(0, []) == 1
    assert complete_homogeneous(-3, [Fraction(1), Fraction(2)]) == 0
    assert complete_homogeneous(2, []) == 0
    assert complete_homogeneous(2, [Fraction(0), Fraction(1)]) == 1
    assert complete_homogeneous(1, [Fraction(2), Fraction(3)]) == 5


def test_complete_homogeneous_vs_bruteforce():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(0, 5)
        m = rng.randrange(0, 5)
        xs = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
        assert complete_homogeneous(m, xs) == h_brute(m, xs)


def test_complete_homogeneous_all_prefix_consistency():
    xs = [Fraction(1), Fraction(2), Fraction(-1)]
    hs = complete_homogeneous_all(4, xs)
    assert len(hs) == 5
    for m, h in enumerate(hs):
        assert h == complete_homogeneous(m, xs)


def test_complete_homogeneous_fp():
    xs = [F7.from_int(2), F7.from_int(3)]
    assert complete_homogeneous(2, xs) == F7.from_int(int(h_brute(2, [2, 3])) % 7)


def test_univariate_degree_and_leading():
    f = UnivariatePoly([1, 0, 1])
    assert f.degree == 2
    assert f.leading_coefficient == 1
    g = UnivariatePoly([5, 3, 0, 0])  # trailing zeros kept, degree ignores them
    assert g.degree == 1
    assert g.coeffs == (5, 3, 0, 0)
    z = UnivariatePoly([0, 0])
    assert z.degree == -1
    with pytest.raises(ValueError):
        z.leading_coefficient
    with pytest.raises(ValueError):
        UnivariatePoly([])


def test_univariate_evaluate():
    f = UnivariatePoly([1, 0, 1])  # t^2 + 1
    assert f.evaluate(Fraction(3)) == 10
    assert f.coefficient(5) == 0
    assert f.coefficient(2) == 1


def test_domain_mixing_rejected():
    with pytest.raises(DomainMismatchError):
        HomogeneousPoly(1, [Fraction(1), F7.one])


def test_poly_json_roundtrip():
    p = HomogeneousPoly(2, [Fraction(1, 2), Fraction(0), Fraction(-3)])
    obj = poly_to_json(p)
    assert obj == {"kind": "homogeneous", "degree": 2, "coeffs": ["1/2", "0", "-3"]}
    assert poly_from_json(obj, RATIONAL) == p

    f = UnivariatePoly([F7.from_int(3), F7.from_int(6)], F7)
    obj = poly_to_json(f)
    assert obj == {"kind": "sum_form", "coeffs": ["3", "6"]}
    assert poly_from_json(obj, F7) == f

    with pytest.raises(ValueError):
        poly_from_json({"kind": "fourier", "coeffs": []}, RATIONAL)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([None, PrimeField(2), PrimeField(3)]),
    st.integers(min_value=-1, max_value=5),
    st.lists(
        st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))),
        max_size=4,
    ),
)
def test_complete_homogeneous_all_lifting_edges(field, m, xs):
    # mixed denominators, negative and zero points; collisions in F_2, F_3
    if field is None:
        assert complete_homogeneous_all(m, xs) == tuple(h_brute(d, xs) for d in range(m + 1))
    else:
        ints = [x.numerator % field.p for x in xs]
        hs = complete_homogeneous_all(m, [field.from_int(x) for x in ints], field)
        assert hs == tuple(field.from_int(int(h_brute(d, ints))) for d in range(m + 1))
