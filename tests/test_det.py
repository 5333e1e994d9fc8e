import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat.det import (
    BORDERLINE,
    CAUCHY_BINET,
    DIRECT,
    H_ROUTE,
    ORACLE,
    SUM_FORM,
    VANISH_RANK,
    DetReport,
    LinearChange,
    det_borderline,
    det_cauchy_binet,
    det_structured,
    det_sum_form,
    oracle_det,
    pascal_core_det,
    predict_equivariant_det,
    rank_upper_bound,
    report_to_json,
    schur_minor,
)
from evalmat.matrix import (
    DenseMatrix,
    PointVectors,
    bareiss_det,
    evaluation_matrix,
    minor_det,
    rank,
    vandermonde_asc,
    vandermonde_desc,
    vandermonde_product,
)
from evalmat.poly import (
    HomogeneousPoly,
    UnivariatePoly,
    all_ones_poly,
    alternating_poly,
    sum_power_poly,
)
from evalmat.scalar import PrimeField, SingularChangeError, SizeMismatchError, binomial

F101 = PrimeField(101)


def rand_fracs(rng, count, lo=-9, hi=9, den=4):
    return [Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, den)) for _ in range(count)]


def rand_instance(rng, k, n):
    p = HomogeneousPoly(k, rand_fracs(rng, k + 1))
    pts = PointVectors(rand_fracs(rng, n), rand_fracs(rng, n))
    return p, pts


# ---------------------------------------------------------------- dispatcher


def test_structured_vanishing_regime():
    p, pts = HomogeneousPoly(2, [1, 5, 7]), PointVectors([1, 2, 3, 4], [9, 8, 7, 6])
    rep = det_structured(p, pts)
    assert rep.method == VANISH_RANK and rep.value == 0


def test_structured_borderline_example():
    rep = det_structured(sum_power_poly(2), PointVectors([0, 1, 2], [0, 1, 2]))
    assert rep.method == BORDERLINE and rep.value == -8


def test_structured_cauchy_binet_example():
    rep = det_structured(HomogeneousPoly(2, [1, 1, 1]), PointVectors([2], [3]))
    assert rep.method == CAUCHY_BINET and rep.value == 19


def test_structured_matches_oracle_sweep():
    rng = random.Random(101)
    for k in range(0, 6):
        for n in range(1, k + 4):
            for _ in range(200):
                p, pts = rand_instance(rng, k, n)
                rep = det_structured(p, pts)
                assert rep.value == bareiss_det(evaluation_matrix(p, pts))


def test_structured_matches_oracle_fp():
    rng = random.Random(103)
    for _ in range(60):
        k = rng.randrange(0, 5)
        n = rng.randrange(1, k + 4)
        p = HomogeneousPoly(k, [F101.from_int(rng.randrange(101)) for _ in range(k + 1)], F101)
        pts = PointVectors(
            [F101.from_int(rng.randrange(101)) for _ in range(n)],
            [F101.from_int(rng.randrange(101)) for _ in range(n)],
            F101,
        )
        assert det_structured(p, pts).value == bareiss_det(evaluation_matrix(p, pts))


def test_vanishing_regime_oracle_zero():
    rng = random.Random(107)
    for k in range(0, 5):
        for n in (k + 2, k + 3):
            for _ in range(10):
                p, pts = rand_instance(rng, k, n)
                assert bareiss_det(evaluation_matrix(p, pts)) == 0


def test_scaling_in_coefficients():
    # det(c*p) = c^n det(p) at n = k+1: multilinear in D, not linear in p
    rng = random.Random(109)
    for _ in range(25):
        k = rng.randrange(0, 5)
        n = k + 1
        p, pts = rand_instance(rng, k, n)
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        assert det_structured(p.scale(c), pts).value == c**n * det_structured(p, pts).value


# ---------------------------------------------------------------- borderline


def test_borderline_k1_breakdown():
    rep = det_borderline(HomogeneousPoly(1, [1, 1]), PointVectors([0, 1], [0, 1]))
    assert (rep.sign_factor, rep.coeff_product, rep.vdm_a, rep.vdm_b) == (-1, 1, 1, 1)
    assert rep.value == -1


def test_borderline_k3_breakdown():
    rep = det_borderline(sum_power_poly(3), PointVectors([0, 1, 2, 3], [0, 1, 2, 3]))
    assert rep.value == 1296
    assert rep.sign_factor == 1
    assert rep.coeff_product == 9
    assert rep.vdm_a == rep.vdm_b == 12


def test_borderline_zero_cases():
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    assert det_borderline(HomogeneousPoly(2, [1, 0, 1]), pts).value == 0
    rep = det_borderline(sum_power_poly(2), PointVectors([0, 1, 1], [0, 1, 2]))
    assert rep.vdm_a == 0 and rep.value == 0


def test_borderline_size_mismatch():
    with pytest.raises(SizeMismatchError):
        det_borderline(sum_power_poly(2), PointVectors([0, 1], [0, 1]))


def test_borderline_factor_identity():
    rng = random.Random(113)
    for _ in range(30):
        k = rng.randrange(0, 6)
        p, pts = rand_instance(rng, k, k + 1)
        rep = det_borderline(p, pts)
        assert rep.value == rep.sign_factor * rep.coeff_product * rep.vdm_a * rep.vdm_b


# ------------------------------------------------------------- cauchy-binet


def test_cauchy_binet_terms_n2():
    rep = det_cauchy_binet(sum_power_poly(2), PointVectors([0, 1], [0, 1]))
    assert [t for _, t in rep.subset_terms] == [0, -1, 0]
    assert [s for s, _ in rep.subset_terms] == [(0, 1), (0, 2), (1, 2)]
    assert rep.value == -1


def test_cauchy_binet_terms_n1_h_route():
    rep = det_cauchy_binet(HomogeneousPoly(2, [1, 1, 1]), PointVectors([2], [3]), H_ROUTE)
    assert [t for _, t in rep.subset_terms] == [4, 6, 9]
    assert rep.value == 19


def test_cauchy_binet_single_subset_equals_borderline():
    rng = random.Random(127)
    for _ in range(20):
        k = rng.randrange(0, 5)
        p, pts = rand_instance(rng, k, k + 1)
        cb = det_cauchy_binet(p, pts)
        assert len(cb.subset_terms) <= 1
        assert cb.value == det_borderline(p, pts).value


def test_cauchy_binet_skips_zero_coefficient_subsets():
    p = HomogeneousPoly(3, [1, 0, 1, 1])
    rep = det_cauchy_binet(p, PointVectors([1, 2], [3, 4]))
    assert all(1 not in s for s, _ in rep.subset_terms)
    assert len(rep.subset_terms) == 3  # C(4,2) minus the three subsets containing 1


def test_cauchy_binet_mode_equivalence_and_terms():
    rng = random.Random(131)
    for _ in range(60):
        k = rng.randrange(0, 7)
        n = rng.randrange(1, k + 2)
        p, pts = rand_instance(rng, k, n)
        direct = det_cauchy_binet(p, pts, DIRECT)
        hroute = det_cauchy_binet(p, pts, H_ROUTE)
        assert direct.value == hroute.value
        assert direct.subset_terms == hroute.subset_terms


def test_cauchy_binet_size_mismatch():
    with pytest.raises(SizeMismatchError):
        det_cauchy_binet(sum_power_poly(1), PointVectors([1, 2, 3], [1, 2, 3]))
    with pytest.raises(ValueError):
        det_cauchy_binet(sum_power_poly(1), PointVectors([1], [2]), "fancy")


# -------------------------------------------------------------- schur minor


def test_schur_minor_examples():
    assert schur_minor([Fraction(3), Fraction(7)], [1, 0]) == 1  # staircase: s_empty
    assert schur_minor([0, 1], [2, 1]) == 0  # s_(1,1) = x1 x2 at (0,1)
    assert schur_minor([2], [2]) == 4  # h_2(2)


def test_schur_minor_bad_exponents():
    with pytest.raises(ValueError):
        schur_minor([1, 2], [1, 1])
    with pytest.raises(ValueError):
        schur_minor([1, 2], [0, 1])
    with pytest.raises(ValueError):
        schur_minor([1, 2], [2, -1])
    with pytest.raises(ValueError):
        schur_minor([1, 2], [2])


def test_schur_minor_reconstructs_generalized_vandermonde():
    # det [x_r^{e_j}] for descending e equals prod_{r<r'}(x_r - x_{r'}) * s_lam
    rng = random.Random(137)
    for _ in range(50):
        n = rng.randrange(1, 5)
        top = rng.randrange(n, n + 5)
        exps = sorted(rng.sample(range(top + 1), n), reverse=True)
        xs = rand_fracs(rng, n)
        rows = [[x ** e for e in exps] for x in xs]
        lhs = bareiss_det(DenseMatrix(rows))
        sign = -1 if binomial(n, 2) % 2 else 1
        assert lhs == sign * vandermonde_product(xs) * schur_minor(xs, exps)


def test_h_route_minors_match_direct_minors():
    # each factor of the H route, not just the product, equals elimination
    rng = random.Random(141)
    for _ in range(40):
        k = rng.randrange(0, 6)
        n = rng.randrange(1, k + 2)
        xs = rand_fracs(rng, n)
        subset = tuple(sorted(rng.sample(range(k + 1), n)))
        sign = -1 if binomial(n, 2) % 2 else 1
        v = vandermonde_desc(xs, k)
        exps_v = tuple(k - i for i in subset)
        assert minor_det(v, subset) == sign * vandermonde_product(xs) * schur_minor(xs, exps_v)
        w = vandermonde_asc(xs, k)
        exps_w = tuple(reversed(subset))
        assert minor_det(w, subset) == vandermonde_product(xs) * schur_minor(xs, exps_w)


# ------------------------------------------------------------- rank bounds


def test_rank_upper_bound_examples():
    assert rank_upper_bound(HomogeneousPoly(3, [0, 1, 0, 0]), 3) == 1
    assert rank_upper_bound(sum_power_poly(2), 2) == 2
    assert rank_upper_bound(HomogeneousPoly(2, [1, 1, 1]), 5) == 3


def test_rank_upper_bound_holds_and_sparse_vanishing():
    rng = random.Random(139)
    for _ in range(60):
        k = rng.randrange(0, 6)
        coeffs = [Fraction(rng.randrange(-5, 6)) if rng.random() < 0.5 else Fraction(0) for _ in range(k + 1)]
        p = HomogeneousPoly(k, coeffs)
        n = rng.randrange(1, k + 3)
        pts = PointVectors(rand_fracs(rng, n), rand_fracs(rng, n))
        a = evaluation_matrix(p, pts)
        bound = rank_upper_bound(p, n)
        assert rank(a) <= bound
        if len(p.support()) < n:
            assert bareiss_det(a) == 0


# ----------------------------------------------------------------- sum form


def test_sum_form_examples():
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    assert det_sum_form(UnivariatePoly([1, 0, 1]), pts).value == -8
    assert det_sum_form(UnivariatePoly([0, 0, 1]), pts).value == -8
    one_pt = PointVectors([5], [9])
    assert det_sum_form(UnivariatePoly([Fraction(7, 2)]), one_pt).value == Fraction(7, 2)


def test_sum_form_errors():
    with pytest.raises(SizeMismatchError):
        det_sum_form(UnivariatePoly([1, 0, 1]), PointVectors([0, 1], [0, 1]))
    with pytest.raises(ValueError):
        det_sum_form(UnivariatePoly([0, 0]), PointVectors([1], [2]))


def test_sum_form_lower_coefficient_independence():
    rng = random.Random(149)
    for _ in range(25):
        k = rng.randrange(0, 6)
        lead = Fraction(rng.randrange(1, 8), rng.randrange(1, 4))
        low = rand_fracs(rng, k)
        f = UnivariatePoly(low + [lead])
        g = UnivariatePoly([Fraction(0)] * k + [lead])
        pts = PointVectors(rand_fracs(rng, k + 1), rand_fracs(rng, k + 1))
        rf, rg = det_sum_form(f, pts), det_sum_form(g, pts)
        assert rf.value == rg.value
        # and the formula is honest against elimination
        assert rf.value == bareiss_det(evaluation_matrix(f, pts))


def test_pascal_core_det_examples():
    # oracle and closed form agree at -2 (the sign comes out of elimination)
    assert pascal_core_det(UnivariatePoly([0, 0, 1]), 3) == -2
    assert pascal_core_det(UnivariatePoly([0, 1]), 2) == -1
    assert pascal_core_det(UnivariatePoly([Fraction(5, 3)]), 1) == Fraction(5, 3)
    with pytest.raises(SizeMismatchError):
        pascal_core_det(UnivariatePoly([0, 1]), 3)


def test_pascal_core_det_closed_form_all_k():
    rng = random.Random(151)
    for k in range(0, 9):
        lead = Fraction(rng.randrange(1, 6))
        f = UnivariatePoly(rand_fracs(rng, k) + [lead])
        n = k + 1
        sign = -1 if binomial(n, 2) % 2 else 1
        closed = lead**n * sign
        for i in range(k + 1):
            closed *= binomial(k, i)
        assert pascal_core_det(f, n) == closed


# -------------------------------------------------------------- equivariance


def test_equivariance_identity_change():
    f = UnivariatePoly([1, 0, 1])
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    b = LinearChange(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    c, d, predicted = predict_equivariant_det(f, b, pts)
    assert (c, d) == (1, 1)
    assert predicted == det_sum_form(f, pts).value


def test_equivariance_example_minus_64():
    f = UnivariatePoly([0, 0, 1])
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    b = LinearChange(Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    c, d, predicted = predict_equivariant_det(f, b, pts)
    assert (c, d, predicted) == (2, 1, -64)
    transformed = PointVectors([c * x for x in pts.a], [d * x for x in pts.b])
    assert bareiss_det(evaluation_matrix(f, transformed)) == -64


def test_equivariance_degenerate_c():
    f = UnivariatePoly([0, 0, 1])
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    b = LinearChange(Fraction(1), Fraction(1), Fraction(-1), Fraction(1))  # c = 0
    _, _, predicted = predict_equivariant_det(f, b, pts)
    assert predicted == 0


def test_equivariance_singular_b():
    f = UnivariatePoly([0, 1])
    with pytest.raises(SingularChangeError):
        predict_equivariant_det(
            f, LinearChange(Fraction(1), Fraction(2), Fraction(2), Fraction(4)), PointVectors([0, 1], [0, 1])
        )


def test_equivariance_random_agreement():
    rng = random.Random(157)
    checked = 0
    while checked < 40:
        k = rng.randrange(0, 5)
        f = UnivariatePoly(rand_fracs(rng, k) + [Fraction(rng.randrange(1, 6))])
        vals = rand_fracs(rng, 4, lo=-4, hi=4, den=3)
        b = LinearChange(*vals)
        if not b.det or not b.c or not b.d:
            continue
        pts = PointVectors(rand_fracs(rng, k + 1), rand_fracs(rng, k + 1))
        c, d, predicted = predict_equivariant_det(f, b, pts)
        transformed = PointVectors([c * x for x in pts.a], [d * x for x in pts.b])
        assert predicted == bareiss_det(evaluation_matrix(f, transformed))
        checked += 1


# -------------------------------------------------- named special cases


def test_named_polynomial_specializations_against_oracle():
    rng = random.Random(163)
    for k in range(0, 6):
        n = k + 1
        a = rand_fracs(rng, n)
        b = rand_fracs(rng, n)
        pts = PointVectors(a, b)
        vdm = vandermonde_product(pts.a) * vandermonde_product(pts.b)
        sign = -1 if binomial(k + 1, 2) % 2 else 1

        rep = det_borderline(sum_power_poly(k), pts)
        coeffs = 1
        for i in range(k + 1):
            coeffs *= binomial(k, i)
        assert rep.value == sign * coeffs * vdm
        assert rep.value == bareiss_det(evaluation_matrix(sum_power_poly(k), pts))

        rep = det_borderline(all_ones_poly(k), pts)
        assert rep.value == sign * vdm
        assert rep.value == bareiss_det(evaluation_matrix(all_ones_poly(k), pts))

        rep = det_borderline(alternating_poly(k), pts)
        assert rep.value == vdm  # the two (-1)^C(k+1,2) factors cancel
        assert rep.value == bareiss_det(evaluation_matrix(alternating_poly(k), pts))


def test_quotient_identities():
    rng = random.Random(167)
    for _ in range(100):
        k = rng.randrange(0, 7)
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        ones = all_ones_poly(k)
        assert ones.evaluate(a, b) * (a - b) == a ** (k + 1) - b ** (k + 1)
        if a != b:
            assert ones.evaluate(a, b) == (a ** (k + 1) - b ** (k + 1)) / (a - b)
        k_odd = k | 1
        alt = alternating_poly(k_odd)
        assert alt.evaluate(a, b) * (a + b) == a ** (k_odd + 1) - (-b) ** (k_odd + 1)
        if a != -b:
            assert alt.evaluate(a, b) == (a ** (k_odd + 1) - (-b) ** (k_odd + 1)) / (a + b)


# ------------------------------------------------------------------ reports


def test_report_json():
    rep = det_borderline(sum_power_poly(2), PointVectors([0, 1, 2], [0, 1, 2]))
    obj = report_to_json(rep)
    assert obj == {
        "value": "-8",
        "method": "BORDERLINE",
        "sign_factor": -1,
        "coeff_product": "2",
        "vdm_a": "2",
        "vdm_b": "2",
    }
    cb = det_cauchy_binet(sum_power_poly(2), PointVectors([0, 1], [0, 1]))
    assert "subset_terms" not in report_to_json(cb)
    with_terms = report_to_json(cb, include_terms=True)
    assert with_terms["subset_terms"] == [
        {"subset": [0, 1], "term": "0"},
        {"subset": [0, 2], "term": "-1"},
        {"subset": [1, 2], "term": "0"},
    ]
    assert report_to_json(oracle_det(sum_power_poly(1), PointVectors([1], [2]))) == {
        "value": "3",
        "method": "ORACLE",
    }


# ------------------------------------------- lifting edges (property tests)
def _cb_scalars(dom):
    if dom is None:
        fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
        return st.one_of(st.just(Fraction(0)), fractions)
    return st.integers(0, dom.p - 1).map(dom.from_int)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, None, PrimeField(2), PrimeField(3), F101]), st.data())
def test_cauchy_binet_routes_and_terms_match_oracle(field, data):
    # mixed denominators, negative and zero points, zero coefficients
    # anywhere, and collision-heavy points in F_2 and F_3
    k = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(1, min(k + 1, 4)))

    def vec(size):
        return data.draw(st.lists(_cb_scalars(field), min_size=size, max_size=size))

    coeffs = vec(k + 1)
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(vec(n), vec(n), field)
    dom = pts.domain
    expected = oracle_det(p, pts).value
    support = [i for i, c in enumerate(p.coeffs) if c]
    for mode in (DIRECT, H_ROUTE):
        report = det_cauchy_binet(p, pts, mode)
        assert report.value == expected
        assert [s for s, _ in report.subset_terms] == list(itertools.combinations(support, n))
        for subset, term in report.subset_terms:
            # with support exactly I the expansion has the single term I
            only = [c if i in subset else dom.zero for i, c in enumerate(p.coeffs)]
            assert term == oracle_det(HomogeneousPoly(k, only, dom), pts).value
