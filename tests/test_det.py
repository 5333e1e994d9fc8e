import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat import det as det_mod
from evalmat import kernel
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
    engines,
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
    evaluation_image,
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
from evalmat.scalar import RATIONAL, PrimeField, SingularChangeError, SizeMismatchError, binomial

from oracles import leibniz_det

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


@pytest.mark.parametrize("dom", [None, F101], ids=["q", "fp"])
def test_reports_compare_and_hash_on_every_method(dom):
    # over Q, at points of denominator 3, the two routes store their terms
    # over different denominators and still give equal reports
    def pts(n):
        xs = [Fraction(2 * i + 1, 3) if dom is None else 2 * i + 1 for i in range(n)]
        return PointVectors(xs, [i * i + 2 for i in range(n)], dom)

    hom = HomogeneousPoly(3, [1, 2, 0, 5], dom)

    def reports():
        return [
            det_structured(hom, pts(5)),
            det_borderline(hom, pts(4)),
            det_sum_form(UnivariatePoly([1, 2, 3], dom), pts(3)),
            det_cauchy_binet(hom, pts(2), DIRECT),
            det_cauchy_binet(hom, pts(2), H_ROUTE),
            oracle_det(hom, pts(2)),
        ]

    first, again = reports(), reports()
    methods = [VANISH_RANK, BORDERLINE, SUM_FORM, CAUCHY_BINET, CAUCHY_BINET, ORACLE]
    assert [r.method for r in first] == methods
    assert first == again and [hash(r) for r in first] == [hash(r) for r in again]
    direct, hroute = first[3], first[4]
    if dom is None:
        assert direct.term_den != hroute.term_den
    assert direct == hroute and hash(direct) == hash(hroute)
    assert len(set(first)) == 5
    assert direct.subset_terms is direct.subset_terms == hroute.subset_terms
    assert [s for s, _ in direct.subset_terms] == [(0, 1), (0, 3), (1, 3)]
    assert all(r.subset_terms is None for r in first if r.method != CAUCHY_BINET)


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


# ------------------------------------------------------ cost-aware dispatch


def test_cauchy_binet_routes_match_oracle_sweep():
    # the dispatcher sends most n <= k instances to the oracle, so both
    # minor-expansion routes get their own sweep over the dispatcher's grid
    rng = random.Random(113)
    for k in range(0, 6):
        for n in range(1, k + 1):
            for _ in range(200):
                p, pts = rand_instance(rng, k, n)
                expected = bareiss_det(evaluation_matrix(p, pts))
                assert det_cauchy_binet(p, pts, DIRECT).value == expected
                assert det_cauchy_binet(p, pts, H_ROUTE).value == expected


def test_dispatch_follows_cost_rule():
    # random supports put instances with n >= 2 on both sides of S*n <= k+1+n
    rng = random.Random(127)
    seen = set()
    for k in range(1, 9):
        for n in range(1, k + 1):
            for _ in range(8):
                p, pts = rand_instance(rng, k, n)
                p = HomogeneousPoly(k, [c if rng.random() < 0.5 else 0 for c in p.coeffs])
                rep = det_structured(p, pts)
                cheap = math.comb(len(p.support()), n) * n <= k + 1 + n
                assert rep.method == (CAUCHY_BINET if cheap else ORACLE)
                assert rep.value == oracle_det(p, pts).value
                seen.add((n > 1, rep.method))
    assert seen == {(False, CAUCHY_BINET), (True, CAUCHY_BINET), (True, ORACLE)}


def test_dispatch_dense_n6_k12_uses_oracle():
    rng = random.Random(131)
    F = PrimeField(2**31 - 1)
    p = HomogeneousPoly(12, [F.from_int(rng.randrange(1, F.p)) for _ in range(13)], F)
    pts = PointVectors(
        [F.from_int(rng.randrange(F.p)) for _ in range(6)],
        [F.from_int(rng.randrange(F.p)) for _ in range(6)],
        F,
    )
    rep = det_structured(p, pts)
    assert rep.method == ORACLE and rep.subset_terms is None
    assert rep.value == oracle_det(p, pts).value == det_cauchy_binet(p, pts, H_ROUTE).value


def test_dispatch_support_smaller_than_n_builds_no_matrix(monkeypatch):
    import evalmat.det as det_mod

    def no_matrix(*args):
        raise AssertionError("built a matrix")

    # the oracle's builder; Cauchy-Binet DIRECT takes only the power rows
    monkeypatch.setattr(det_mod, "evaluation_image", no_matrix)
    p = HomogeneousPoly(5, [3, 0, 0, 0, 0, 7])
    rep = det_structured(p, PointVectors([1, 2, 3], [4, 5, 6]))
    assert rep.method == CAUCHY_BINET and rep.value == 0 and rep.subset_terms == ()


@pytest.mark.parametrize("dom", [None, F101])
def test_dispatch_sum_form_in_every_regime(dom):
    f = UnivariatePoly([1, 2, 3], dom)
    pts = PointVectors([0, 1, 2], [0, 1, 5], dom)
    rep = det_structured(f, pts)
    expected = -2160 if dom is None else dom.from_int(-2160)
    assert rep.method == SUM_FORM and rep.value == oracle_det(f, pts).value == expected
    for n in (4, 5):
        big = PointVectors(range(n), range(3, 3 + n), dom)
        rep = det_structured(f, big)
        assert rep.method == VANISH_RANK and rep.value == 0 == oracle_det(f, big).value
    for n in (1, 2):
        small = PointVectors([2, 7][:n], [3, -4][:n], dom)
        rep = det_structured(f, small)
        assert rep.method == ORACLE and rep.value == oracle_det(f, small).value


# ------------------------------------------- oracle on the integer image
def _oracle_scalars(dom):
    if dom is None:
        # num/den points with distinct denominators, zeros and repeats
        fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))
        return st.one_of(st.just(Fraction(0)), fractions)
    return st.integers(0, dom.p - 1).map(dom.from_int)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, None, PrimeField(2), PrimeField(3), F101]), st.data())
def test_oracle_matches_leibniz_on_evaluated_entries(field, data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, 6))

    def vec(size):
        return data.draw(st.lists(_oracle_scalars(field), min_size=size, max_size=size))

    coeffs = vec(k + 1)
    a = vec(n)
    b = data.draw(st.sampled_from([a, a[::-1], vec(n)]))  # shared points repeat across a, b
    pts = PointVectors(a, b, field)
    p = HomogeneousPoly(k, coeffs, field)
    entries = [[p.evaluate(x, y) for y in pts.b] for x in pts.a]
    assert oracle_det(p, pts).value == leibniz_det(entries)
    f = UnivariatePoly(coeffs, field)
    entries = [[f.evaluate(x + y) for y in pts.b] for x in pts.a]
    assert oracle_det(f, pts).value == leibniz_det(entries)


@pytest.mark.parametrize("field", [None, PrimeField(2**31 - 1)])
@pytest.mark.parametrize("n", [15, 16, 18, 20])
def test_oracle_matches_bareiss_of_evaluation_matrix(field, n):
    # both sides of kernel.PACK_MIN = 16, borderline and n <= k; distinct
    # points and nonzero coefficients keep every determinant nonzero
    rng = random.Random(1000 + n)
    dom = field or RATIONAL

    def vec(size):
        out = set()
        while len(out) < size:
            x = rng.randrange(1, 100) * rng.choice([-1, 1])
            out.add(Fraction(x, rng.randrange(1, 12)) if field is None else dom.from_int(x))
        return rng.sample(sorted(out, key=str), size)

    pts = PointVectors(vec(n), vec(n), dom)
    for k in (n - 1, n + 3):
        for p in (HomogeneousPoly(k, vec(k + 1), dom), UnivariatePoly(vec(k + 1), dom)):
            value = oracle_det(p, pts).value
            assert value == bareiss_det(evaluation_matrix(p, pts)) and value != 0


def test_oracle_builds_no_dense_matrix(monkeypatch):
    import evalmat.matrix as matrix_mod

    cases = []
    for field, a, b in (
        (None, [Fraction(1, 2), 3, Fraction(-2, 7)], [4, Fraction(-5, 3), 7]),
        (F101, [1, 5, 60], [2, 9, 33]),
    ):
        pts = PointVectors(a, b, field)
        polys = (
            HomogeneousPoly(2, [1, 2, 3], field),
            HomogeneousPoly(4, [1, 0, 2, 5, 3], field),
            UnivariatePoly([1, 2, 3], field),
            UnivariatePoly([1, -1, 2, 0, 5], field),
        )
        cases += [(p, pts, bareiss_det(evaluation_matrix(p, pts))) for p in polys]

    def no_scalars(*args, **kwargs):
        raise AssertionError("built per-entry scalars")

    monkeypatch.setattr(matrix_mod, "_wrap", no_scalars)
    monkeypatch.setattr(DenseMatrix, "__init__", no_scalars)
    for p, pts, expected in cases:
        assert oracle_det(p, pts).value == expected


@pytest.mark.parametrize("n", range(19, 28))
def test_oracle_over_q_matches_bareiss_around_multimodular_min(monkeypatch, n):
    # the oracle runs the CRT route where n^3 * bit_length(2H) reaches
    # kernel.MULTIMODULAR_MIN_SIZE, for H the image's Hadamard bound; these
    # instances are below it up to n = 23 and above it from n = 24, each by
    # at least 20%, so both routes run. n cycles through both kinds and
    # through integer and num/den points
    calls = []
    crt = kernel.det_multimodular
    monkeypatch.setattr(kernel, "det_multimodular", lambda a, limit: calls.append(a) or crt(a, limit))
    rng = random.Random(2000 + n)
    den = 1 if n // 2 % 2 else 6

    def vec(size):
        out = set()
        while len(out) < size:
            num = rng.randrange(1, 40) * rng.choice([-1, 1])
            out.add(Fraction(num, rng.randrange(1, den + 1)))
        return rng.sample(sorted(out), size)

    pts = PointVectors(vec(n), vec(n))
    k = n - 1 if n % 3 else n + 2
    p = HomogeneousPoly(k, vec(k + 1)) if n % 2 else UnivariatePoly(vec(k + 1))
    value = oracle_det(p, pts).value
    assert value == bareiss_det(evaluation_matrix(p, pts)) and value != 0
    size = n**3 * kernel._crt_limit(evaluation_image(p, pts)[0]).bit_length()
    assert not 0.8 * kernel.MULTIMODULAR_MIN_SIZE < size < 1.2 * kernel.MULTIMODULAR_MIN_SIZE
    assert len(calls) == (size >= kernel.MULTIMODULAR_MIN_SIZE) == (n >= 24)


@pytest.mark.parametrize("field", [None, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1)])
@pytest.mark.parametrize("n", range(1, 8))
def test_direct_minor_terms_are_descending_minors(field, n):
    # DIRECT eliminates V's minors on ascending exponents and applies
    # (-1)^C(n,2); n = 1..7 covers every n mod 4. Each term must still be
    # det V(:,I) * prod alpha_I * det W(:,I) with V's exponents descending
    rng = random.Random(n)
    dom = field or RATIONAL
    k = n + 1

    def vec(size):
        if field is None:
            return [Fraction(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(size)]
        return [dom.from_int(rng.randrange(dom.p)) for _ in range(size)]

    a, b = vec(n), vec(n)
    a[-1] = a[0]  # a repeated point zeroes every V minor when n >= 2
    for pts in (PointVectors(a, b, dom), PointVectors(b, b[::-1], dom)):
        p = HomogeneousPoly(k, vec(k + 1), dom)
        v, w = vandermonde_desc(pts.a, k, dom), vandermonde_asc(pts.b, k, dom)
        report = det_cauchy_binet(p, pts, DIRECT)
        for subset, term in report.subset_terms:
            alpha = math.prod((p.coeffs[i] for i in subset), start=dom.one)
            assert term == minor_det(v, subset) * alpha * minor_det(w, subset)
        assert report.value == oracle_det(p, pts).value


def test_cauchy_binet_needs_a_point():
    with pytest.raises(SizeMismatchError, match="need at least one evaluation point"):
        det_cauchy_binet(HomogeneousPoly(2, [1, 2, 1]), PointVectors([], []))


def test_budget_refuses_cauchy_binet_and_auto_takes_the_oracle(monkeypatch):
    # n = 1, k = 2, dense support: S = 3 subsets, and S*n <= k+1+n, so only
    # the budget keeps auto from the expansion
    p, pts = HomogeneousPoly(2, [1, 2, 3]), PointVectors([5], [7])
    expansion = det_structured(p, pts)
    assert expansion.method == CAUCHY_BINET and expansion.value == 1 * 25 + 2 * 35 + 3 * 49
    monkeypatch.setattr(det_mod, "CB_VERIFY_BUDGET", 2)
    assert engines(p, 1) == (ORACLE, DIRECT, H_ROUTE)
    rep = det_structured(p, pts)
    assert rep.method == ORACLE and rep.value == oracle_det(p, pts).value == expansion.value

    def no_lift(*args):
        raise AssertionError("lifted")

    # refused before the coefficients are lifted or a subset is listed
    monkeypatch.setattr(det_mod, "shared_domain", no_lift)
    for mode in (DIRECT, H_ROUTE):
        with pytest.raises(SizeMismatchError) as info:
            det_cauchy_binet(p, pts, mode)
        assert str(info.value) == "Cauchy-Binet expansion over 3 support subsets > limit 2"
        assert (info.value.subsets, info.value.limit) == (3, 2)


def test_engines_refuse_the_other_polynomial_kind():
    # f(x + y) = 1 + 2(x+y) + 3(x+y)^2 and x^2 + 2xy + 3y^2 share coefficients,
    # so an engine that read the other kind's fields would give a wrong value
    f, h = UnivariatePoly([1, 2, 3]), HomogeneousPoly(2, [1, 2, 3])
    pts3, pts2 = PointVectors([1, 2, 4], [3, 5, 9]), PointVectors([1, 2], [3, 5])
    assert oracle_det(f, pts3).value == det_sum_form(f, pts3).value == -15552
    assert oracle_det(f, pts2).value == -1172
    calls = [
        lambda: det_borderline(f, pts3),
        lambda: det_cauchy_binet(f, pts2, DIRECT),
        lambda: det_cauchy_binet(f, pts2, H_ROUTE),
        lambda: det_sum_form(h, pts3),
        lambda: pascal_core_det(h, 3),
        lambda: predict_equivariant_det(h, LinearChange(1, 0, 0, 1), pts3),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="needs a (Homogeneous|Univariate)Poly, got"):
            call()


@pytest.mark.parametrize("engine", ["sum_form", "pascal_core"])
def test_sum_form_regime_check(engine):
    # det_sum_form and pascal_core_det share one n = deg f + 1 check
    def run(f, n):
        if engine == "sum_form":
            return det_sum_form(f, PointVectors(range(n), range(n)))
        return pascal_core_det(f, n)

    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        run(UnivariatePoly([0, 0]), 1)
    label = "sum form" if engine == "sum_form" else "pascal core"
    with pytest.raises(SizeMismatchError, match=f"{label} needs n = deg f \\+ 1, got n=2, deg=2"):
        run(UnivariatePoly([1, 0, 3]), 2)


def _rules_before_engines(p, n):
    """The three regime rules as det_structured, verify and det --show-terms
    wrote them before det.engines held them: (auto's engine, verify's rows,
    --show-terms' engine)."""
    k, homogeneous = p.degree, isinstance(p, HomogeneousPoly)
    if n >= k + 2:
        auto = VANISH_RANK
    elif n == k + 1:
        auto = BORDERLINE if homogeneous else SUM_FORM
    elif not homogeneous or math.comb(len(p.support()), n) * n > k + 1 + n:
        auto = ORACLE
    else:
        auto = DIRECT
    rows = [auto] if n >= k + 1 else []
    rows += [DIRECT, H_ROUTE] if homogeneous and n <= k + 1 else []
    show_terms = DIRECT if homogeneous and n <= k else auto
    return auto, rows + [ORACLE], show_terms


def test_engines_match_the_rules_they_replace():
    # dense, sparse and all-zero supports, sum forms (the zero one included),
    # at every n from 1 to k+2 over Q and F_101
    seen = set()
    for dom, k in itertools.product([RATIONAL, F101], range(7)):
        polys = [
            HomogeneousPoly(k, [i + 1 for i in range(k + 1)], dom),
            HomogeneousPoly(k, [int(i % 2 == 0) for i in range(k + 1)], dom),
            HomogeneousPoly(k, [0] * (k + 1), dom),
            UnivariatePoly([1] * (k + 1), dom),
            UnivariatePoly([0] * (k + 1), dom),
        ]
        for p in polys:
            for n in range(1, max(p.degree, 0) + 3):
                auto, rows, show_terms = _rules_before_engines(p, n)
                names = engines(p, n)
                assert names[0] == auto, (p, n)
                assert [e for e in names if e != ORACLE] + [ORACLE] == rows, (p, n)
                shown = DIRECT if names[0] == ORACLE and DIRECT in names else names[0]
                assert shown == show_terms, (p, n)
                pts = PointVectors(range(n), range(1, n + 1), dom)
                method = CAUCHY_BINET if auto == DIRECT else auto
                assert det_structured(p, pts).method == method, (p, n)
                seen.add((auto, show_terms))
    # both sides of the cost rule, and DIRECT in place of ORACLE, were reached
    assert {(DIRECT, DIRECT), (ORACLE, DIRECT), (ORACLE, ORACLE)} <= seen
