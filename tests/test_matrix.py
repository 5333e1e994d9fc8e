import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalmat.matrix import (
    DenseMatrix,
    PointVectors,
    bareiss_det,
    evaluation_matrix,
    factorization_parts,
    matrix_from_json,
    matrix_to_json,
    minor_det,
    pascal_core,
    rank,
    vandermonde_asc,
    vandermonde_desc,
    vandermonde_product,
)
from evalmat.poly import HomogeneousPoly, UnivariatePoly, sum_power_poly
from evalmat.scalar import RATIONAL, PrimeField, binomial

from oracles import echelon_mod_p, leibniz_det

F101 = PrimeField(101)


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rand_fracs(rng, count, lo=-9, hi=9, den=4):
    return [Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, den)) for _ in range(count)]


def test_evaluation_matrix_examples():
    pts = PointVectors([0, 1, 2], [0, 1, 2])
    a = evaluation_matrix(sum_power_poly(2), pts)
    assert a.entries == tuple(map(tuple, frac_rows([[0, 1, 4], [1, 4, 9], [4, 9, 16]])))

    f = UnivariatePoly([1, 0, 1])
    af = evaluation_matrix(f, pts)
    assert af.entries == tuple(map(tuple, frac_rows([[1, 2, 5], [2, 5, 10], [5, 10, 17]])))

    const = HomogeneousPoly(0, [7])
    ac = evaluation_matrix(const, PointVectors([3, 4], [5, 6]))
    assert all(x == 7 for row in ac.entries for x in row)


def test_vandermonde_builders():
    v = vandermonde_desc([0, 1], 1)
    assert v.entries == tuple(map(tuple, frac_rows([[0, 1], [1, 1]])))
    w = vandermonde_asc([2], 2)
    assert w.entries == (tuple(frac_rows([[1, 2, 4]])[0]),)
    v3 = vandermonde_desc([2, 3, 5], 3)
    assert v3.rows == 3 and v3.cols == 4
    assert v3[1] == (Fraction(27), Fraction(9), Fraction(3), Fraction(1))


def test_factorization_parts():
    p = sum_power_poly(3)
    pts = PointVectors([2, 3, 4], [1, 5, 6])
    v, d, w = factorization_parts(p, pts)
    assert d == DenseMatrix.diagonal([1, 3, 3, 1])
    assert v * d * w.transpose() == evaluation_matrix(p, pts)

    pts1 = PointVectors([2], [3])
    q = HomogeneousPoly(2, [1, 1, 1])
    v, d, w = factorization_parts(q, pts1)
    prod = v * d * w.transpose()
    assert prod.rows == prod.cols == 1
    assert prod[0][0] == q.evaluate(Fraction(2), Fraction(3)) == 19


def test_factorization_reconstruction_random():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randrange(0, 6)
        n = rng.randrange(1, 7)
        p = HomogeneousPoly(k, rand_fracs(rng, k + 1))
        pts = PointVectors(rand_fracs(rng, n), rand_fracs(rng, n))
        v, d, w = factorization_parts(p, pts)
        assert v * d * w.transpose() == evaluation_matrix(p, pts)


def test_bareiss_examples():
    assert bareiss_det(DenseMatrix(frac_rows([[0, 1], [1, 4]]))) == -1
    assert bareiss_det(DenseMatrix.identity(4, RATIONAL)) == 1
    assert bareiss_det(DenseMatrix(frac_rows([[0, 1, 4], [1, 4, 9], [4, 9, 16]]))) == -8


def test_bareiss_not_square():
    with pytest.raises(ValueError):
        bareiss_det(DenseMatrix(frac_rows([[1, 2, 3], [4, 5, 6]])))


def test_bareiss_vs_leibniz_random_rational():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randrange(1, 6)
        rows = [rand_fracs(rng, n) for _ in range(n)]
        assert bareiss_det(DenseMatrix(rows)) == leibniz_det(rows)


def test_bareiss_vs_leibniz_random_fp():
    rng = random.Random(9)
    for _ in range(80):
        n = rng.randrange(1, 6)
        rows = [[F101.from_int(rng.randrange(101)) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(DenseMatrix(rows, F101)) == leibniz_det(rows)


def test_bareiss_singular_and_pivoting():
    # zero first column forces a swap; duplicate rows force zero
    m = DenseMatrix(frac_rows([[0, 1, 2, 4], [0, 1, 2, 4], [1, 0, 0, 1], [2, 5, 1, 0]]))
    assert bareiss_det(m) == 0
    m2 = DenseMatrix(frac_rows([[0, 0, 1, 3], [1, 2, 0, 1], [0, 1, 1, 1], [2, 0, 0, 5]]))
    assert bareiss_det(m2) == leibniz_det([list(r) for r in m2.entries])


def test_textbook_vandermonde_determinant():
    rng = random.Random(13)
    for n in range(1, 7):
        xs = []
        while len(xs) < n:
            x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 4))
            if x not in xs:
                xs.append(x)
        asc = vandermonde_asc(xs, n - 1)
        assert bareiss_det(asc) == vandermonde_product(xs)


def test_column_reversal_sign():
    # reversing k+1 columns costs C(k+1, 2) adjacent transpositions
    rng = random.Random(17)
    for k in range(0, 6):
        n = k + 1
        xs = rand_fracs(rng, n, lo=-30, hi=30, den=3)
        desc = vandermonde_desc(xs, k)
        asc = vandermonde_asc(xs, k)
        sign = -1 if binomial(k + 1, 2) % 2 else 1
        assert bareiss_det(desc) == sign * bareiss_det(asc)


def test_rank_examples():
    zero3 = DenseMatrix(frac_rows([[0, 0, 0]] * 3))
    assert rank(zero3) == 0

    p = HomogeneousPoly(3, [0, 1, 0, 0])  # x^2 y: outer product of a^2 and b
    a = evaluation_matrix(p, PointVectors([1, 2, 3], [4, 5, 6]))
    assert rank(a) == 1

    a2 = evaluation_matrix(sum_power_poly(2), PointVectors([0, 1, 2, 3], [0, 1, 2, 3]))
    assert rank(a2) == 3


def test_rank_bounded_by_degree():
    rng = random.Random(19)
    for _ in range(40):
        k = rng.randrange(0, 5)
        n = k + 2 + rng.randrange(0, 2)
        p = HomogeneousPoly(k, rand_fracs(rng, k + 1))
        pts = PointVectors(rand_fracs(rng, n), rand_fracs(rng, n))
        assert rank(evaluation_matrix(p, pts)) <= k + 1


def test_rank_fp():
    rows = [[F101.from_int(v) for v in r] for r in ([1, 2, 3], [2, 4, 6], [0, 0, 5])]
    assert rank(DenseMatrix(rows, F101)) == 2


@pytest.mark.parametrize("p", [2, 3, 101, 2**61 - 1])
def test_rank_fp_matches_the_oracle(p):
    """rank over F_p at 1 to 8 rows, square, wider and taller, on drawn
    rows, with a repeated row and of rank at most one, equals the rank by
    the oracle's elimination entry by entry: at these sizes only rank
    reaches the kernel's elimination mod p."""
    field = PrimeField(p)
    rng = random.Random(37 + p % 1000)
    for n in range(1, 9):
        for cols in (n, n + 2, max(1, n - 2)):
            drawn = [[rng.randrange(p) for _ in range(cols)] for _ in range(n)]
            rank_one = [[x * c % p for x in drawn[0]] for c in range(n)]
            for rows in (drawn, drawn[:-1] + drawn[:1], rank_one):
                m = DenseMatrix([[field.from_int(v) for v in row] for row in rows], field)
                assert rank(m) == echelon_mod_p(rows, p)[0], (n, cols)


def test_minor_det_examples():
    v = vandermonde_desc([0, 1], 2)
    assert minor_det(v, {0, 2}) == -1
    w = vandermonde_asc([0, 1], 2)
    assert minor_det(w, {1, 2}) == 0
    m = DenseMatrix(frac_rows([[0, 1, 4], [1, 4, 9], [4, 9, 16]]))
    assert minor_det(m, {0, 1, 2}) == bareiss_det(m)
    with pytest.raises(ValueError):
        minor_det(m, {0, 1})


def test_pascal_core():
    grid = pascal_core(UnivariatePoly([0, 0, 1]), 3)
    assert grid.entries == tuple(map(tuple, frac_rows([[0, 0, 1], [0, 2, 0], [1, 0, 0]])))
    assert pascal_core(UnivariatePoly([1]), 2).entries == tuple(
        map(tuple, frac_rows([[1, 0], [0, 0]]))
    )
    assert pascal_core(UnivariatePoly([0, 1]), 2).entries == tuple(
        map(tuple, frac_rows([[0, 1], [1, 0]]))
    )


def test_pascal_core_reconstructs_f_of_sum():
    # f(a+b) = sum_ij c_ij a^i b^j once the grid covers deg f
    rng = random.Random(29)
    for _ in range(30):
        deg = rng.randrange(0, 5)
        f = UnivariatePoly(rand_fracs(rng, deg + 1))
        n = deg + 1 + rng.randrange(0, 2)
        grid = pascal_core(f, n)
        a = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        b = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                total += grid[i][j] * a**i * b**j
        assert total == f.evaluate(a + b)


def test_matmul_shape_check():
    m = DenseMatrix(frac_rows([[1, 2], [3, 4]]))
    v = DenseMatrix(frac_rows([[1], [1]]))
    assert (m * v).entries == ((Fraction(3),), (Fraction(7),))
    with pytest.raises(ValueError):
        v * m * v


def test_point_vectors_validation():
    with pytest.raises(ValueError):
        PointVectors([1, 2], [1])
    pts = PointVectors([1, 2], [3, 4], F101)
    assert pts.n == 2 and pts.domain == F101


def test_matrix_json_roundtrip():
    m = DenseMatrix(frac_rows([[1, 2], [3, 4]]))
    obj = matrix_to_json(m)
    assert obj == {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3", "4"]]}
    assert matrix_from_json(obj, RATIONAL) == m
    bad = {"rows": 3, "cols": 2, "entries": [["1", "2"]]}
    with pytest.raises(ValueError):
        matrix_from_json(bad, RATIONAL)


# ------------------------------------------- lifting edges (property tests)
# Mixed denominators, negative and zero points, zero coefficients anywhere,
# and collision-heavy points in F_2 and F_3.
LIFT_DOMAINS = [RATIONAL, RATIONAL, PrimeField(2), PrimeField(3), F101]


def lift_scalars(dom):
    if dom == RATIONAL:
        fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
        return st.one_of(st.just(Fraction(0)), fractions)
    return st.integers(0, dom.p - 1).map(dom.from_int)


@st.composite
def lift_instances(draw):
    dom = draw(st.sampled_from(LIFT_DOMAINS))
    k = draw(st.integers(0, 5))
    n = draw(st.integers(1, 5))

    def vec(size):
        return draw(st.lists(lift_scalars(dom), min_size=size, max_size=size))

    return dom, k, vec(k + 1), vec(n), vec(n), draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(lift_instances())
def test_evaluation_matrix_entries_match_evaluate(inst):
    dom, k, coeffs, a, b, zeros = inst
    pts = PointVectors(a, b, dom)
    p = HomogeneousPoly(k, coeffs, dom)
    m = evaluation_matrix(p, pts)
    assert m.entries == tuple(tuple(p.evaluate(x, y) for y in pts.b) for x in pts.a)
    f = UnivariatePoly(coeffs + [dom.zero] * zeros, dom)  # trailing zeros are kept
    mf = evaluation_matrix(f, pts)
    assert mf.entries == tuple(tuple(f.evaluate(x + y) for y in pts.b) for x in pts.a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LIFT_DOMAINS), st.integers(0, 5), st.data())
def test_bareiss_matches_leibniz_all_domains(dom, n, data):
    rows = [data.draw(st.lists(lift_scalars(dom), min_size=n, max_size=n)) for _ in range(n)]
    expected = leibniz_det(rows) if n else dom.one
    assert bareiss_det(DenseMatrix(rows, dom)) == expected


def test_dense_matrix_rejects_unequal_rows():
    with pytest.raises(ValueError, match="rows have unequal lengths"):
        DenseMatrix([[1, 2], [3]])


def test_pascal_core_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid dimension must be >= 1"):
        pascal_core(UnivariatePoly([1, 2]), 0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RATIONAL, PrimeField(7), F101]), st.data())
def test_equal_objects_hash_alike(domain, data):
    """DenseMatrix, HomogeneousPoly and UnivariatePoly built from the same
    values written another way (an int or an unreduced Fraction over Q, an
    element of x + 2p over F_p) are equal and hash alike, and so are two
    objects whose values, drawn from a small pool, happen to be equal."""
    if domain == RATIONAL:
        scalar = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    else:
        scalar = st.integers(-2, 2)

    def again(x):
        if domain != RATIONAL:
            return domain.from_int(x + 2 * domain.p)
        return int(x) if x.denominator == 1 else Fraction(5 * x.numerator, 5 * x.denominator)

    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    size = rows * cols
    values = data.draw(st.lists(scalar, min_size=size, max_size=size))
    others = data.draw(st.lists(scalar, min_size=size, max_size=size))
    builders = (
        lambda v: DenseMatrix([v[r * cols : (r + 1) * cols] for r in range(rows)], domain),
        lambda v: HomogeneousPoly(size - 1, v, domain),
        lambda v: UnivariatePoly(v, domain),
    )
    for build in builders:
        x, y, z = build(values), build([again(v) for v in values]), build(others)
        assert x == y and hash(x) == hash(y)
        if x == z:
            assert hash(x) == hash(z)
