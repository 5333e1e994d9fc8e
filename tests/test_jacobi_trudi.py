"""The Jacobi-Trudi determinant on the l(lam) rows of its nonzero parts.

det [H_{lam_i + j - i}] over all n rows equals the determinant of its
top-left l(lam) x l(lam) block, because the rows past the last nonzero part
are unitriangular. These tests keep the full n x n construction as the
reference, check that the H tables are read no deeper than lam_1 + l(lam) - 1,
and hold the H route equal to DIRECT where its block is empty (n = k+1) or
up to n rows (n = k).
"""

import itertools
import random
from fractions import Fraction

import pytest

from evalmat import kernel
from evalmat.det import (
    DIRECT,
    H_ROUTE,
    _jacobi_trudi,
    det_cauchy_binet,
    oracle_det,
    schur_minor,
)
from evalmat.matrix import PointVectors
from evalmat.poly import HomogeneousPoly
from evalmat.scalar import PrimeField

from oracles import det_mod_p, h_brute, leibniz_det

P31 = 2**31 - 1


def full_jacobi_trudi(exps, hs, mod):
    """The n x n matrix [H_{e_i - n + 1 + j}], eliminated whole: by
    kernel.det over Z, and by the oracle's elimination entry by entry mod p."""
    n = len(exps)
    rows = [[hs[d] if d >= 0 else 0 for d in range(e - n + 1, e + 1)] for e in exps]
    return kernel.det(rows) if mod is None else det_mod_p(rows, mod)


def exponents_of_length(rng, n, length, top=4):
    """Strictly decreasing exponents whose partition lam_i = e_i - (n-1-i)
    has exactly `length` nonzero parts, each at most `top`."""
    parts = sorted((rng.randint(1, top) for _ in range(length)), reverse=True)
    lam = parts + [0] * (n - length)
    return [lam[i] + n - 1 - i for i in range(n)]


def lengths(n):
    return sorted({x for x in (0, 1, kernel.BAREISS_MAX_N, kernel.BAREISS_MAX_N + 1, n) if x <= n})


@pytest.fixture
def h_depths(monkeypatch):
    """The depth m of every kernel.h_table call, in order."""
    depths = []
    real = kernel.h_table

    def recording(xs, m, mod=None):
        depths.append(m)
        return real(xs, m, mod)

    monkeypatch.setattr(kernel, "h_table", recording)
    return depths


@pytest.mark.parametrize("mod", [None, P31])
@pytest.mark.parametrize("n", [1, 2, 5, 15, 16, 17, 24])
def test_truncated_jacobi_trudi_equals_full_matrix(mod, n):
    # l(lam) at 0, 1, either side of BAREISS_MAX_N and n, so the block meets
    # kernel.det's cofactors, its Bareiss over Z and, over F_p, its packed
    # elimination, each held to the whole matrix
    rng = random.Random(500 + n + (mod or 0) % 97)
    for length in lengths(n):
        for _ in range(3):
            exps = exponents_of_length(rng, n, length)
            if mod is None:
                xs = [rng.randint(-4, 4) for _ in range(n)]
            else:
                xs = [rng.randrange(mod) for _ in range(n)]
            hs = kernel.h_table(xs, exps[0], mod)
            expected = full_jacobi_trudi(exps, hs, mod)
            # the block reads H no deeper than lam_1 + l(lam) - 1
            depth = exps[0] - n + length if length else 0
            pad = [0] * (n - 1) + hs[: depth + 1]
            assert _jacobi_trudi(exps, pad, mod) == expected


def brute_schur(xs, exps):
    """det [h_{lam_i + j - i}(xs)] by h_brute's monomial enumeration and Leibniz."""
    n = len(exps)
    lam = [e - (n - 1 - i) for i, e in enumerate(exps)]
    h = {}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            m = lam[i] + j - i
            if m not in h:
                h[m] = h_brute(m, xs)
            row.append(h[m])
        rows.append(row)
    return leibniz_det(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_schur_minor_matches_brute_force(n):
    rng = random.Random(600 + n)
    for exps in itertools.combinations(range(n + 2, -1, -1), n):
        xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        assert schur_minor(xs, exps) == brute_schur(xs, list(exps))


def test_schur_minor_reads_h_to_lam1_plus_length_minus_one(h_depths):
    xs = [Fraction(v) for v in (2, -3, 5, 7)]
    cases = {
        (3, 2, 1, 0): 0,  # lam empty
        (4, 2, 1, 0): 1,  # lam = (1)
        (6, 2, 1, 0): 3,  # lam = (3)
        (4, 3, 2, 0): 3,  # lam = (1, 1, 1)
        (7, 5, 2, 1): 7,  # lam = (4, 3, 1, 1)
    }
    for exps, depth in cases.items():
        schur_minor(xs, exps)
        assert h_depths[-1] == depth


@pytest.mark.parametrize("field", [PrimeField(P31), PrimeField(101)])
@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("extra", [0, 1])
def test_h_route_equals_direct_at_n_k_and_k_plus_1(field, n, extra, h_depths):
    # n = k+1 (extra 0): one subset, lam empty, H tables of depth 0;
    # n = k (extra 1): k+1 subsets whose blocks run up to n rows
    k = n - 1 + extra
    rng = random.Random(700 + n + extra)
    a = rng.sample(range(1, field.p), n)
    b = rng.sample(range(1, field.p), n)
    coeffs = [rng.randrange(1, field.p) for _ in range(k + 1)]
    p = HomogeneousPoly(k, coeffs, field)
    pts = PointVectors(a, b, field)
    h = det_cauchy_binet(p, pts, H_ROUTE)
    assert h_depths == [k if n <= k else 0] * 2
    direct = det_cauchy_binet(p, pts, DIRECT)
    assert h.subset_terms == direct.subset_terms
    assert h.value == direct.value == oracle_det(p, pts).value
    assert h.value != 0
