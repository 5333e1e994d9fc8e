"""The reduction law across every engine.

Reduction mod a prime q is a ring map from the rationals whose
denominators q does not divide onto F_q, and a determinant is a polynomial
in its entries. So for a Q instance whose denominators and nonzero
coefficient numerators q does not divide, every engine's Q value mod q
equals that engine's value over F_q on the reduced instance. Keeping every
nonzero coefficient nonzero mod q keeps the support, the degree of a sum
form and with them the engines and the Cauchy-Binet subsets, so DIRECT's
and H_ROUTE's terms are compared one by one too.

The law holds at every n and in every regime, and the two sides run
different code: over Q per-point denominators, Bareiss and (from
kernel.MULTIMODULAR_MIN_SIZE on) CRT over Z; over F_q the packed builders
from kernel.PACK_MIN rows on and the packed elimination mod q past
kernel.BAREISS_MAX_N rows, with q of 62 bits or small enough that reduced
points collide. Each instance runs the engines of det.engines and
the oracle, as verify does.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from evalmat.det import DIRECT, H_ROUTE, ORACLE, engines, run_engine
from evalmat.matrix import PointVectors
from evalmat.poly import HomogeneousPoly, UnivariatePoly
from evalmat.scalar import PrimeField, is_prime

# the least prime of 62 bits: far below kernel.PRIMES, the CRT primes
# descending from 2^62, so that no CRT modulus is a multiple of q
Q62 = 2**61 + 15


def test_q62_is_the_least_62_bit_prime():
    assert is_prime(Q62) and not any(is_prime(x) for x in range(2**61 + 1, Q62, 2))


def _rational(rng, q, bits, nonzero=False):
    """num/den with |num| < 2^bits and den in 1..9, den and (for nonzero)
    num moved off multiples of q."""
    num, den = rng.randrange(1 - 2**bits, 2**bits), rng.randrange(1, 10)
    if nonzero and num % q == 0:
        num += 1
    return Fraction(num, den + (den % q == 0))


def _reduced(x, field):
    return field.ratio(x.numerator, x.denominator)


# (kind, n, k or deg f, bits of the points' numerators or None to draw
# them, share of zero coefficients): cofactor, Bareiss and packed sizes over
# F_q, the minors pass and per-subset minors of the H route, CRT over Z at
# n = 24, the vanishing regime, and sum forms by closed form, by the Pascal
# grid and under it. A zero coefficient makes the n = k+1 determinant 0, so
# the larger of those shapes have none
SHAPES = [
    ("homogeneous", 1, 0, None, 1 / 3),
    ("homogeneous", 4, 3, None, 1 / 3),
    ("homogeneous", 9, 8, None, 0),
    ("homogeneous", 17, 16, None, 0),
    ("homogeneous", 24, 23, 20, 0),
    ("homogeneous", 3, 5, None, 1 / 3),
    ("homogeneous", 5, 9, None, 1 / 3),
    ("homogeneous", 6, 7, None, 1 / 3),
    ("homogeneous", 6, 3, None, 1 / 3),
    ("sum form", 5, 4, None, 1 / 3),
    ("sum form", 18, 17, None, 1 / 3),
    ("sum form", 7, 11, None, 1 / 3),
]


def _instance(rng, q, kind, n, k, bits, zero_share):
    """A Q instance (poly, points) of the shape; a sum form keeps its
    leading coefficient."""
    bits = bits or rng.choice([3, 10, 20])
    zeros = {i for i in range(k + (kind != "sum form")) if rng.random() < zero_share}
    coeffs = [0 if i in zeros else _rational(rng, q, 12, nonzero=True) for i in range(k + 1)]
    a = [_rational(rng, q, bits) for _ in range(n)]
    b = [_rational(rng, q, bits) for _ in range(n)]
    poly = UnivariatePoly(coeffs) if kind == "sum form" else HomogeneousPoly(k, coeffs)
    return poly, PointVectors(a, b)


def _over(field, poly, pts):
    """The same instance with every scalar reduced into field."""
    coeffs = [_reduced(c, field) for c in poly.coeffs]
    if isinstance(poly, UnivariatePoly):
        poly = UnivariatePoly(coeffs, field)
    else:
        poly = HomogeneousPoly(poly.degree, coeffs, field)
    return poly, PointVectors([_reduced(x, field) for x in pts.a], [_reduced(x, field) for x in pts.b], field)


@pytest.mark.parametrize("q", [3, Q62])
@pytest.mark.parametrize("kind,n,k,bits,zero_share", SHAPES)
@seed(31)
@settings(max_examples=4, deadline=None)
@given(draw=st.integers(0, 2**32 - 1))
def test_every_engine_commutes_with_reduction_mod_q(q, kind, n, k, bits, zero_share, draw):
    field = PrimeField(q)
    poly, pts = _instance(random.Random(draw), q, kind, n, k, bits, zero_share)
    poly_q, pts_q = _over(field, poly, pts)
    names = [e for e in engines(poly, pts.n) if e != ORACLE] + [ORACLE]
    assert engines(poly_q, pts.n) == engines(poly, pts.n)
    for name in names:
        over_q, mod_q = run_engine(name, poly, pts), run_engine(name, poly_q, pts_q)
        assert _reduced(over_q.value, field) == mod_q.value, name
        if name in (DIRECT, H_ROUTE):
            terms = [(s, _reduced(Fraction(x, over_q.term_den), field)) for s, x in over_q.term_nums]
            assert terms == [(s, field.ratio(x, mod_q.term_den)) for s, x in mod_q.term_nums], name
