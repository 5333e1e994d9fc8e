import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evalmat import scalar
from evalmat.matrix import DenseMatrix, PointVectors, evaluation_matrix
from evalmat.poly import HomogeneousPoly, UnivariatePoly
from evalmat.scalar import (
    _SPLIT_DIGITS,
    RATIONAL,
    DomainMismatchError,
    FpElement,
    PrimeField,
    binomial,
    domain_of,
    format_scalar,
    is_prime,
    normalize_scalars,
    parse_domain,
    parse_scalar,
)

F7 = PrimeField(7)
F101 = PrimeField(101)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_fraction_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_fraction_canonical_form():
    r = Fraction(2, 4)
    assert (r.numerator, r.denominator) == (1, 2)
    assert Fraction(r.numerator, r.denominator) == r
    assert Fraction(3, -6) == Fraction(-1, 2)
    assert Fraction(-1, 2).denominator > 0


def test_fp_inverse_example():
    assert F7.from_int(3).inverse() == F7.from_int(5)
    assert F7.from_int(3) * F7.from_int(5) == F7.one


def test_fp_inverse_exhaustive_small_fields():
    for p in SMALL_PRIMES:
        field = PrimeField(p)
        for x in range(1, p):
            e = field.from_int(x)
            assert e.inverse() * e == field.one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F7.one / F7.zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        F7.one + PrimeField(11).one
    with pytest.raises(DomainMismatchError):
        F7.one + Fraction(1, 2)
    with pytest.raises(DomainMismatchError):
        Fraction(1, 2) * F7.one


def test_int_coercion():
    assert F7.from_int(3) + 5 == F7.from_int(1)
    assert 2 * F7.from_int(4) == F7.from_int(1)
    assert F7.from_int(5) - 6 == F7.from_int(6)
    assert 1 / F7.from_int(3) == F7.from_int(5)
    assert F7.from_int(2) ** 5 == F7.from_int(4)
    assert F7.from_int(2) ** -1 == F7.from_int(4)


def test_binomial_examples():
    assert binomial(3, 1) == 3
    assert binomial(4, 2) == 6
    assert binomial(2, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_pascal_rule():
    for k in range(1, 31):
        assert binomial(k, 0) == 1
        for i in range(1, k + 1):
            assert binomial(k, i) == binomial(k - 1, i - 1) + binomial(k - 1, i)


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


fp_elems = st.integers(min_value=0, max_value=100).map(F101.from_int)


@given(fp_elems, fp_elems, fp_elems)
def test_fp_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F101.zero
    if a != F101.zero:
        assert a * a.inverse() == F101.one


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert is_prime(2147483647)
    assert is_prime((1 << 61) - 1)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2147483647 * 3)


def _is_prime_12_bases(n):
    """Miller-Rabin to the first twelve prime bases, the rule is_prime used
    before its seven-base set: deterministic below 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_agrees_with_twelve_bases_below_200000():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if _is_prime_12_bases(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 passes bases 2, 3, 5, 7; 3825123056546413051 passes every
    # prime base up to 23 and is below 2^62
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n) and not _is_prime_12_bases(n)
    near = range(2**62 - 3001, 2**62, 2)
    assert [n for n in near if is_prime(n)] == [n for n in near if _is_prime_12_bases(n)]
    # a base that is 0 mod n is skipped: 73 and 193 divide 28178, 407521
    # divides 9780504 and 299210837 divides 1795265022; 14089 = 73 * 193
    for n in (73, 193, 407521, 299210837):
        assert is_prime(n)
    assert not is_prime(14089) and not is_prime(73 * 407521)


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(1 << 62)  # above the modulus cap even if prime-shaped


def test_prime_field_proves_each_modulus_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(scalar, "is_prime", counted)
    scalar._proven_prime.cache_clear()
    p = 2147483647
    assert PrimeField(p) == PrimeField(p) and calls == [p]
    for _ in range(2):
        with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
            PrimeField(4)
    assert calls == [p, 4]
    with pytest.raises(ValueError, match=r"^modulus must be an integer in \[2, 2\^62\)"):
        PrimeField(1 << 62)
    assert parse_domain(f"fp:{p}") == PrimeField(p) and calls == [p, 4]
    # the CRT prime search and every direct caller still run the full test
    assert is_prime(p) and is_prime(p) and calls == [p, 4]


def test_serialization():
    assert format_scalar(Fraction(5, 6)) == "5/6"
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert parse_scalar("5/6", RATIONAL) == Fraction(5, 6)
    assert parse_scalar("-7", RATIONAL) == Fraction(-7)
    assert format_scalar(F7.from_int(12)) == "5"
    assert parse_scalar("12", F7) == F7.from_int(5)


@pytest.mark.parametrize(
    "text", ["0", "-0", "007", "+5", " 5", "1_000", "\u0663", "3/4", "1e3", "", "-", "5/0"]
)
def test_parse_scalar_over_q_is_fraction_of_the_literal(text):
    # plain ASCII integers take Fraction(int(s)); every literal keeps the
    # value or the error text of Fraction(s), a zero denominator as the cause
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        with pytest.raises(ValueError) as info:
            parse_scalar(text, RATIONAL)
        got = info.value.__cause__ if isinstance(e, ZeroDivisionError) else info.value
        assert (type(got), str(got)) == (type(e), str(e))
    else:
        got = parse_scalar(text, RATIONAL)
        assert type(got) is Fraction and got == want


@given(
    st.integers(_SPLIT_DIGITS - 3, _SPLIT_DIGITS + 2).flatmap(
        lambda d: st.integers(10 ** (d - 1), 10**d - 1)
    ),
    st.booleans(),
)
def test_parse_scalar_integers_around_split_digits(n, negative):
    # both sides of the split path's length threshold, sign included
    n = -n if negative else n
    assert parse_scalar(str(n), RATIONAL) == Fraction(n)
    assert parse_scalar(str(n), F101) == F101.from_int(n)


def test_long_negative_fraction_round_trip():
    # past 1,800 bits format_scalar splits a number's digits at a power of
    # ten, and a negative numerator gives its sign first; numerator and
    # denominator each pass 4,300 digits
    x = Fraction(-(3**10000) - 1, 7**6000)
    num, den = format_scalar(x).split("/")
    assert num.startswith("-") and len(num) == 1 + 4772 and len(den) == 5071
    assert parse_scalar(f"{num}/{den}", RATIONAL) == x


def test_parse_domain():
    assert parse_domain("rational") == RATIONAL
    assert parse_domain("fp:101") == F101
    with pytest.raises(ValueError):
        parse_domain("fp:100")
    with pytest.raises(ValueError):
        parse_domain("float")


def test_normalize_scalars():
    dom, vals = normalize_scalars([1, Fraction(1, 2)])
    assert dom == RATIONAL and vals == (Fraction(1), Fraction(1, 2))
    dom, vals = normalize_scalars([F7.from_int(3), 9])
    assert dom == F7 and vals == (F7.from_int(3), F7.from_int(2))
    with pytest.raises(DomainMismatchError):
        normalize_scalars([F7.one, F101.one])
    assert domain_of(F7.one) == F7
    assert domain_of(Fraction(1)) == RATIONAL


def test_fp_immutability_and_hash():
    e = F7.from_int(3)
    with pytest.raises(AttributeError):
        e.value = 5
    assert hash(F7.from_int(3)) == hash(F7.from_int(10))
    assert len({F7.from_int(i) for i in (1, 8, 2)}) == 2


# ints and elements of two fields, with values that collide across them
mixed_scalars = st.one_of(
    st.integers(-20, 120),
    st.integers(0, 6).map(F7.from_int),
    st.integers(0, 100).map(F101.from_int),
)


@given(mixed_scalars, mixed_scalars)
def test_fp_equal_objects_hash_alike(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_fp_element_and_int_in_sets():
    assert 3 in {F7.from_int(3)} and F7.from_int(3) in {3}
    assert F7.from_int(3) == 3 and F7.from_int(3) != 10
    assert len({F7.from_int(3), F101.from_int(3)}) == 2


def test_fp_equality_across_fields():
    # an int equals the element with that residue in [0, p); fields never mix
    assert F7.from_int(3) != 10
    assert 3 == F7.from_int(3) and 3 == F101.from_int(3)
    assert F7.from_int(3) != F101.from_int(3)
    assert len({3, F7.from_int(3), F101.from_int(3)}) == 1
    assert len({F7.from_int(3), F101.from_int(3), 3}) == 2


@pytest.mark.parametrize(
    "value",
    [
        F7.one,
        F7,
        DenseMatrix([[1, 2]]),
        PointVectors([1], [2]),
        HomogeneousPoly(1, [1, 2]),
        UnivariatePoly([1, 2]),
    ],
    ids=lambda v: type(v).__name__,
)
def test_value_types_are_immutable(value):
    cls = type(value)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, cls.__slots__[0], None)


@pytest.mark.parametrize(
    "text",
    ["1/0", "-3/0", "0/0", "7" * 700 + "/0", "7" * 5000 + "/0"],
    ids=["1/0", "-3/0", "0/0", "long", "past-limit"],
)
def test_parse_scalar_zero_denominator_is_value_error(text):
    # Fraction raises ZeroDivisionError; the CLI reports ValueErrors per field
    with pytest.raises(ValueError, match="zero denominator in"):
        parse_scalar(text, RATIONAL)


def _via_evaluation_matrix(dom, x):
    # the constant polynomial x over its own domain (an int's is dom), on
    # points over dom: the domains meet in evaluation_matrix
    p = HomogeneousPoly(0, [x], dom if isinstance(x, int) else None)
    return evaluation_matrix(p, PointVectors([1], [1], dom)).entries[0][0]


def _operator(op):
    return lambda dom, x: op(dom.from_int(5), x)


# every way a value enters a scalar domain; FpElement's operators are entered
# with an F_p domain only (Fraction arithmetic is Python's)
DOMAIN_ENTRIES = {
    "y + x": _operator(lambda y, x: y + x),
    "x + y": _operator(lambda y, x: x + y),
    "y - x": _operator(lambda y, x: y - x),
    "x - y": _operator(lambda y, x: x - y),
    "y * x": _operator(lambda y, x: y * x),
    "x * y": _operator(lambda y, x: x * y),
    "y / x": _operator(lambda y, x: y / x),
    "x / y": _operator(lambda y, x: x / y),
    "normalize_scalars(domain)": lambda dom, x: normalize_scalars([x], dom)[1][0],
    "normalize_scalars": lambda dom, x: normalize_scalars([dom.one, x])[1][1],
    "PointVectors": lambda dom, x: PointVectors([dom.one], [x]).b[0],
    "evaluation_matrix": _via_evaluation_matrix,
}

# (domain, value, what it enters as: a scalar, a "cannot mix" pair, or TypeError)
DOMAIN_CASES = {
    "int into F_7": (F7, 10, F7.from_int(3)),
    "int into Q": (RATIONAL, 10, Fraction(10)),
    "second PrimeField(7)": (F7, PrimeField(7).from_int(3), F7.from_int(3)),
    "Fraction into F_7": (F7, Fraction(1, 2), ("rational", "fp:7")),
    "F_7 into Q": (RATIONAL, F7.from_int(3), ("fp:7", "rational")),
    "F_7 into F_101": (F101, F7.from_int(3), ("fp:7", "fp:101")),
    "float into F_7": (F7, 1.5, TypeError),
    "float into Q": (RATIONAL, 1.5, TypeError),
    "str into F_7": (F7, "3", TypeError),
    "str into Q": (RATIONAL, "3", TypeError),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry in DOMAIN_ENTRIES
        for case, (dom, _, _) in DOMAIN_CASES.items()
        if dom != RATIONAL or entry[0] not in "xy"
    ],
)
def test_one_scalar_domain_rule(entry, case):
    enter = DOMAIN_ENTRIES[entry]
    dom, x, outcome = DOMAIN_CASES[case]
    if outcome is TypeError:
        with pytest.raises(TypeError) as info:
            enter(dom, x)
        assert not isinstance(info.value, DomainMismatchError)
    elif isinstance(outcome, tuple):
        a, b = outcome
        # an operator names its own field last, whichever side it is on
        with pytest.raises(DomainMismatchError, match=f"^cannot mix ({a} and {b}|{b} and {a})$"):
            enter(dom, x)
    else:
        got = enter(dom, x)
        assert got == enter(dom, outcome) and domain_of(got) == dom


class _Reflected:
    """A non-scalar whose reflected operators report which one ran."""

    def __radd__(self, left):
        return "__radd__", left

    def __rsub__(self, left):
        return "__rsub__", left

    def __rmul__(self, left):
        return "__rmul__", left

    def __rtruediv__(self, left):
        return "__rtruediv__", left


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_operators_hand_a_non_scalar_to_its_reflected_method(op):
    """FpElement's forward operators return NotImplemented for a non-scalar
    rather than raise, so Python calls the other operand's reflected method."""
    x = FpElement(3, F7)
    assert getattr(operator, op)(x, _Reflected()) == (f"__r{op}__", x)
