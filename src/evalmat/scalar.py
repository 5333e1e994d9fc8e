"""Exact scalars over two coefficient domains.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator, ``str()`` gives the wire format "num/den" or "num"). Prime-field
elements are ``FpElement`` instances holding a value in [0, p) plus a
reference to their shared ``PrimeField`` context. Mixing domains raises
``DomainMismatchError``; plain ``int`` operands are coerced into either
domain.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Union

MAX_MODULUS = 1 << 62

Scalar = Union[Fraction, "FpElement"]


class DomainMismatchError(TypeError):
    """Operands belong to different scalar domains."""


class SizeMismatchError(ValueError):
    """A size-regime precondition (e.g. n = k+1) does not hold."""


class SingularChangeError(ValueError):
    """The linear change of variables is singular (det B = 0)."""


# exact binomial coefficient C(n, k); 0 when k > n
binomial = math.comb


# Trial division by the first twelve primes, then strong probable-prime
# tests to the seven bases below, which no composite n < 2^64 passes
# (Sinclair's set); that covers every modulus p < 2^62. From 2^64 on the
# twelve primes are the bases, as in Miller-Rabin with the first twelve
# primes, which no composite below 3.18e23 passes (Sorenson and Webster).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Primality of n: deterministic for n < 3.18e23, a strong
    probable-prime test to twelve bases above."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_64 if n < 1 << 64 else _SMALL_PRIMES:
        a %= n
        if a == 0:
            continue
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


@functools.lru_cache(maxsize=64)
def _proven_prime(p: int) -> bool:
    """is_prime(p), remembered for the last 64 moduli: the CLI builds its
    PrimeField anew on every call. is_prime itself keeps no memo, so the
    CRT prime search fills none."""
    return is_prime(p)


class Immutable:
    """Base of the value types, whose __init__ sets each slot once."""

    __slots__ = ()

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _in_field(op):
    """The binary operator op(self, other) with other coerced into self's
    field by _coerce, or NotImplemented for an operand that is not a scalar,
    which hands the operation on to Python's reflected-operand fallback."""

    def coerced(self, other):
        other = _coerce(other, self.field)
        return NotImplemented if other is None else op(self, other)

    return coerced


class FpElement(Immutable):
    """An element of F_p. Immutable; arithmetic stays inside one field.

    An int is equal only to the element whose residue in [0, p) it is, which
    keeps the int hash contract, and elements of different fields are never
    equal. So with F7(3) = FpElement(3, PrimeField(7)): F7(3) != 10;
    3 == F7(3) and 3 == F101(3) but F7(3) != F101(3); and a set mixing
    fields and ints depends on insertion order."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: "PrimeField"):
        object.__setattr__(self, "value", value % field.p)
        object.__setattr__(self, "field", field)

    @_in_field
    def __add__(self, other):
        return FpElement(self.value + other.value, self.field)

    __radd__ = __add__

    @_in_field
    def __sub__(self, other):
        return FpElement(self.value - other.value, self.field)

    @_in_field
    def __rsub__(self, other):
        return FpElement(other.value - self.value, self.field)

    @_in_field
    def __mul__(self, other):
        return FpElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    @_in_field
    def __truediv__(self, other):
        return self * other.inverse()

    @_in_field
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FpElement(pow(self.value, exponent, self.field.p), self.field)

    def __neg__(self):
        return FpElement(-self.value, self.field)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.field.p}")
        return FpElement(pow(self.value, -1, self.field.p), self.field)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, FpElement):
            return self.field.p == other.field.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value} mod {self.field.p})"


class PrimeField(Immutable):
    """Shared context for F_p scalars; prime modulus p < 2^62."""

    __slots__ = ("p", "modulus")

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must be an integer in [2, 2^62): {p!r}")
        if not _proven_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "modulus", p)

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self)

    def parts(self, xs) -> tuple[list[int], list[int]]:
        return [x.value for x in xs], [1] * len(xs)

    def lift(self, xs) -> tuple[list[int], int]:
        return [x.value for x in xs], 1

    def ratio(self, num: int, den: int = 1) -> FpElement:
        return FpElement(num if den == 1 else num * pow(den, -1, self.p), self)

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalDomain:
    """The field of arbitrary-precision rationals (scalars are Fraction)."""

    zero = Fraction(0)
    one = Fraction(1)
    name = "rational"
    modulus = None

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parts(self, xs) -> tuple[list[int], list[int]]:
        """Integer images: the numerators and the denominators of xs."""
        return [x.numerator for x in xs], [x.denominator for x in xs]

    def lift(self, xs) -> tuple[list[int], int]:
        """(nums, den) with xs[i] == nums[i] / den over one common den."""
        den = math.lcm(*(x.denominator for x in xs))
        return [x.numerator * (den // x.denominator) for x in xs], den

    def ratio(self, num: int, den: int = 1) -> Fraction:
        """The scalar num / den: the inverse of a lift."""
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalDomain()"


RATIONAL = RationalDomain()

ScalarDomain = Union[RationalDomain, PrimeField]


def parse_domain(text: str) -> ScalarDomain:
    """Parse a domain string: "rational" or "fp:<p>"."""
    if not isinstance(text, str):
        raise TypeError(f"must be a string, got {type(text).__name__}")
    if text == "rational":
        return RATIONAL
    if text.startswith("fp:"):
        return PrimeField(int(text[3:]))
    raise ValueError(f"unknown scalar domain {text!r} (want 'rational' or 'fp:<p>')")


def domain_of(x: Scalar) -> ScalarDomain:
    if isinstance(x, FpElement):
        return x.field
    if isinstance(x, (Fraction, int)):
        return RATIONAL
    raise TypeError(f"not a scalar: {x!r}")


def shared_domain(*objs) -> ScalarDomain:
    """The one scalar domain of objects that each carry a ``domain``, such
    as a polynomial and its points; DomainMismatchError if they differ."""
    dom = objs[0].domain
    for obj in objs[1:]:
        if obj.domain != dom:
            raise DomainMismatchError(f"cannot mix {dom.name} and {obj.domain.name}")
    return dom


def _coerce(x, domain: ScalarDomain):
    """x in domain: an int converted into it, a scalar of domain unchanged, a
    scalar of another domain a DomainMismatchError, anything else None."""
    if isinstance(x, int):
        return domain.from_int(x)
    if not isinstance(x, (FpElement, Fraction)):
        return None
    owner = domain_of(x)
    if owner is not domain and owner != domain:
        raise DomainMismatchError(f"cannot mix {owner.name} and {domain.name}")
    return x


def normalize_scalars(values: Iterable, domain: ScalarDomain | None = None):
    """Coerce a sequence into one domain: the given one, else the domain of
    the first value that is not an int (RATIONAL if there is none).

    ints are converted; a scalar of another domain raises DomainMismatchError
    and a non-scalar TypeError. Returns (domain, tuple).
    """
    vals = list(values)
    if domain is None:
        domain = next((domain_of(v) for v in vals if not isinstance(v, int)), RATIONAL)
    out = []
    for v in vals:
        x = _coerce(v, domain)
        if x is None:
            raise TypeError(f"not a scalar: {v!r}")
        out.append(x)
    return domain, tuple(out)


# CPython refuses int <-> str conversions past 4300 decimal digits by
# default (640 at the lowest setting). Longer numbers are converted in pieces
# split at a power of ten, which leaves that process-wide guard on.
_SPLIT_DIGITS = 600
_LONG_DECIMAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
# a short rational that is a plain ASCII integer: Fraction(int(s)) skips the
# literal scan of Fraction(s), a few times its cost, and gives the same value
_PLAIN_INT = re.compile(r"-?[0-9]+")


def _int_str(n: int) -> str:
    if n.bit_length() < 3 * _SPLIT_DIGITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, since log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _digits_int(digits: str) -> int:
    if len(digits) <= _SPLIT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _digits_int(digits[:-k]) * 10**k + _digits_int(digits[-k:])


def format_scalar(x: Scalar) -> str:
    """The wire format: "num/den" or "num" for Q, the residue for F_p."""
    if isinstance(x, Fraction):
        num = _int_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"
    return str(x)


def parse_scalar(s: str, domain: ScalarDomain) -> Scalar:
    """Inverse of format_scalar for any number of digits; shorter strings may
    use any literal that Fraction (Q) or int (F_p) accepts; others raise ValueError."""
    if domain.modulus is None and len(s) <= _SPLIT_DIGITS and _PLAIN_INT.fullmatch(s):
        return Fraction(int(s))
    m = _LONG_DECIMAL.fullmatch(s) if len(s) > _SPLIT_DIGITS else None
    try:
        if m is None or (m[3] is not None and domain.modulus is not None):
            return Fraction(s) if domain.modulus is None else FpElement(int(s), domain)
        num, den = _digits_int(m[2]), _digits_int(m[3] or "1")
        if den == 0:  # Fraction's own message would print num, past the digit limit
            raise ZeroDivisionError
        return domain.ratio(-num if m[1] == "-" else num, den)
    except ZeroDivisionError as e:
        raise ValueError(f"zero denominator in {s!r}") from e


def parse_scalars(items: list, domain: ScalarDomain, name: str) -> list:
    """parse_scalar over the JSON array named name, whose items are decimal
    strings; any other array or item (a JSON number, whose float would lose
    digits, or a string for the array, which would be read digit by digit)
    is a TypeError."""
    if not isinstance(items, list):
        raise TypeError(f"'{name}' must be a JSON array, got {type(items).__name__}")
    for i, s in enumerate(items):
        if not isinstance(s, str):
            raise TypeError(
                f"'{name}'[{i}]: scalars are decimal strings such as \"3\" or "
                f"\"-2/5\", got {type(s).__name__}"
            )
    return [parse_scalar(s, domain) for s in items]
