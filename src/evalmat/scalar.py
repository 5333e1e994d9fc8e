"""Exact scalars over two coefficient domains.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator, ``str()`` gives the wire format "num/den" or "num"). Prime-field
elements are ``FpElement`` instances holding a value in [0, p) plus a
reference to their shared ``PrimeField`` context. Mixing domains raises
``DomainMismatchError``; plain ``int`` operands are coerced into either
domain.
"""

from __future__ import annotations

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


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n."""
    return math.comb(n, k)


# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24
# (covers the full modulus range p < 2^62).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 2^62."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


class FpElement:
    """An element of F_p. Immutable; arithmetic stays inside one field."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: "PrimeField"):
        object.__setattr__(self, "value", value % field.p)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, val):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, other) -> "FpElement | None":
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise DomainMismatchError(
                    f"mixed moduli: F_{self.field.p} and F_{other.field.p}"
                )
            return other
        if isinstance(other, int):
            return FpElement(other, self.field)
        if isinstance(other, Fraction):
            raise DomainMismatchError("cannot mix rational and F_p scalars")
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value + other.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value - other.value, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(other.value - self.value, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
            return self.value == other % self.field.p
        if isinstance(other, FpElement):
            return self.field.p == other.field.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value} mod {self.field.p})"


class PrimeField:
    """Shared context for F_p scalars; prime modulus p < 2^62."""

    __slots__ = ("p", "modulus")

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must be an integer in [2, 2^62): {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "modulus", p)

    def __setattr__(self, name, val):
        raise AttributeError("PrimeField is immutable")

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


def normalize_scalars(values: Iterable, domain: ScalarDomain | None = None):
    """Coerce a sequence into one domain.

    ints become Fraction (or field elements when a PrimeField is given or
    inferred); mixing Fraction with FpElement, or two different moduli,
    raises DomainMismatchError. Returns (domain, tuple). Empty input yields
    the given domain or RATIONAL.
    """
    vals = list(values)
    if domain is None:
        for v in vals:
            if isinstance(v, FpElement):
                domain = v.field
                break
            if isinstance(v, Fraction):
                domain = RATIONAL
                break
        else:
            domain = RATIONAL
    out = []
    for v in vals:
        if isinstance(v, int):
            out.append(domain.from_int(v))
        elif isinstance(v, Fraction):
            if not isinstance(domain, RationalDomain):
                raise DomainMismatchError("cannot mix rational and F_p scalars")
            out.append(v)
        elif isinstance(v, FpElement):
            if not isinstance(domain, PrimeField) or v.field.p != domain.p:
                raise DomainMismatchError(
                    f"scalar from {v.field.name} does not belong to {domain.name}"
                )
            out.append(v)
        else:
            raise TypeError(f"not a scalar: {v!r}")
    return domain, tuple(out)


# CPython refuses int <-> str conversions past 4300 decimal digits by
# default (640 at the lowest setting). Longer numbers are converted in pieces
# split at a power of ten, which leaves that process-wide guard on.
_SPLIT_DIGITS = 600
_LONG_DECIMAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


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
    use any literal that Fraction (Q) or int (F_p) accepts."""
    m = _LONG_DECIMAL.fullmatch(s) if len(s) > _SPLIT_DIGITS else None
    if m is None or (m[3] is not None and domain.modulus is not None):
        return Fraction(s) if domain.modulus is None else FpElement(int(s), domain)
    num = _digits_int(m[2])
    return domain.ratio(-num if m[1] == "-" else num, _digits_int(m[3] or "1"))
