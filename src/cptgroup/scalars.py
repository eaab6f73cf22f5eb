"""Exact arithmetic in the field Q(i, sqrt(2)).

Every scalar that occurs in the construction (the unit multipliers of the
discrete-symmetry matrices, the entries of the gamma matrices, and the
1/sqrt(2) factors of the change-of-basis matrices) lies in the degree-4
extension Q(i, sqrt(2)) of the rationals.  An element is stored as four
integer numerators over one positive denominator,

    (a + b*i + c*sqrt(2) + d*i*sqrt(2)) / den,   gcd(a, b, c, d, den) = 1,

as number-field elements usually are (FLINT's `nf_elem`; Cohen, "A Course
in Computational Algebraic Number Theory", 4.2).  The form is canonical,
so equality is bit-exact, and the field operations are integer
arithmetic.  The rational components p + q*i + r*sqrt(2) + s*i*sqrt(2)
are read as `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction, str]


class Scalar:
    """An element (a + b*i + c*sqrt(2) + d*i*sqrt(2)) / den of Q(i, sqrt(2)),
    built from rational components p, q, r, s (ints, Fractions or strings
    such as "1/3").

    Like `Fraction`, a Scalar is immutable by convention: no slot is
    assigned after construction.  Zero and the units +-1, +-i are shared.
    """

    __slots__ = ("a", "b", "c", "d", "den")

    def __new__(cls, p: RationalLike = 0, q: RationalLike = 0,
                r: RationalLike = 0, s: RationalLike = 0) -> "Scalar":
        parts = [_rational(x) for x in (p, q, r, s)]
        den = lcm(*(x.denominator for x in parts))
        return _make(*(x.numerator * (den // x.denominator) for x in parts),
                     den)

    p = property(lambda self: Fraction(self.a, self.den))
    q = property(lambda self: Fraction(self.b, self.den))
    r = property(lambda self: Fraction(self.c, self.den))
    s = property(lambda self: Fraction(self.d, self.den))

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "Scalar | int") -> "Scalar":
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self is ZERO:
            return other
        if other is ZERO:
            return self
        m, n = self.den, other.den
        return _make(self.a * n + other.a * m, self.b * n + other.b * m,
                     self.c * n + other.c * m, self.d * n + other.d * m,
                     m * n)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | int") -> "Scalar":
        return self + -other

    def __rsub__(self, other: "Scalar | int") -> "Scalar":
        return -self + other

    def __neg__(self) -> "Scalar":
        return _make(-self.a, -self.b, -self.c, -self.d, self.den)

    def __mul__(self, other: "Scalar | int") -> "Scalar":
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self is ZERO or other is ZERO:
            return ZERO
        # (a + b i + c R + d iR)(e + f i + g R + h iR), R^2 = 2, i^2 = -1
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return _make(a * e - b * f + 2 * (c * g - d * h),
                     a * f + b * e + 2 * (c * h + d * g),
                     a * g + c * e - b * h - d * f,
                     a * h + d * e + b * g + c * f,
                     self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: "Scalar | int") -> "Scalar":
        return self.inverse() * other

    # -- field structure -----------------------------------------------

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, sqrt(2) fixed."""
        return _make(self.a, -self.b, self.c, -self.d, self.den)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        For the numerator x = a + b i + c R + d iR, x x* = u + v R lies in
        Q(sqrt 2), and (u + v R)(u - v R) = u^2 - 2 v^2 is rational and
        positive (a product of two squared absolute values, one per
        embedding of sqrt 2).  So 1/x = x* (u - v R) / (u^2 - 2 v^2).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        a, b, c, d, k = self.a, self.b, self.c, self.d, self.den
        u = a * a + b * b + 2 * (c * c + d * d)
        v = 2 * (a * c + b * d)
        return _make(k * (a * u - 2 * c * v), k * (2 * d * v - b * u),
                     k * (c * u - a * v), k * (b * v - d * u),
                     u * u - 2 * v * v)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.b or self.d)

    def is_imaginary(self) -> bool:
        """Purely imaginary (zero real part); zero counts as imaginary."""
        return not (self.a or self.c)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (not (self.b or self.c or self.d)
                    and self.a == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.a == other.a and self.b == other.b and self.c == other.c
                and self.d == other.d and self.den == other.den)

    def __hash__(self) -> int:
        # a rational value hashes like the int or Fraction it equals
        if self.b or self.c or self.d:
            return hash((self.a, self.b, self.c, self.d, self.den))
        return hash(self.a if self.den == 1 else Fraction(self.a, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.p!r}, {self.q!r}, {self.r!r}, {self.s!r})"

    def __str__(self) -> str:
        out = ""
        for coef, unit in zip((self.p, self.q, self.r, self.s),
                              ("", "i", "√2", "i√2")):
            if not coef:
                continue
            mag = abs(coef)
            text = unit if unit and mag == 1 else f"{mag}{unit}"
            if out:
                out += f" {'-' if coef < 0 else '+'} {text}"
            else:
                out = ("-" if coef < 0 else "") + text
        return out or "0"

    def to_json(self) -> list[str]:
        """The 4-tuple of rational strings ["p","q","r","s"]."""
        return [str(self.p), str(self.q), str(self.r), str(self.s)]


# zero and the units +-1, +-i, by numerators: each has one shared Scalar
_SHARED: dict[tuple[int, int, int, int], Scalar] = {}


def _make(a: int, b: int, c: int, d: int, den: int) -> Scalar:
    """The Scalar (a + b i + c R + d iR) / den for den > 0, reduced."""
    if den != 1:
        g = gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    if den == 1:
        x = _SHARED.get((a, b, c, d))
        if x is not None:
            return x
    x = object.__new__(Scalar)
    x.a, x.b, x.c, x.d, x.den = a, b, c, d, den
    return x


def _rational(x: RationalLike) -> "int | Fraction":
    """An exact component: a float would bring its binary rounding in."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"Scalar components are int, Fraction or str, "
                    f"not {type(x).__name__}")


def _coerce(x) -> "Scalar | None":
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


ZERO, ONE, MINUS_ONE, I = (Scalar(p, q) for p, q in
                           ((0, 0), (1, 0), (-1, 0), (0, 1)))
_SHARED.update(((x.a, x.b, 0, 0), x) for x in (ZERO, ONE, MINUS_ONE, I, -I))
SQRT2 = Scalar(0, 0, 1)
INV_SQRT2 = Scalar(0, 0, Fraction(1, 2))
