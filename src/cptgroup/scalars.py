"""Exact arithmetic in the field Q(i, sqrt(2)).

Every scalar that occurs in the construction (the unit multipliers of the
discrete-symmetry matrices, the entries of the gamma matrices, and the
1/sqrt(2) factors of the change-of-basis matrices) lies in the degree-4
extension Q(i, sqrt(2)) of the rationals.  An element is stored as four
rationals (p, q, r, s) meaning

    p + q*i + r*sqrt(2) + s*i*sqrt(2)

which makes equality bit-exact: two scalars are equal iff their four
components are equal.  Components are `fractions.Fraction`, so numerators
and denominators are arbitrary-precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


_FRACTION_ZERO = Fraction(0)


def _rat(x: RationalLike) -> Fraction:
    # most components are zero: share one Fraction for all of them
    if isinstance(x, Fraction):
        return x if x else _FRACTION_ZERO
    return Fraction(x) if x != 0 else _FRACTION_ZERO


class Scalar:
    """An element p + q*i + r*sqrt(2) + s*i*sqrt(2) of Q(i, sqrt(2))."""

    __slots__ = ("p", "q", "r", "s", "_hash")

    def __init__(self, p: RationalLike = 0, q: RationalLike = 0,
                 r: RationalLike = 0, s: RationalLike = 0) -> None:
        object.__setattr__(self, "p", _rat(p))
        object.__setattr__(self, "q", _rat(q))
        object.__setattr__(self, "r", _rat(r))
        object.__setattr__(self, "s", _rat(s))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("Scalar is immutable")

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.p + other.p, self.q + other.q,
                      self.r + other.r, self.s + other.s)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.p - other.p, self.q - other.q,
                      self.r - other.r, self.s - other.s)

    def __rsub__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.p, -self.q, -self.r, -self.s)

    def __mul__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b i + c R + d iR)(e + f i + g R + h iR), R^2 = 2, i^2 = -1;
        # most scalars in practice have a single nonzero component, so
        # accumulate only the nonzero cross terms
        acc = [0, 0, 0, 0]
        for coef, k in ((self.p, 0), (self.q, 1), (self.r, 2), (self.s, 3)):
            if not coef:
                continue
            for oth, j in ((other.p, 0), (other.q, 1),
                           (other.r, 2), (other.s, 3)):
                if not oth:
                    continue
                unit, sign = _UNIT_TABLE[k][j]
                term = coef * oth
                acc[unit] += term * sign if sign != 1 else term
        return Scalar(*acc)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: "Scalar | int") -> "Scalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- field structure -----------------------------------------------

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, sqrt(2) fixed."""
        return Scalar(self.p, -self.q, self.r, -self.s)

    def sqrt2_conjugate(self) -> "Scalar":
        """Galois conjugation sqrt(2) -> -sqrt(2), i fixed."""
        return Scalar(self.p, self.q, -self.r, -self.s)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        Rationalize in two steps: multiply by the complex conjugate to land
        in Q(sqrt(2)), then by the sqrt(2)-conjugate to land in Q.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        c = self.conjugate()
        real = self * c                      # now q = s = 0
        norm = real * real.sqrt2_conjugate()  # now pure rational
        factor = c * real.sqrt2_conjugate()
        return Scalar(factor.p / norm.p, factor.q / norm.p,
                      factor.r / norm.p, factor.s / norm.p)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.p or self.q or self.r or self.s)

    def is_rational(self) -> bool:
        return not (self.q or self.r or self.s)

    def is_real(self) -> bool:
        return not (self.q or self.s)

    def is_imaginary(self) -> bool:
        """Purely imaginary (zero real part); zero counts as imaginary."""
        return not (self.p or self.r)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.r == other.r and self.s == other.s)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.p, self.q, self.r, self.s))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.p!r}, {self.q!r}, {self.r!r}, {self.s!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for coef, unit in ((self.p, ""), (self.q, "i"),
                           (self.r, "Y2"), (self.s, "iY2")):
            unit = unit.replace("Y2", "√2")
            if not coef:
                continue
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            if unit and mag == 1:
                text = unit
            elif unit:
                text = f"{mag}{unit}"
            else:
                text = str(mag)
            parts.append((sign, text))
        out = ""
        for k, (sign, text) in enumerate(parts):
            if k == 0:
                out = ("-" if sign == "-" else "") + text
            else:
                out += f" {sign} {text}"
        return out

    def to_json(self) -> list[str]:
        """The 4-tuple of rational strings ["p","q","r","s"]."""
        return [str(self.p), str(self.q), str(self.r), str(self.s)]

    @classmethod
    def from_json(cls, data) -> "Scalar":
        p, q, r, s = data
        return cls(Fraction(p), Fraction(q), Fraction(r), Fraction(s))


# products of the basis units 1, i, R, iR: entry [k][j] gives the
# component index and sign of unit_k * unit_j (R^2 = 2 absorbed as sign 2)
_UNIT_TABLE = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, 1), (0, 2), (1, 2)),
    ((3, 1), (2, -1), (1, 2), (0, -2)),
)


def _coerce(x) -> "Scalar | None":
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
SQRT2 = Scalar(0, 0, 1)
INV_SQRT2 = Scalar(0, 0, Fraction(1, 2))
