"""Field axioms and conjugation laws for the exact scalar type."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cptgroup.matrices import Mat4
from cptgroup.scalars import (I, INV_SQRT2, MINUS_ONE, ONE, UNITS, ZERO,
                              Scalar, times_unit)

SQRT2 = Scalar(0, 0, 1)


def random_scalar(rng, zero_ok=True):
    while True:
        s = Scalar(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(4)))
        if zero_ok or not s.is_zero():
            return s


def test_field_axioms_on_random_triples():
    rng = random.Random(20260823)
    for _ in range(1000):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a + (-a) == ZERO


def test_inverses_on_random_sample():
    rng = random.Random(7)
    for _ in range(300):
        a = random_scalar(rng, zero_ok=False)
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


def test_conjugation_laws_on_random_pairs():
    rng = random.Random(11)
    for _ in range(300):
        a, b = random_scalar(rng), random_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(small, small, small, small, small, small, small, small)
def test_product_conjugate_property(p, q, r, s, p2, q2, r2, s2):
    a, b = Scalar(p, q, r, s), Scalar(p2, q2, r2, s2)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if not b.is_zero():
        assert (a / b) * b == a


def test_named_constants():
    assert I * I == MINUS_ONE
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert (I * SQRT2) * (I * SQRT2) == Scalar(-2)
    assert SQRT2.inverse() == INV_SQRT2
    assert (Scalar(1) + I).inverse() == Scalar(Fraction(1, 2), Fraction(-1, 2))


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_predicates_and_serialization():
    assert (Scalar(3).p, Scalar(3).q, Scalar(3).r, Scalar(3).s) == (3, 0, 0, 0)
    assert (SQRT2.p, SQRT2.q, SQRT2.r, SQRT2.s) == (0, 0, 1, 0)
    assert (I.p, I.q, I.r, I.s) == (0, 1, 0, 0)
    for value in (ZERO, ONE, I, SQRT2, INV_SQRT2, Scalar(2, -3, 5, -7)):
        assert Scalar(*value.to_json()) == value
    assert Scalar("1/3", "-2", 0, 0).to_json() == ["1/3", "-2", "0", "0"]


def test_int_interoperability():
    assert 2 * I == I + I
    assert 1 - I == Scalar(1, -1)
    assert I / 1 == I
    with pytest.raises(TypeError):
        I + "x"



def test_floats_are_rejected_at_every_entry_point():
    # a float would bring its binary rounding in: 0.1 is not 1/10
    assert Scalar("0.1") == Scalar(Fraction(1, 10))
    with pytest.raises(TypeError):
        Scalar(0.1)
    with pytest.raises(TypeError):
        Scalar(0, 0, 0, 0.5)
    with pytest.raises(TypeError):
        Mat4.identity().scale(0.1)
    with pytest.raises(TypeError):
        Mat4([[0.1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


# -- canonical integer form ------------------------------------------------

def _is_canonical(x):
    if x.is_zero():
        return x is ZERO
    return x.den > 0 and gcd(x.a, x.b, x.c, x.d, x.den) == 1


def _reference_mul(u, v):
    """Product of two component 4-tuples of Fractions, term by term."""
    p, q, r, s = u
    e, f, g, h = v
    return (p * e - q * f + 2 * r * g - 2 * s * h,
            p * f + q * e + 2 * r * h + 2 * s * g,
            p * g + r * e - q * h - s * f,
            p * h + s * e + q * g + r * f)


def _reference_str(comps):
    """The rendering of p + q i + r √2 + s i√2 from Fraction components."""
    parts = []
    for coef, unit in zip(comps, ("", "i", "√2", "i√2")):
        if not coef:
            continue
        mag = abs(coef)
        if unit and mag == 1:
            text = unit
        elif unit:
            text = f"{mag}{unit}"
        else:
            text = str(mag)
        parts.append(("-" if coef < 0 else "+", text))
    if not parts:
        return "0"
    (sign, text), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + text + "".join(
        f" {sgn} {txt}" for sgn, txt in rest)


def _matches_reference(x, comps):
    comps = tuple(Fraction(c) for c in comps)
    return ((x.p, x.q, x.r, x.s) == comps
            and x.to_json() == [str(c) for c in comps]
            and str(x) == _reference_str(comps)
            and repr(x) == "Scalar({!r}, {!r}, {!r}, {!r})".format(*comps))


@given(small, small, small, small, small, small, small, small)
def test_results_are_canonical_and_match_fraction_reference(
        p, q, r, s, p2, q2, r2, s2):
    u, v = (p, q, r, s), (p2, q2, r2, s2)
    a, b = Scalar(*u), Scalar(*v)
    results = [
        (a, u), (b, v),
        (a + b, tuple(x + y for x, y in zip(u, v))),
        (a - b, tuple(x - y for x, y in zip(u, v))),
        (3 - a, (3 - p, -q, -r, -s)),
        (ZERO - a, tuple(-x for x in u)),
        (-a, tuple(-x for x in u)),
        (a * b, _reference_mul(u, v)),
        (a.conjugate(), (p, -q, r, -s)),
    ]
    if not b.is_zero():
        inv = b.inverse()
        assert _reference_mul(v, (inv.p, inv.q, inv.r, inv.s)) == (1, 0, 0, 0)
        results.append((a / b, _reference_mul(u, (inv.p, inv.q, inv.r,
                                                  inv.s))))
        results.append((inv, (inv.p, inv.q, inv.r, inv.s)))
    for x, comps in results:
        assert _is_canonical(x)
        assert _matches_reference(x, comps)
    assert a - a is ZERO and a * ZERO is ZERO and ZERO * a is ZERO


@given(small, small, small, small)
def test_unit_multiples_permute_the_numerators_without_a_gcd(p, q, r, s):
    x = Scalar(p, q, r, s)
    for e, u in enumerate(UNITS):
        y = times_unit(x, e)
        assert _is_canonical(y) and y == x * u == u * x
        assert y.den == x.den
        assert sorted(map(abs, (y.a, y.b, y.c, y.d))) == sorted(
            map(abs, (x.a, x.b, x.c, x.d)))
    assert times_unit(x, 0) is x and times_unit(ZERO, 3) is ZERO
    # a unit times a unit is the shared unit
    assert all(times_unit(u, e) is UNITS[(k + e) % 4]
               for k, u in enumerate(UNITS) for e in range(4))
    # conjugation only negates numerators: no gcd, and units stay shared
    assert x.conjugate().den == x.den and ZERO.conjugate() is ZERO
    assert all(u.conjugate() is UNITS[-k % 4] for k, u in enumerate(UNITS))


def test_equal_values_built_differently_are_equal_and_hash_equal():
    for group in ([Scalar(Fraction(2, 4)), ONE / 2, Scalar("1/2"),
                   INV_SQRT2 * SQRT2 / 2, ONE - Scalar(Fraction(1, 2)),
                   Scalar(2).inverse()],
                  [INV_SQRT2, SQRT2 / 2, SQRT2.inverse(),
                   Scalar(0, 0, "3/6"), (ONE + SQRT2) * INV_SQRT2 - ONE],
                  [ZERO, Scalar(0), Scalar(0, 0, 0, 0), I - I,
                   Scalar(Fraction(0, 5)), SQRT2 * 0]):
        assert len({(x.a, x.b, x.c, x.d, x.den) for x in group}) == 1
        assert all(x == group[0] for x in group)
        assert len({hash(x) for x in group}) == 1
    assert Scalar(0) is ZERO and Scalar(Fraction(2, 4)).den == 2
    # the units are shared like zero
    assert I * I is MINUS_ONE and (ONE / 2) * 2 is ONE and -I * I is ONE
    assert Scalar(0, -1) is -I and Scalar(Fraction(3, 3)) is ONE


@given(st.one_of(st.integers(-10**30, 10**30), small))
def test_rational_scalars_hash_like_the_rational(x):
    # equal objects must hash equal, or dict and set lookups miss
    sx = Scalar(x)
    assert sx == x and x == sx
    assert hash(sx) == hash(x)
    assert {x: "found"}.get(sx) == "found"
    assert {sx: "found"}.get(x) == "found"
