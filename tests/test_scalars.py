"""Field axioms and conjugation laws for the exact scalar type."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cptgroup.scalars import (I, INV_SQRT2, MINUS_ONE, ONE, SQRT2, ZERO,
                              Scalar)


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
        assert a.sqrt2_conjugate().sqrt2_conjugate() == a
        assert (a * b).sqrt2_conjugate() == \
            a.sqrt2_conjugate() * b.sqrt2_conjugate()


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
    assert Scalar(3).is_real() and (Scalar(3).q, Scalar(3).r) == (0, 0)
    assert SQRT2.is_real() and SQRT2.r == 1
    assert I.is_imaginary() and not I.is_real()
    for value in (ZERO, ONE, I, SQRT2, INV_SQRT2, Scalar(2, -3, 5, -7)):
        assert Scalar.from_json(value.to_json()) == value
    assert Scalar("1/3", "-2", 0, 0).to_json() == ["1/3", "-2", "0", "0"]


def test_int_interoperability():
    assert 2 * I == I + I
    assert 1 - I == Scalar(1, -1)
    assert I / 1 == I
    with pytest.raises(TypeError):
        I + "x"
