import random
from fractions import Fraction

import pytest

from dcubed.parsing import parse_algebra
from dcubed.scalar import (
    Scalar, ZERO, ONE, Q, Q2, q_power, q_integer, format_scalar, join_signed,
)


def test_basic_sums():
    assert Scalar(1) + Q == Scalar(1, 1)
    assert Scalar(1, 1) + Scalar(-1, -1) == ZERO
    # [2]_q + q^2 = [3]_q = 0
    assert q_integer(2) + Q2 == ZERO


def test_products_reduce_the_square():
    assert Q * Q == Scalar(-1, -1)
    assert Q * Q * Q == ONE
    assert Scalar(1, 1) * Scalar(1, 1) == Q  # (1+q)^2 = 1 + 2q + q^2 = q


def test_q_power():
    assert q_power(0) == ONE
    assert q_power(3) == ONE
    assert q_power(-1) == Q2
    for k in range(-7, 10):
        assert q_power(k) * q_power(3 - (k % 3)) == ONE


def test_q_integers():
    assert q_integer(0) == ZERO
    assert q_integer(2) == Scalar(1, 1)
    assert q_integer(3) == ZERO
    for n in range(0, 7):
        assert q_integer(n + 3) == q_integer(n)
    assert q_integer(2) * q_power(2) == -Q
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_integer_matches_its_defining_sum():
    for n in range(13):
        assert q_integer(n) == sum((q_power(k) for k in range(n)), ZERO)
    assert q_integer(10**100) == ONE


def test_field_axioms_on_random_values():
    rng = random.Random(20260809)

    def rand():
        return Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                      Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == ONE
            assert (b / a) * a == b


def test_powers():
    assert Q ** 0 == ONE
    assert Q ** 4 == Q
    assert Q ** -1 == Q2
    assert Scalar(2) ** 3 == Scalar(8)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_format():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(ONE) == "1"
    assert format_scalar(Q) == "q"
    assert format_scalar(-Q) == "-q"
    assert format_scalar(Scalar(1, 1)) == "1 + q"
    assert format_scalar(Scalar(Fraction(1, 2), -1)) == "1/2 - q"
    assert format_scalar(Scalar(0, Fraction(-2, 3))) == "-2/3*q"
    # the sign rule every printed sum shares
    assert join_signed([]) == ""
    assert join_signed([("-", "x1"), ("+", "q"), ("-", "2")]) == "-x1 + q - 2"


def test_parse_round_trip():
    rng = random.Random(7)
    samples = [ZERO, ONE, Q, -Q, Q2, Scalar(Fraction(-5, 3), Fraction(7, 2))]
    samples += [Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(50)]
    for s in samples:
        assert parse_algebra(format_scalar(s), 1).constant_value() == s


def test_constructor_rejects_floats_and_strings():
    # no floating point: a float part is refused, not rounded to a Fraction
    for parts in ((0.1,), (1, 0.5), ("1/2",)):
        with pytest.raises(TypeError):
            Scalar(*parts)


def test_mixed_operands():
    # an int or a Fraction on either side is promoted; anything else is refused
    assert 1 - Q == Scalar(1, -1)
    assert 2 + Q == Scalar(2, 1)
    assert Fraction(1, 2) * Q == Scalar(0, Fraction(1, 2))
    assert 2 / Scalar(4) == Scalar(Fraction(1, 2))
    assert Scalar(3) == 3
    assert (Q == "q") is False
    assert (Scalar(1) == 1.0) is False
    for op in (lambda: Q + 0.5, lambda: 0.5 - Q, lambda: Q - "x", lambda: Q / "x",
               lambda: "x" / Q, lambda: Scalar.coerce("q")):
        with pytest.raises(TypeError):
            op()
