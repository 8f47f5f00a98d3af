import random

import pytest

from dcubed.scalar import Scalar, ONE, Q
from dcubed.freealg import AlgebraElement

from conftest import random_algebra, x


def test_addition_collects_words():
    x1 = x(2, 1)
    assert x1 + x1 == x1.scale(2)
    assert (x1 + x1.scale(-1)).is_zero
    lhs = (x(2, 1, 2) + AlgebraElement.one(2)) + x(2, 1, 2).scale(Q)
    expected = AlgebraElement(2, {(1, 2): Scalar(1, 1), (): ONE})
    assert lhs == expected


def test_product_is_word_concatenation():
    a, b = x(2, 1), x(2, 2)
    assert a * b == x(2, 1, 2)
    assert b * a == x(2, 2, 1)
    assert a * b != b * a
    one = AlgebraElement.one(2)
    u = random_algebra(random.Random(3), 2)
    assert one * u == u and u * one == u
    assert (a + b) * a == x(2, 1, 1) + x(2, 2, 1)


def test_degree():
    assert x(2, 1, 2, 1).degree() == 3
    assert AlgebraElement.one(2).degree() == 0
    assert (x(2, 1).scale(Q) + x(2, 2, 2)).degree() == 2
    with pytest.raises(ValueError):
        AlgebraElement.zero(2).degree()


def test_mismatched_generator_count():
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)
    with pytest.raises(ValueError):
        AlgebraElement.generator(2, 3)


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(40):
        u, v, w = (random_algebra(rng, 2) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_degree_additive_on_monomials():
    rng = random.Random(13)
    for _ in range(40):
        wu = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
        wv = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
        u = AlgebraElement.monomial(2, wu, Q)
        v = AlgebraElement.monomial(2, wv)
        assert (u * v).degree() == u.degree() + v.degree()


def test_scalar_interplay():
    u = x(2, 1) + AlgebraElement.one(2)
    assert u.scale(0).is_zero
    assert 2 * u == u + u
    assert u - u == AlgebraElement.zero(2)
    assert u * Q == Q * u
    # a bare scalar is promoted to a multiple of the unit
    assert u - 1 == x(2, 1) and 1 + x(2, 1) == u and u - x(2, 1) == 1
    assert Q - u == AlgebraElement.scalar(2, Q - 1) - x(2, 1)


def test_homogeneity_helpers():
    u = x(2, 1) + x(2, 2)
    assert AlgebraElement.scalar(2, Q).constant_value() == Q
    with pytest.raises(ValueError):
        u.constant_value()
