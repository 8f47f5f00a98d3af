import random

import pytest

from dcubed.scalar import Q
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.tensoralg import (
    TensorElement, tensor_mul, push_through, dword_grade,
)

from conftest import PRESET_NAMES, random_tensor, x


def dx(n, i, coeff=None):
    return TensorElement.of_letter(n, 1, i, coeff)


def d2x(n, i, coeff=None):
    return TensorElement.of_letter(n, 2, i, coeff)


def test_letter_grades():
    assert dword_grade(((1, 1), (2, 2))) == 3
    with pytest.raises(ValueError):
        TensorElement.of_letter(2, 3, 1)


def test_unit_coefficient_concatenates():
    m = preset_map("commutative", 2)
    got = tensor_mul(m, dx(2, 1), dx(2, 2))
    assert got == TensorElement.monomial(2, ((1, 1), (1, 2)), AlgebraElement.one(2))


def test_left_coefficient_pushes_through():
    # (dx1 * x^i) (dx2 * s) = sum_k dx1 (x) dx^k * entry(i,2,k) s
    for name in PRESET_NAMES:
        m = preset_map(name, 2)
        for i in (1, 2):
            s = x(2, 2) + AlgebraElement.one(2)
            got = tensor_mul(m, dx(2, 1, x(2, i)), dx(2, 2, s))
            expected = TensorElement.zero(2)
            for k in (1, 2):
                e = m.entry(i, 2, k)
                if e:
                    expected = expected + TensorElement.monomial(
                        2, ((1, 1), (1, k)), e * s)
            assert got == expected


def test_algebra_acts_via_map_on_second_order_letters():
    for name in PRESET_NAMES:
        m = preset_map(name, 2)
        for i in (1, 2):
            for j in (1, 2):
                u = TensorElement.of_algebra(x(2, i))
                got = tensor_mul(m, u, d2x(2, j))
                expected = TensorElement.zero(2)
                for k in (1, 2):
                    e = m.entry(i, j, k)
                    if e:
                        expected = expected + d2x(2, k, e)
                assert got == expected


def test_push_through_equals_canonicalization():
    m = preset_map("commutative", 2)
    # x1 * dx1 pushed: dx^k * entry(1,1,k) = dx1 * x1
    got = push_through(m, x(2, 1), ((1, 1),))
    assert got == dx(2, 1, x(2, 1))


def test_equality_is_canonical_form_equality():
    m = preset_map("commutative", 2)
    lhs = tensor_mul(m, TensorElement.of_algebra(x(2, 1)), dx(2, 1))
    rhs = TensorElement.zero(2)
    for k in (1, 2):
        e = m.entry(1, 1, k)
        if e:
            rhs = rhs + dx(2, k, e)
    assert lhs == rhs
    assert tensor_mul(m, dx(2, 1), dx(2, 2)) != tensor_mul(m, dx(2, 2), dx(2, 1))
    w = random_tensor(random.Random(1), 2)
    assert w == w + TensorElement.zero(2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_associativity(name):
    m = preset_map(name, 2)
    rng = random.Random(29)
    for _ in range(25):
        a = random_tensor(rng, 2, max_grade=2, max_word_len=2, max_terms=2)
        b = random_tensor(rng, 2, max_grade=1, max_word_len=2, max_terms=2)
        c = random_tensor(rng, 2, max_grade=1, max_word_len=1, max_terms=2)
        assert tensor_mul(m, tensor_mul(m, a, b), c) == \
            tensor_mul(m, a, tensor_mul(m, b, c))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_grade_additivity(name):
    m = preset_map(name, 2)
    rng = random.Random(31)
    for _ in range(25):
        a = random_tensor(rng, 2, max_grade=2)
        b = random_tensor(rng, 2, max_grade=2)
        ga, gb = a.max_grade(), b.max_grade()
        prod = tensor_mul(m, a, b)
        if a.homogeneous_grade() is not None and b.homogeneous_grade() is not None \
                and not prod.is_zero:
            assert prod.homogeneous_grade() == ga + gb


def test_low_grades_have_expected_shapes():
    # grade 0: plain algebra; grade 1: single first-order letters;
    # grade 2: second-order letters and pairs of first-order letters
    e = TensorElement.of_algebra(x(2, 1)) + dx(2, 2) + d2x(2, 1) \
        + TensorElement.monomial(2, ((1, 1), (1, 1)), AlgebraElement.one(2))
    parts = {}
    for w in e.terms:
        parts.setdefault(dword_grade(w), []).append(w)
    assert sorted(parts) == [0, 1, 2]
    assert all(w == () for w in parts[0])
    assert all(len(w) == 1 and w[0][0] == 1 for w in parts[1])
    for w in parts[2]:
        assert w == ((2, 1),) or [a for a, _ in w] == [1, 1]


def test_mixed_generator_counts_rejected():
    m = preset_map("commutative", 2)
    with pytest.raises(ValueError):
        tensor_mul(m, dx(2, 1), dx(3, 1))
    with pytest.raises(ValueError):
        tensor_mul(preset_map("commutative", 3), dx(2, 1), dx(2, 1))


def test_scaling():
    e = dx(2, 1, x(2, 2))
    assert e.scale(0).is_zero
    assert e.scale(Q) + e.scale(-Q) == TensorElement.zero(2)
    assert Q * e == e * Q
    # scalars act by scaling but are not tensor elements
    with pytest.raises(TypeError):
        e + 1
    with pytest.raises(TypeError):
        e - Q
