import random
import tracemalloc

import pytest

from dcubed.freealg import AlgebraElement
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.differential import d
from dcubed.parsing import parse_algebra
from dcubed.scalar import q_power
from dcubed.tensoralg import TensorElement, tensor_mul

from conftest import PRESET_NAMES, random_algebra, x


def test_derivative_of_generators_and_unit(preset_calc):
    calc = preset_calc
    for k in (1, 2):
        for i in (1, 2):
            expected = AlgebraElement.one(2) if i == k else AlgebraElement.zero(2)
            assert calc.partial(k, x(2, i)) == expected
        assert calc.partial(k, AlgebraElement.one(2)).is_zero


def test_commutative_square_derivative(commutative_calc):
    # D_1(x1 x1) = D_1(x1) x1 + entry(1,j,1) D_j(x1) = x1 + x1 = 2 x1
    assert commutative_calc.partial(1, x(2, 1, 1)) == x(2, 1).scale(2)
    assert commutative_calc.partial(2, x(2, 1, 1)).is_zero


def entry_map(entries):
    """n = 2 map from entry strings: ``entries[i-1][k-1][j-1]`` is m(x^i)[k][j]."""
    return BimoduleMap(2, [[[parse_algebra(e, 2) for e in row] for row in mat]
                           for mat in entries])


# Two maps whose matrices are not diagonal: entries of word degree <= 1 with
# several terms, and entries of word degree 2 (the bigraded path is off).
NON_DIAGONAL_MAPS = {
    "twisted": lambda: entry_map([
        [["x1 + q x2", "1"], ["x2", "-q"]],
        [["2", "x1 - x2"], ["q x1 + x2", "x2"]],
    ]),
    "quadratic": lambda: entry_map([
        [["x1 x1", "x1 x2"], ["0", "x1 x1"]],
        [["x2 x2", "0"], ["q x2 x1", "x2 x2 - x1 x2"]],
    ]),
}


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(NON_DIAGONAL_MAPS))
def test_twisted_product_rule(name):
    build = NON_DIAGONAL_MAPS.get(name, lambda: preset_map(name, 2))
    calc = Calculus(build())
    rng = random.Random(37)
    for _ in range(25):
        u, v = random_algebra(rng, 2), random_algebra(rng, 2)
        mat = calc.bmap.matrix(u)
        for k in (1, 2):
            expected = calc.partial(k, u) * v
            for j in (1, 2):
                expected = expected + mat[k - 1][j - 1] * calc.partial(j, v)
            assert calc.partial(k, u * v) == expected


def test_split_position_independence(preset_calc):
    # computing D_k by splitting a word anywhere must agree with the
    # closed form over its prefixes
    calc = preset_calc
    rng = random.Random(41)
    for _ in range(25):
        length = rng.randint(2, 4)
        word = tuple(rng.randint(1, 2) for _ in range(length))
        cut = rng.randint(1, length - 1)
        u = AlgebraElement.monomial(2, word[:cut])
        v = AlgebraElement.monomial(2, word[cut:])
        full = AlgebraElement.monomial(2, word)
        mat = calc.bmap.matrix(u)
        for k in (1, 2):
            expected = calc.partial(k, u) * v
            for j in (1, 2):
                expected = expected + mat[k - 1][j - 1] * calc.partial(j, v)
            assert calc.partial(k, full) == expected


def test_d1_on_generators(preset_calc):
    calc = preset_calc
    for i in (1, 2):
        assert d(calc, TensorElement.of_algebra(x(2, i))) == TensorElement.of_letter(2, 1, i)
    assert d(calc, TensorElement.of_algebra(AlgebraElement.one(2))).is_zero


def test_d1_commutative_product(commutative_calc):
    got = d(commutative_calc, TensorElement.of_algebra(x(2, 1, 2)))
    expected = TensorElement.of_letter(2, 1, 1, x(2, 2)) \
        + TensorElement.of_letter(2, 1, 2, x(2, 1))
    assert got == expected


def test_d2_tilde_on_generators(preset_calc):
    calc = preset_calc
    for i in (1, 2):
        assert calc.d2_tilde(x(2, i)) == TensorElement.of_letter(2, 2, i)
    assert calc.d2_tilde(AlgebraElement.one(2)).is_zero


def test_d2_tilde_commutative_product(commutative_calc):
    got = commutative_calc.d2_tilde(x(2, 1, 2))
    expected = TensorElement.of_letter(2, 2, 1, x(2, 2)) \
        + TensorElement.of_letter(2, 2, 2, x(2, 1))
    assert got == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_d1_leibniz_as_tensor_identity(name):
    calc = Calculus(preset_map(name, 2))
    rng = random.Random(43)
    for _ in range(25):
        u, v = random_algebra(rng, 2), random_algebra(rng, 2)
        lhs = d(calc, TensorElement.of_algebra(u * v))
        tu, tv = TensorElement.of_algebra(u), TensorElement.of_algebra(v)
        rhs = tensor_mul(calc.bmap, d(calc, tu), tv) + tensor_mul(calc.bmap, tu, d(calc, tv))
        assert lhs == rhs


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_d2_tilde_leibniz(name):
    calc = Calculus(preset_map(name, 2))
    rng = random.Random(47)
    for _ in range(25):
        u, v = random_algebra(rng, 2), random_algebra(rng, 2)
        lhs = calc.d2_tilde(u * v)
        rhs = tensor_mul(calc.bmap, calc.d2_tilde(u), TensorElement.of_algebra(v)) \
            + tensor_mul(calc.bmap, TensorElement.of_algebra(u), calc.d2_tilde(v))
        assert lhs == rhs


def test_linearity(preset_calc):
    calc = preset_calc
    u, v = x(2, 1, 2), x(2, 2)
    from dcubed.scalar import Q
    tu, tv = TensorElement.of_algebra(u), TensorElement.of_algebra(v)
    assert d(calc, tu.scale(Q) + tv) == d(calc, tu).scale(Q) + d(calc, tv)


def test_long_word_gradient(commutative_calc):
    # D_1(x1^L) = L x1^(L-1), computed without one stack frame per letter
    grad = commutative_calc.gradient(x(2, *([1] * 1500)))
    assert grad[0] == x(2, *([1] * 1499)).scale(1500)
    assert grad[1].is_zero


def test_long_mixed_word_gradient():
    # on scalar-twist m(u) is q^len(u) u times the identity, so the closed
    # form reads D_k(w) = sum over p with w[p] = k of q^p (w without letter p)
    calc = Calculus(preset_map("scalar-twist", 2))
    word = (1, 2) * 200
    tracemalloc.start()
    try:
        grad = calc.gradient(AlgebraElement.monomial(2, word))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for k in (1, 2):
        expected = AlgebraElement(2, ((word[:p] + word[p + 1:], q_power(p))
                                      for p in range(len(word)) if word[p] == k))
        assert grad[k - 1] == expected
    assert peak < 16 * 2**20
