import itertools
import random
from fractions import Fraction

import pytest

from dcubed.scalar import Scalar, Q, q_power
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.parsing import parse_algebra
from dcubed.tensoralg import TensorElement, tensor_mul

PRESET_NAMES = ("commutative", "scalar-twist", "constant")

SMALL_SCALARS = (
    Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)),
    Q, Scalar(1, 1), Scalar(0, -1), Scalar(Fraction(-2, 3), 1),
)


@pytest.fixture(params=PRESET_NAMES)
def preset_calc(request):
    return Calculus(preset_map(request.param, 2))


@pytest.fixture
def commutative_calc():
    return Calculus(preset_map("commutative", 2))


def random_word(rng: random.Random, n: int, max_len: int):
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, n) for _ in range(length))


def random_algebra(rng: random.Random, n: int, max_len: int = 3,
                   max_terms: int = 3) -> AlgebraElement:
    out = AlgebraElement.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        out = out + AlgebraElement.monomial(
            n, random_word(rng, n, max_len), rng.choice(SMALL_SCALARS))
    return out


def random_dword(rng: random.Random, n: int, max_grade: int):
    word = []
    grade = 0
    while grade < max_grade:
        a = rng.choice((1, 1, 2))
        if grade + a > max_grade:
            break
        word.append((a, rng.randint(1, n)))
        grade += a
        if rng.random() < 0.4:
            break
    return tuple(word)


def random_tensor(rng: random.Random, n: int, max_grade: int = 3,
                  max_word_len: int = 2, max_terms: int = 3) -> TensorElement:
    out = TensorElement.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        out = out + TensorElement.monomial(
            n, random_dword(rng, n, max_grade),
            random_algebra(rng, n, max_word_len, 2))
    return out


def normal_form(ideal, e) -> TensorElement:
    """The residual of e's membership verdict, zero for a member."""
    verdict = ideal.membership(e)
    assert verdict.status != "bound_exceeded"
    return TensorElement.zero(ideal.n) if verdict.is_member else verdict.residual


def x(n, *indices):
    """Monomial helper: x(2, 1, 2) is the word x1 x2 in a 2-generator algebra."""
    return AlgebraElement.monomial(n, indices)


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

# a degree-1 map (as config xi_entries) on which left words add rank at (3, 1)
DEGREE_ONE = [[["(-1-q) x1 + x2", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]

# a scalar-diagonal degree-1 map whose p_1 = x1 + x2 recombines words as it
# crosses a letter, instead of rescaling them
SCALAR_DIAGONAL = [[["x1 + x2", "0"], ["0", "x1 + x2"]], [["q x1", "0"], ["0", "q x1"]]]


def diagonal_map(diagonal):
    """The map m(x^i) = p_i I on n = len(diagonal) generators."""
    n = len(diagonal)
    zero = AlgebraElement.zero(n)
    return BimoduleMap(n, [[[p if k == j else zero for j in range(n)] for k in range(n)]
                           for p in diagonal])


# Two right-only n=3 maps (degree 1, scalar-diagonal) whose letter ideal
# needs more than its two-letter generators as a Groebner basis: the cyclic
# permutation p = (x2, x3, x1) and the twist p = (q x1, q x2, q^2 x3)
RIGHT_ONLY_MAPS = {
    "permutation": lambda: diagonal_map([x(3, 2), x(3, 3), x(3, 1)]),
    "twist": lambda: diagonal_map([x(3, 1).scale(Q), x(3, 2).scale(Q),
                                   x(3, 3).scale(q_power(2))]),
}


# The cubic diagonal maps m(x^i) = x^i x^i x^i I at n = 1 and 2: d^3 of a
# nonzero entry and of its partials is nonzero, so both raw generator-diff
# identities have nonzero sides.
CUBIC_MAPS = {f"cubic-{n}": (lambda n=n: diagonal_map([x(n, i, i, i) for i in range(1, n + 1)]))
              for n in (1, 2)}


def generator(ideal, family, i, j, k=None):
    """The ideal's own Generator keyed (family, i, j, k), from its table."""
    [gen] = [g for g in ideal.all_generators()
             if (g.family, g.i, g.j, g.k) == (family, i, j, k)]
    return gen


def quadratic_map():
    # entries delta^j_k x^i x^i: degree 2, so the bigraded fast path is off
    gen = []
    for i in (1, 2):
        sq = x(2, i, i)
        gen.append([[sq if k == j else AlgebraElement.zero(2)
                     for j in range(2)] for k in range(2)])
    return BimoduleMap(2, gen)


# every map above, as a factory: a fresh call is a map with cold caches
MAPS = {
    **{f"{name}-{n}": (lambda name=name, n=n: preset_map(name, n))
       for name in PRESET_NAMES for n in (2, 3)},
    "degree-one": lambda: entry_map(DEGREE_ONE),
    "scalar-diagonal": lambda: entry_map(SCALAR_DIAGONAL),
    **NON_DIAGONAL_MAPS,
    "quadratic-square": quadratic_map,
    **RIGHT_ONLY_MAPS,
    **CUBIC_MAPS,
}


def monomials(n, grade, length):
    """Every monomial letters * word of the given grade and word length."""
    letters = [(a, i) for a in (1, 2) for i in range(1, n + 1)]
    return [TensorElement.monomial(n, dword, AlgebraElement.monomial(n, word))
            for size in range(grade + 1)
            for dword in itertools.product(letters, repeat=size)
            if sum(a for a, _ in dword) == grade
            for word in itertools.product(range(1, n + 1), repeat=length)]


def products(ideal, grade, totals, left_words=True):
    """L * g * R of the given grade, |L's word| + |R's word| in totals."""
    n, bmap = ideal.n, ideal.calc.bmap
    for gen in ideal.all_generators():
        for g1 in range(grade - gen.grade + 1):
            for total in totals:
                for l1 in range(total + 1 if left_words else 1):
                    for left in monomials(n, g1, l1):
                        for right in monomials(n, grade - gen.grade - g1, total - l1):
                            yield tensor_mul(bmap, tensor_mul(bmap, left, gen.element),
                                             right)
