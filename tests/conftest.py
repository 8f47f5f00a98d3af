import random
from fractions import Fraction

import pytest

from dcubed.scalar import Scalar, Q
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement

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
