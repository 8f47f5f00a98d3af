"""Property tests: the linear structure, the products and the text form.

Elements are drawn over n = 2 from strategies shaped like
``conftest.random_algebra`` and ``conftest.random_tensor``.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dcubed.scalar import Scalar, ZERO, ONE
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.parsing import parse_expression, format_tensor

from conftest import PRESET_NAMES, SMALL_SCALARS

N = 2
CALCS = {name: Calculus(preset_map(name, N)) for name in PRESET_NAMES}

scalars = st.sampled_from(SMALL_SCALARS + (ZERO,))
presets = st.sampled_from(PRESET_NAMES)


def algebras(max_len=3, max_terms=3):
    words = st.lists(st.integers(1, N), max_size=max_len).map(tuple)
    return st.lists(st.tuples(words, scalars), min_size=1, max_size=max_terms) \
        .map(lambda terms: AlgebraElement(N, terms))


letters = st.tuples(st.sampled_from((1, 1, 2)), st.integers(1, N))
tensors = st.lists(
    st.tuples(st.lists(letters, max_size=2).map(tuple), algebras(2, 2)),
    min_size=1, max_size=3).map(lambda terms: TensorElement(N, terms))
elements = st.one_of(algebras(), tensors)


def same_kind(k):
    """k elements of one kind, algebra or tensor."""
    return st.one_of(st.tuples(*[algebras()] * k), st.tuples(*[tensors] * k))


examples = settings(deadline=None, max_examples=60)


@examples
@given(same_kind(3))
def test_addition_is_commutative_and_associative(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@examples
@given(elements)
def test_negation(a):
    assert (a - a).is_zero
    assert -(-a) == a
    assert a + (-a) == type(a).zero(N)


@examples
@given(same_kind(2), scalars, scalars)
def test_scale_distributes_and_composes(ab, s, t):
    a, b = ab
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert a.scale(s) + a.scale(t) == a.scale(s + t)
    assert a.scale(s).scale(t) == a.scale(s * t)


@examples
@given(same_kind(2))
def test_equal_elements_hash_equal(ab):
    a, b = ab
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)
    assert hash(a + b) == hash(b + a)


@examples
@given(scalars)
def test_scalars_hash_like_the_numbers_they_equal(s):
    u = AlgebraElement.scalar(N, s)
    assert u == s and hash(u) == hash(s)
    if not s.b:
        assert s == s.a and hash(s) == hash(s.a)


def test_equal_scalars_meet_in_sets():
    assert len({AlgebraElement.scalar(N, 1), ONE, 1}) == 1
    assert Fraction(1, 2) in {Scalar(Fraction(1, 2))}
    assert hash(AlgebraElement.zero(N)) == hash(0)


@examples
@given(algebras(2), algebras(2), algebras(2))
def test_algebra_product_is_associative_and_distributive(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


@examples
@given(presets, tensors, tensors, tensors)
def test_tensor_mul_is_associative_and_distributive(name, a, b, c):
    m = CALCS[name].bmap
    assert tensor_mul(m, tensor_mul(m, a, b), c) == tensor_mul(m, a, tensor_mul(m, b, c))
    assert tensor_mul(m, a, b + c) == tensor_mul(m, a, b) + tensor_mul(m, a, c)
    assert tensor_mul(m, a + b, c) == tensor_mul(m, a, c) + tensor_mul(m, b, c)


@examples
@given(presets, tensors)
def test_text_form_round_trips(name, e):
    assert parse_expression(format_tensor(e), CALCS[name]) == e
