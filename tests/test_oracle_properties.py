"""Property tests of the membership oracle on the three presets at n = 2.

Each preset's :class:`Ideal` is built once for the module, so the systems
one example builds are reused by the next.  Queries stay at grade <= 4 and
word degree <= 2, where a system has at most a few hundred columns.

The residual of a verdict is the normal form modulo the ideal: zero for
members, idempotent, congruent to the query, and the same on a coset.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.differential import d_power
from dcubed.ideal import Ideal
from dcubed.verify import check_q_leibniz

from conftest import PRESET_NAMES, SMALL_SCALARS, normal_form

N = 2
IDEALS = {name: Ideal(Calculus(preset_map(name, N))) for name in PRESET_NAMES}

presets = st.sampled_from(PRESET_NAMES)
words = st.lists(st.integers(1, N), max_size=1).map(tuple)
# a monomial of grade <= 1 and word degree <= 1: (letters, word)
sides = st.tuples(st.lists(st.tuples(st.just(1), st.integers(1, N)),
                           max_size=1).map(tuple), words)
# c * L * g * R, g drawn by its index in the ideal's generator list; R
# carries no letter
products = st.tuples(st.sampled_from(SMALL_SCALARS), sides,
                     st.integers(0, 10 ** 6), words)


def elements(size):
    """Sums of c * letters * word, with at most `size` dx or d2x letters."""
    letters = st.lists(st.tuples(st.integers(1, 2), st.integers(1, N)),
                       max_size=size).map(tuple)
    return st.lists(st.tuples(st.sampled_from(SMALL_SCALARS), letters, words),
                    min_size=1, max_size=3)


examples = settings(deadline=None, max_examples=25)


def monomial(side):
    dword, word = side
    return TensorElement.monomial(N, dword, AlgebraElement.monomial(N, word))


def element(terms):
    out = TensorElement.zero(N)
    for c, dword, word in terms:
        out = out + monomial((dword, word)).scale(c)
    return out


def combination(ideal, terms):
    """sum of c * L * g * R over the drawn terms; L loses its letter when
    g has grade 4."""
    bmap, gens = ideal.calc.bmap, ideal.all_generators()
    out = TensorElement.zero(N)
    for c, (dword, word), g, right in terms:
        gen = gens[g % len(gens)]
        left = monomial(((), word) if gen.grade == 4 else (dword, word))
        product = tensor_mul(bmap, left,
                             tensor_mul(bmap, gen.element, monomial(((), right))))
        out = out + product.scale(c)
    return out


@examples
@given(presets, st.lists(products, min_size=1, max_size=3))
def test_combinations_of_generators_are_members(name, terms):
    ideal = IDEALS[name]
    query = combination(ideal, terms)
    verdict = ideal.membership(query)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == query


@examples
@given(presets, st.lists(products, min_size=1, max_size=2), st.integers(1, N))
def test_a_grade_one_letter_is_the_residual(name, terms, i):
    ideal = IDEALS[name]
    letter = TensorElement.of_letter(N, 1, i)
    verdict = ideal.membership(combination(ideal, terms) + letter)
    assert verdict.status == "not_member_at_bound"
    assert verdict.residual == letter


@examples
@given(presets, sides, st.lists(st.integers(1, N), max_size=1).map(tuple))
def test_third_iterate_is_a_member(name, side, tail):
    ideal = IDEALS[name]
    dword, word = side
    w = monomial((dword, word + tail))
    image = d_power(ideal.calc, w, 3)
    verdict = ideal.membership(image)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == image


@examples
@given(presets, elements(2), st.lists(products, min_size=1, max_size=2))
def test_the_residual_is_a_normal_form(name, terms, member_terms):
    ideal = IDEALS[name]
    e = element(terms)
    nf = normal_form(ideal, e)
    assert normal_form(ideal, combination(ideal, member_terms)).is_zero
    assert normal_form(ideal, nf) == nf
    assert ideal.membership(nf - e).is_member


@examples
@given(presets, elements(2), st.lists(products, min_size=1, max_size=2))
def test_the_normal_form_is_constant_on_cosets(name, terms, member_terms):
    # constant takes the bounded path, where e and e + m may derive
    # different word bounds; its map absorbs a word that crosses a letter,
    # so a larger bound adds only duplicate columns and the forms still agree
    ideal = IDEALS[name]
    e = element(terms)
    m = combination(ideal, member_terms)
    assert normal_form(ideal, e + m) == normal_form(ideal, e)


@examples
@given(presets, st.sampled_from(SMALL_SCALARS), sides, elements(1))
def test_q_leibniz_holds_modulo_the_ideal(name, c, side, terms):
    # omega is a monomial, so grade-homogeneous; the defect has grade <= 4
    omega = monomial(side).scale(c)
    theta = element(terms)
    inst = check_q_leibniz(IDEALS[name], omega, theta)
    assert inst.verdict == "pass", inst.to_dict()
