"""Property tests of the membership oracle on the three presets at n = 2,
on a scalar-diagonal map, and on the bounded path of the quadratic map.

Each :class:`Ideal` is built once for the module, so the systems one
example builds are reused by the next.  Queries stay at grade <= 4 and
word degree <= 2, where a system has at most a few hundred columns.

The residual of a verdict is the normal form modulo the ideal: zero for
members, idempotent, congruent to the query, the same on a coset, and the
same whatever set spans the ideal's bidegrees.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.config import SessionConfig, build_map
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.differential import d_power
from dcubed.ideal import Bounds, Ideal, _Echelon, _devectorize, _vectorize
from dcubed.verify import check_q_leibniz

from conftest import (
    PRESET_NAMES, SCALAR_DIAGONAL, SMALL_SCALARS, normal_form, quadratic_map,
    products as all_products,
)

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


def elements(size, word_len=1):
    """Sums of c * letters * word, with at most `size` dx or d2x letters
    and words of at most `word_len` letters."""
    letters = st.lists(st.tuples(st.integers(1, 2), st.integers(1, N)),
                       max_size=size).map(tuple)
    word = st.lists(st.integers(1, N), max_size=word_len).map(tuple)
    return st.lists(st.tuples(st.sampled_from(SMALL_SCALARS), letters, word),
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


# Right-only maps reduce each right word of a bidegree against one letter
# system of word degree 0.  The reference spans each bidegree (grade, w)
# with every product L * g * R of it, left words included, in one echelon
# of its own; the normal form does not depend on the spanning set.
RIGHT_ONLY = {name: IDEALS[name] for name in ("commutative", "scalar-twist")}
RIGHT_ONLY["scalar-diagonal"] = Ideal(Calculus(build_map(
    SessionConfig(n=N, xi_entries=SCALAR_DIAGONAL))))
REFERENCE = {}  # (map name, grade, word degree) -> _Echelon of every product


def reference_normal_form(name, e):
    """The normal form of e against the reference echelons, as a vector."""
    keys, parts, rest = {}, {}, {}
    for key, coeff in _vectorize(e, keys).items():
        (grade, _, _), (wdeg, _) = key
        parts.setdefault((grade, wdeg), {})[key] = coeff
    for (grade, wdeg), part in parts.items():
        echelon = REFERENCE.get((name, grade, wdeg))
        if echelon is None:
            echelon = REFERENCE[name, grade, wdeg] = _Echelon()
            for product in all_products(RIGHT_ONLY[name], grade, (wdeg,)):
                echelon.insert(_vectorize(product, keys), None)
        _, remainder = echelon.express(part)
        rest.update(remainder or {})
    return rest


@examples
@given(st.sampled_from(sorted(RIGHT_ONLY)),
       st.one_of(st.just([]), elements(2, word_len=2)),
       st.lists(products, min_size=1, max_size=2))
def test_letter_systems_agree_with_every_product(name, terms, member_terms):
    ideal = RIGHT_ONLY[name]
    query = element(terms) + combination(ideal, member_terms)
    verdict = ideal.membership(query)
    rest = reference_normal_form(name, query)
    assert verdict.status == ("not_member_at_bound" if rest else "member")
    if rest:
        assert verdict.residual == _devectorize(rest, N)
    else:
        assert ideal.expand_witness(verdict.witness) == query


# The bounded path: the quadratic map at word bound 1, where a system of
# grade <= 4 has at most 500 columns.
QUADRATIC = Ideal(Calculus(quadratic_map()), Bounds(word_bound=1))


@examples
@given(elements(2))
def test_the_bounded_residual_is_a_normal_form(terms):
    e = element(terms)
    nf = normal_form(QUADRATIC, e)
    assert normal_form(QUADRATIC, nf) == nf
    verdict = QUADRATIC.membership(e - nf)
    assert verdict.is_member
    assert QUADRATIC.expand_witness(verdict.witness) == e - nf
