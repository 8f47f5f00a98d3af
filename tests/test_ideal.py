import random

import pytest

from dcubed.scalar import ONE, Q, q_power
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.differential import d, d_power
from dcubed.ideal import Bounds, Ideal, FAMILY_GRADES

from conftest import PRESET_NAMES, normal_form, random_tensor, x


@pytest.fixture(params=PRESET_NAMES)
def preset_ideal(request):
    return Ideal(Calculus(preset_map(request.param, 2)))


@pytest.fixture
def commutative_ideal():
    return Ideal(Calculus(preset_map("commutative", 2)))


def mono(n, dword, coeff=None):
    return TensorElement.monomial(n, dword, coeff or AlgebraElement.one(n))


def test_commutative_dx_dx_generator(commutative_ideal):
    # entries are delta^j_k x^i, so d(e_k) = delta^j_k dx^i, d^2(e_k) =
    # delta^j_k d^2x^i and d^3(e_k) = 0; each family is expanded by hand
    gen = commutative_ideal.generator_element
    assert gen("dx_dx", 1, 2) == \
        mono(2, ((1, 1), (1, 2))) - mono(2, ((1, 2), (1, 1))).scale(Q)
    assert gen("dx_d2x", 1, 2) == \
        mono(2, ((1, 1), (2, 2))) - mono(2, ((2, 2), (1, 1))).scale(q_power(2))
    assert gen("d2x_dx", 1, 2) == mono(2, ((2, 1), (1, 2))) \
        + mono(2, ((2, 2), (1, 1))).scale(ONE - Q) \
        - mono(2, ((1, 2), (2, 1))).scale(q_power(2))
    for k in (1, 2):
        assert gen("entry_d3", 1, 2, k).is_zero
    assert gen("d2x_d2x", 1, 2) == \
        mono(2, ((2, 1), (2, 2))) - mono(2, ((2, 2), (2, 1))).scale(Q)


def test_quadratic_entry_d3_generator():
    # e = entry(1, 1, 1) = x1 x1: every D_2 vanishes, D_1 e = x1 + x1 x1 and
    # D_1 D_1 e = D_1 D_1 D_1 e = 1 + x1 + x1 x1 =: s; with q[2]_q = -1,
    # d^3 e = -d^2x1 dx1 s + q^2 dx1 d^2x1 s + dx1 dx1 dx1 s
    ideal = Ideal(Calculus(quadratic_map()))
    s = AlgebraElement.one(2) + x(2, 1) + x(2, 1, 1)
    expected = mono(2, ((1, 1), (2, 1)), s).scale(q_power(2)) \
        - mono(2, ((2, 1), (1, 1)), s) + mono(2, ((1, 1), (1, 1), (1, 1)), s)
    assert ideal.generator_element("entry_d3", 1, 1, 1) == expected
    assert ideal.generator_element("entry_d3", 1, 1, 2).is_zero


def test_generator_element_validation(commutative_ideal):
    with pytest.raises(ValueError):
        commutative_ideal.generator_element("dx_dy", 1, 2)
    for k in (None, 0, 3):
        with pytest.raises(ValueError):
            commutative_ideal.generator_element("entry_d3", 1, 2, k)


def test_constant_preset_degenerate_families():
    ideal = Ideal(Calculus(preset_map("constant", 2)))
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                assert ideal.generator_element("entry_d3", i, j, k).is_zero
            # scalar entries make every derivative vanish: pure patterns remain
            assert ideal.generator_element("dx_dx", i, j) == mono(2, ((1, i), (1, j)))
            assert ideal.generator_element("d2x_d2x", i, j) == mono(2, ((2, i), (2, j)))


def test_generator_grades(preset_ideal):
    for gen in preset_ideal.all_generators():
        assert gen.element.homogeneous_grade() == FAMILY_GRADES[gen.family]
    listing = preset_ideal.generators_for(1, 2)
    assert [g.family for g in listing] == [
        "dx_dx", "dx_d2x", "d2x_dx", "entry_d3", "entry_d3", "d2x_d2x"]


def test_raw_differentials_of_generators(preset_ideal):
    # the differentials of the grade-2 and grade-3 pattern generators are
    # exact combinations of higher generators; these identities pin both the
    # generator formulas and the operator conventions at once
    ideal = preset_ideal
    calc = ideal.calc
    for i in (1, 2):
        for j in (1, 2):
            g_dx_dx = ideal.generator_element("dx_dx", i, j)
            g_dx_d2x = ideal.generator_element("dx_d2x", i, j)
            g_d2x_dx = ideal.generator_element("d2x_dx", i, j)
            g_d2x_d2x = ideal.generator_element("d2x_d2x", i, j)
            assert d(calc, g_dx_dx) == g_d2x_dx + g_dx_d2x.scale(Q)
            assert d(calc, g_dx_d2x) == g_d2x_d2x
            correction = TensorElement.zero(2)
            for k in (1, 2):
                correction = correction + tensor_mul(
                    calc.bmap, mono(2, ((1, k),)),
                    ideal.generator_element("entry_d3", i, j, k))
            assert d(calc, g_d2x_dx) == g_d2x_d2x.scale(q_power(2)) - correction


def test_single_generator_is_member(preset_ideal):
    for gen in preset_ideal.all_generators():
        verdict = preset_ideal.membership(gen.element)
        assert verdict.is_member
        assert len(verdict.witness) == 1
        term = verdict.witness[0]
        assert term.coeff == ONE
        assert term.left_dword == () and term.right_dword == ()
        assert term.left_word == () and term.right_word == ()
        assert (term.family, term.i, term.j, term.k) == \
            (gen.family, gen.i, gen.j, gen.k)


def test_left_multiple_stays_in_ideal(commutative_ideal):
    gen = commutative_ideal.generator_element("dx_dx", 1, 2)
    shifted = tensor_mul(commutative_ideal.calc.bmap, mono(2, ((1, 1),)), gen)
    verdict = commutative_ideal.membership(shifted)
    assert verdict.is_member
    assert commutative_ideal.expand_witness(verdict.witness) == shifted


def test_word_multiple_stays_in_ideal(preset_ideal):
    gen = preset_ideal.generator_element("dx_dx", 1, 1)
    u = TensorElement.of_algebra(x(2, 2))
    shifted = tensor_mul(preset_ideal.calc.bmap, u, gen)
    if shifted.is_zero:
        return
    verdict = preset_ideal.membership(shifted)
    assert verdict.is_member
    assert preset_ideal.expand_witness(verdict.witness) == shifted


def test_third_iterate_of_word_is_member():
    ideal = Ideal(Calculus(preset_map("commutative", 2)), Bounds(word_bound=2))
    e = d_power(ideal.calc, TensorElement.of_algebra(x(2, 1, 2)), 3)
    verdict = ideal.membership(e)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == e


def test_zero_is_member(preset_ideal):
    verdict = preset_ideal.membership(TensorElement.zero(2))
    assert verdict.is_member and verdict.witness == []


def test_non_members(commutative_ideal):
    for e in (mono(2, ((1, 1),)),             # grade 1: ideal starts at grade 2
              mono(2, ((2, 1),)),             # second-order letters are not relations
              TensorElement.of_algebra(x(2, 1))):  # grade 0
        verdict = commutative_ideal.membership(e)
        assert verdict.status == "not_member_at_bound"
        assert verdict.residual is not None and not verdict.residual.is_zero


def test_residual_is_exact(commutative_ideal):
    # member part gets absorbed, the alien letter survives verbatim
    gen = commutative_ideal.generator_element("dx_dx", 1, 2)
    e = gen + mono(2, ((2, 1),))
    verdict = commutative_ideal.membership(e)
    assert verdict.status == "not_member_at_bound"
    assert verdict.residual == mono(2, ((2, 1),))


def test_size_cap_reports_bound_exceeded():
    ideal = Ideal(Calculus(preset_map("commutative", 2)), Bounds(size_cap=1))
    gen = ideal.generator_element("dx_dx", 1, 2)
    shifted = tensor_mul(ideal.calc.bmap, mono(2, ((1, 1),)), gen)
    verdict = ideal.membership(shifted)
    assert verdict.status == "bound_exceeded"


# Candidate columns of the one system dx1 * dx_dx(1,2) * x1 needs: grade 3
# from 24 (generator, left letters, right letters) shapes, times the word
# pairs of total length 1 (bigraded: 4) or of length at most 1 (bounded: 5).
@pytest.mark.parametrize("name, columns", [("commutative", 96), ("constant", 120)])
def test_size_cap_boundary(name, columns):
    calc = Calculus(preset_map(name, 2))
    bmap = calc.bmap
    gen = Ideal(calc).generator_element("dx_dx", 1, 2)
    query = tensor_mul(bmap, tensor_mul(bmap, mono(2, ((1, 1),)), gen),
                       TensorElement.of_algebra(x(2, 1)))
    assert Ideal(calc, Bounds(size_cap=columns)).membership(query).is_member
    assert Ideal(calc, Bounds(size_cap=columns - 1)).membership(query).status \
        == "bound_exceeded"


def test_membership_word_bound_limits():
    calc = Calculus(preset_map("commutative", 2))
    gen = Ideal(calc).generator_element("dx_dx", 1, 1)
    deep = tensor_mul(calc.bmap, TensorElement.of_algebra(x(2, 1, 2)), gen)
    assert Ideal(calc, Bounds(word_bound=0)).membership(deep).status \
        == "not_member_at_bound"
    assert Ideal(calc, Bounds(word_bound=2)).membership(deep).is_member


def test_reduce_zero(preset_ideal):
    assert normal_form(preset_ideal, TensorElement.zero(2)).is_zero
    for gen in preset_ideal.all_generators():
        assert normal_form(preset_ideal, gen.element.scale(Q)).is_zero


def test_reduce_stays_congruent(preset_ideal):
    rng = random.Random(71)
    for _ in range(6):
        e = random_tensor(rng, 2, max_grade=3, max_word_len=1, max_terms=2)
        diff = normal_form(preset_ideal, e) - e
        assert preset_ideal.membership(diff).is_member


def test_reduce_idempotent(preset_ideal):
    rng = random.Random(73)
    for _ in range(6):
        e = random_tensor(rng, 2, max_grade=3, max_word_len=1, max_terms=2)
        once = normal_form(preset_ideal, e)
        assert normal_form(preset_ideal, once) == once


def test_three_generators():
    ideal = Ideal(Calculus(preset_map("commutative", 3)))
    e = d_power(ideal.calc, TensorElement.of_algebra(
        AlgebraElement.monomial(3, (1, 3))), 3)
    verdict = ideal.membership(e)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == e


def quadratic_map():
    # entries delta^j_k x^i x^i: degree 2, so the bigraded fast path is off
    gen = []
    for i in (1, 2):
        sq = x(2, i, i)
        gen.append([[sq if k == j else AlgebraElement.zero(2)
                     for j in range(2)] for k in range(2)])
    return BimoduleMap(2, gen)


def test_nonlinear_map_uses_bounded_path():
    ideal = Ideal(Calculus(quadratic_map()))
    assert ideal.calc.bmap.uniform_entry_degree() == 2
    gen = ideal.generator_element("dx_dx", 1, 2)
    image = d(ideal.calc, gen)
    verdict = ideal.membership(image)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == image


def test_nonlinear_map_congruence_for_words():
    # the bounded path must still certify a non-trivial congruence
    ideal = Ideal(Calculus(quadratic_map()))
    e = d_power(ideal.calc, TensorElement.of_algebra(x(2, 1, 2)), 3)
    verdict = ideal.membership(e)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == e
