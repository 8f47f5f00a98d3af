import random

import pytest

from dcubed.scalar import Q, q_power, q_integer
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement
from dcubed.differential import d, d_power

from conftest import PRESET_NAMES, random_algebra, random_tensor, x


# Closed-form differentials of a structure-map entry e = m(x^i)[k][j]: the
# expansion that iterating d on the grade-0 element e gives, written out
# from derivatives alone.  They are the independent reference d_power is
# checked against; the library builds the ideal generators through d.

def entry_d1(calc, i, j, k):
    """dx^l D_l(e)."""
    e = calc.bmap.entry(i, j, k)
    return TensorElement(calc.n, {((1, l),): dl for l, dl in calc.gradient(e)})


def entry_d2(calc, i, j, k):
    """d^2 x^l D_l(e) + q dx^l (x) dx^m D_m(D_l(e))."""
    e = calc.bmap.entry(i, j, k)
    out = calc.d2_tilde(e)
    for l, dl in calc.gradient(e):
        for m, dml in calc.gradient(dl):
            out._accumulate(((1, l), (1, m)), dml.scale(Q))
    return out


def entry_d3(calc, i, j, k):
    """q[2]_q d^2x^l (x) dx^m D_m D_l(e) + q^2 dx^l (x) d^2x^m D_m D_l(e)
    + dx^l (x) dx^m (x) dx^p D_p D_m D_l(e)."""
    e = calc.bmap.entry(i, j, k)
    out = TensorElement(calc.n)
    w21 = Q * q_integer(2)
    w12 = q_power(2)
    for l, dl in calc.gradient(e):
        for m, dml in calc.gradient(dl):
            out._accumulate(((2, l), (1, m)), dml.scale(w21))
            out._accumulate(((1, l), (2, m)), dml.scale(w12))
            for p, dpml in calc.gradient(dml):
                out._accumulate(((1, l), (1, m), (1, p)), dpml)
    return out


def second_iterate_oracle(calc, u):
    """d^2 u built directly from derivatives:
    order-2 coordinate differential plus q dx^i (x) dx^j D_j(D_i(u))."""
    out = calc.d2_tilde(u)
    for i, di in calc.gradient(u):
        for j, dji in calc.gradient(di):
            out = out + TensorElement.monomial(2, ((1, i), (1, j)), dji.scale(Q))
    return out


def third_iterate_oracle(calc, u):
    """d^3 u built directly from derivatives:
    q[2]_q d^2x^i (x) dx^j D_j D_i(u) + q^2 dx^i (x) d^2x^j D_j D_i(u)
    + dx^i (x) dx^j (x) dx^k D_k D_j D_i(u)."""
    out = TensorElement.zero(calc.n)
    w21 = Q * q_integer(2)
    w12 = q_power(2)
    for i, di in calc.gradient(u):
        for j, dji in calc.gradient(di):
            out = out + TensorElement.monomial(2, ((2, i), (1, j)), dji.scale(w21))
            out = out + TensorElement.monomial(2, ((1, i), (2, j)), dji.scale(w12))
            for k, dkji in calc.gradient(dji):
                out = out + TensorElement.monomial(2, ((1, i), (1, j), (1, k)), dkji)
    return out


def test_generator_tower(preset_calc):
    calc = preset_calc
    for i in (1, 2):
        xi = TensorElement.of_algebra(x(2, i))
        dxi = TensorElement.of_letter(2, 1, i)
        d2xi = TensorElement.of_letter(2, 2, i)
        assert d(calc, xi) == dxi
        assert d(calc, dxi) == d2xi
        assert d(calc, d2xi).is_zero
        assert d_power(calc, xi, 3).is_zero


def test_unit_is_closed(preset_calc):
    one = TensorElement.of_algebra(AlgebraElement.one(2))
    for k in (1, 2, 3):
        assert d_power(preset_calc, one, k).is_zero


def test_two_letter_word_with_unit_coefficient(preset_calc):
    # d(dx1 (x) dx2) = d^2x1 (x) dx2 + q dx1 (x) d^2x2; the tail term dies
    # because the coefficient is 1
    w = TensorElement.monomial(2, ((1, 1), (1, 2)), AlgebraElement.one(2))
    expected = TensorElement.monomial(2, ((2, 1), (1, 2)), AlgebraElement.one(2)) \
        + TensorElement.monomial(2, ((1, 1), (2, 2)), AlgebraElement.one(2)).scale(Q)
    assert d(preset_calc, w) == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_second_iterate_matches_oracle(name):
    calc = Calculus(preset_map(name, 2))
    rng = random.Random(53)
    for _ in range(20):
        u = random_algebra(rng, 2, max_len=3)
        assert d_power(calc, TensorElement.of_algebra(u), 2) \
            == second_iterate_oracle(calc, u)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_third_iterate_matches_oracle(name):
    calc = Calculus(preset_map(name, 2))
    rng = random.Random(59)
    for _ in range(20):
        u = random_algebra(rng, 2, max_len=3)
        assert d_power(calc, TensorElement.of_algebra(u), 3) \
            == third_iterate_oracle(calc, u)


def test_third_iterate_not_zero_raw():
    # the raw tensor algebra is *not* closed under d^3: nonzero somewhere
    for name in PRESET_NAMES:
        calc = Calculus(preset_map(name, 2))
        u = TensorElement.of_algebra(x(2, 1, 2, 1))
        assert not d_power(calc, u, 3).is_zero


def test_grade_raising(preset_calc):
    rng = random.Random(61)
    for _ in range(20):
        w = random_tensor(rng, 2, max_grade=3)
        g = w.homogeneous_grade()
        out = d(preset_calc, w)
        if g is not None and not out.is_zero:
            assert out.homogeneous_grade() == g + 1


def test_linearity(preset_calc):
    rng = random.Random(67)
    for _ in range(20):
        w, t = random_tensor(rng, 2), random_tensor(rng, 2)
        assert d(preset_calc, w.scale(Q) + t) \
            == d(preset_calc, w).scale(Q) + d(preset_calc, t)


def test_entry_expansions_match_iterated_differential(preset_calc):
    calc = preset_calc
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                e = TensorElement.of_algebra(calc.bmap.entry(i, j, k))
                if e.is_zero:
                    assert entry_d1(calc, i, j, k).is_zero
                    assert entry_d2(calc, i, j, k).is_zero
                    assert entry_d3(calc, i, j, k).is_zero
                    continue
                assert entry_d1(calc, i, j, k) == d(calc, e)
                assert entry_d2(calc, i, j, k) == d_power(calc, e, 2)
                assert entry_d3(calc, i, j, k) == d_power(calc, e, 3)


def test_entry_d1_commutative(commutative_calc):
    # entries are delta^j_k x^i, so their differential is delta^j_k dx^i
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                got = entry_d1(commutative_calc, i, j, k)
                if j == k:
                    assert got == TensorElement.of_letter(2, 1, i)
                else:
                    assert got.is_zero


def test_entry_d3_constant_preset():
    calc = Calculus(preset_map("constant", 2))
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                assert entry_d3(calc, i, j, k).is_zero


def test_iteration_count_validated(preset_calc):
    with pytest.raises(ValueError):
        d_power(preset_calc, TensorElement.of_algebra(x(2, 1)), 0)
