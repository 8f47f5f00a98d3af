import random
from collections import Counter

import pytest

import dcubed.bimodule
import dcubed.tensoralg
from dcubed.scalar import Q
from dcubed.freealg import MAX_TERMS, AlgebraElement, TermLimitError
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.ideal import Ideal
from dcubed.tensoralg import (
    TensorElement, tensor_mul, push_through, dword_grade,
)
from dcubed.verify import run_suite

from conftest import MAPS, NON_DIAGONAL_MAPS, PRESET_NAMES, quadratic_map, random_tensor, x


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


# -- the crossing memo ----------------------------------------------------------

def reference_mul(bmap, w, t):
    """w * t with each whole coefficient of w pushed through at once."""
    out = TensorElement.zero(w.n)
    for w1, r in w.terms.items():
        for w2, s in t.terms.items():
            for mid, pushed in push_through(bmap, r, w2).terms.items():
                out = out + TensorElement.monomial(w.n, w1 + mid, pushed * s)
    return out


def random_pairs(n, seed, count=12):
    rng = random.Random(seed)
    return [(random_tensor(rng, n, max_grade=2, max_word_len=2, max_terms=3),
             random_tensor(rng, n, max_grade=2, max_word_len=1, max_terms=2))
            for _ in range(count)]


def assert_memo_is_fresh(bmap, make_map):
    """Every stored crossing and word still equals a cold computation."""
    fresh = make_map()
    for (word, dword), pairs in bmap._crossings.items():
        assert {mid: dict(terms) for mid, terms in pairs} == {
            mid: coeff.terms for mid, coeff in push_through(
                fresh, x(bmap.n, *word), dword).terms.items()}
    for word, columns in bmap._word_cache.items():
        assert columns == fresh._word_columns(word)


@pytest.mark.parametrize("name", MAPS)
def test_warm_memo_equals_cold_and_reference(name):
    warm = MAPS[name]()
    n = warm.n
    pairs = random_pairs(n, 41)
    assert any(len(r.terms) > 1 for w, _ in pairs for r in w.terms.values())
    for _ in range(2):  # the second round reads only memo entries
        for w, t in pairs:
            got = tensor_mul(warm, w, t)
            assert got == tensor_mul(MAPS[name](), w, t)
            assert got == reference_mul(warm, w, t)
    assert warm._crossings
    assert_memo_is_fresh(warm, MAPS[name])


def test_each_crossing_is_pushed_once(monkeypatch):
    # the member-bounded systems on the quadratic map: every (word, dword)
    # crosses once, however many columns share it
    calls = Counter()
    original = dcubed.tensoralg.push_through

    def counted(bmap, u, dword):
        calls[tuple(u.terms), dword] += 1
        return original(bmap, u, dword)

    monkeypatch.setattr(dcubed.tensoralg, "push_through", counted)
    ideal = Ideal(Calculus(quadratic_map()))
    for key in ((2, 4), (2, 5), (3, 4)):
        ideal._system(*key)
    assert calls and max(calls.values()) == 1
    assert all(len(words) == 1 for words, _ in calls)
    assert len(ideal.calc.bmap._crossings) == len(calls)


def test_memo_budget_bounds_stored_terms(monkeypatch):
    monkeypatch.setattr(dcubed.bimodule, "CACHE_TERMS", 40)
    make_map = NON_DIAGONAL_MAPS["twisted"]
    bmap = make_map()
    for w, t in random_pairs(2, 43, count=20):
        assert tensor_mul(bmap, w, t) == reference_mul(make_map(), w, t)
        memo = bmap._crossings
        assert memo.terms <= 40
        assert memo.terms == sum(len(terms) for pairs in memo.values() for _, terms in pairs)
    assert bmap._crossings
    assert_memo_is_fresh(bmap, make_map)


def test_memo_after_a_full_suite_is_unchanged():
    ideal = Ideal(Calculus(preset_map("commutative", 2)))
    report = run_suite(ideal, ("all",), max_word_len=1)
    assert report.exit_code == 0
    assert ideal.calc.bmap._crossings
    assert_memo_is_fresh(ideal.calc.bmap, lambda: preset_map("commutative", 2))


def test_term_cap_counts_the_whole_coefficient():
    # each of the 4097 words crosses dx1 to one term; together they pass the cap
    n = 2
    words = [tuple(1 + (k >> b & 1) for b in range(13)) for k in range(MAX_TERMS + 1)]
    r = AlgebraElement(n, {word: 1 for word in words})
    bmap = preset_map("commutative", n)
    with pytest.raises(TermLimitError):
        tensor_mul(bmap, TensorElement.of_algebra(r), dx(n, 1))
    under = AlgebraElement(n, {word: 1 for word in words[:MAX_TERMS]})
    assert tensor_mul(bmap, TensorElement.of_algebra(under), dx(n, 1)).size() == MAX_TERMS
