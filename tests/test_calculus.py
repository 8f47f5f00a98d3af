import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

import dcubed.bimodule
from dcubed.freealg import AlgebraElement, TermLimitError
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.differential import d
from dcubed.ideal import Ideal
from dcubed.scalar import q_power
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.verify import run_suite

from conftest import MAPS, NON_DIAGONAL_MAPS, PRESET_NAMES, random_algebra, x


def test_derivative_of_generators_and_unit(preset_calc):
    calc = preset_calc
    for k in (1, 2):
        for i in (1, 2):
            expected = AlgebraElement.one(2) if i == k else AlgebraElement.zero(2)
            assert calc.partial(k, x(2, i)) == expected
        assert calc.partial(k, AlgebraElement.one(2)).is_zero
    # the gradient holds the nonzero (k, D_k) pairs only, the form push returns
    for i in (1, 2):
        assert calc.gradient(x(2, i)) == [(i, AlgebraElement.one(2))]
    assert calc.gradient(AlgebraElement.one(2)) == []
    assert calc.gradient(AlgebraElement.zero(2)) == []


def test_commutative_square_derivative(commutative_calc):
    # D_1(x1 x1) = D_1(x1) x1 + entry(1,j,1) D_j(x1) = x1 + x1 = 2 x1
    assert commutative_calc.partial(1, x(2, 1, 1)) == x(2, 1).scale(2)
    assert commutative_calc.partial(2, x(2, 1, 1)).is_zero
    # D_1 and D_2 of x1 x2 - x2 x1 cancel, so neither pair is left
    assert commutative_calc.gradient(x(2, 1, 2) - x(2, 2, 1)) == []


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
    # D_2 is zero, so it is absent from the pairs
    grad = commutative_calc.gradient(x(2, *([1] * 1500)))
    assert grad == [(1, x(2, *([1] * 1499)).scale(1500))]


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
    assert grad == [(k, AlgebraElement(2, ((word[:p] + word[p + 1:], q_power(p))
                                           for p in range(len(word)) if word[p] == k)))
                    for k in (1, 2)]
    assert peak < 16 * 2**20


# -- the gradient memo --------------------------------------------------------

def reference_gradient(bmap, v):
    """The closed form D_k(w) = sum_p m(w[:p])[k][w[p]] w[p+1:], each prefix
    matrix read from :meth:`BimoduleMap.matrix`, as a {k: D_k(v)} dict."""
    n = v.n
    out = {k: AlgebraElement.zero(n) for k in range(1, n + 1)}
    for word, coeff in v.terms.items():
        for p, letter in enumerate(word):
            prefix = bmap.matrix(AlgebraElement.monomial(n, word[:p]))
            rest = AlgebraElement.monomial(n, word[p + 1:], coeff)
            for k in out:
                out[k] = out[k] + prefix[k - 1][letter - 1] * rest
    return {k: dk for k, dk in out.items() if dk}


def assert_gradient_memo_is_fresh(calc, make_map):
    """Every stored word gradient still equals the reference on a fresh map."""
    fresh = make_map()
    for word, pairs in calc._gradients.items():
        assert {k: dict(terms) for k, terms in pairs} == {
            k: dk.terms for k, dk in reference_gradient(fresh, x(calc.n, *word)).items()}


@pytest.mark.parametrize("name", MAPS)
def test_warm_gradient_memo_equals_cold_and_reference(name):
    warm = Calculus(MAPS[name]())
    rng = random.Random(53)
    elements = [random_algebra(rng, warm.n, max_len=4) for _ in range(15)]
    assert any(len(v.terms) > 1 for v in elements)
    for _ in range(2):  # the second round reads only memo entries
        for v in elements:
            got = warm.gradient(v)
            assert got == Calculus(MAPS[name]()).gradient(v)
            assert dict(got) == reference_gradient(MAPS[name](), v)
            assert [k for k, _ in got] == sorted(k for k, _ in got)
    assert warm._gradients
    assert_gradient_memo_is_fresh(warm, MAPS[name])


def test_each_word_is_walked_once(monkeypatch):
    # a whole n=2 suite differentiates many coefficients, each word of them
    # walked over its prefixes once however often it comes back
    calls = Counter()
    original = BimoduleMap.prefix_columns

    def counted(bmap, word):
        if sys._getframe(1).f_globals["__name__"] == "dcubed.calculus":
            calls[word] += 1
        return original(bmap, word)

    monkeypatch.setattr(BimoduleMap, "prefix_columns", counted)
    ideal = Ideal(Calculus(preset_map("commutative", 2)))
    assert run_suite(ideal, ("all",)).exit_code == 0
    memo = ideal.calc._gradients
    assert len(calls) > 20 and max(calls.values()) == 1
    assert set(calls) == set(memo)
    assert memo.terms <= dcubed.bimodule.CACHE_TERMS


def test_gradient_memo_budget(monkeypatch):
    # a full memo answers the words it holds and stores nothing more
    rng = random.Random(59)
    make_map = NON_DIAGONAL_MAPS["twisted"]
    elements = [random_algebra(rng, 2, max_len=5) for _ in range(40)]
    expected = [reference_gradient(make_map(), v) for v in elements]
    monkeypatch.setattr(dcubed.bimodule, "CACHE_TERMS", 50)
    calc = Calculus(make_map())
    for _ in range(2):
        for v, grad in zip(elements, expected):
            assert dict(calc.gradient(v)) == grad
            memo = calc._gradients
            assert memo.terms <= 50
            assert memo.terms == sum(len(terms) for pairs in memo.values() for _, terms in pairs)
    held = dict(calc._gradients)
    assert held and len(held) < len({w for v in elements for w in v.terms})
    for v in elements:
        calc.gradient(v)
        for word in v.terms:
            if word in held:
                assert calc._word_gradient(word) is held[word]
    assert calc._gradients == held
    assert_gradient_memo_is_fresh(calc, make_map)


def test_term_cap_is_kept_and_nothing_partial_stored():
    # the prefix matrices of a power of x1 x2 pass MAX_TERMS under the twisted
    # map: d raises on every call, and no partial gradient is stored
    calc = Calculus(NON_DIAGONAL_MAPS["twisted"]())
    power = TensorElement.of_algebra(x(2, *([1, 2] * 10)))
    for _ in range(2):
        with pytest.raises(TermLimitError):
            d(calc, power)
    assert not calc._gradients


def test_long_session_keeps_every_cache_bounded():
    # one calculus differentiates and multiplies every word of length 6 over
    # n=3: far more than the budget, which each of the three caches keeps.
    # CPython 3.11 retains 1.49 MB, and 3.16 MB with unbounded caches
    budget = dcubed.bimodule.CACHE_TERMS
    tracemalloc.start()
    try:
        calc = Calculus(preset_map("commutative", 3))
        bmap = calc.bmap
        for word in itertools.product((1, 2, 3), repeat=6):
            t = TensorElement.of_algebra(AlgebraElement.monomial(3, word))
            tensor_mul(bmap, t, d(calc, t))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    caches = (bmap._word_cache, bmap._crossings, calc._gradients)
    assert all(budget - 10 < cache.terms <= budget for cache in caches)
    assert retained < 2 * 2**20
