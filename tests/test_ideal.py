import hashlib
import itertools
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from dcubed.scalar import ONE, ZERO, Q, Scalar, q_power
from dcubed.freealg import MAX_TERMS, AlgebraElement, _Sparse
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.config import SessionConfig, build_map
from dcubed.tensoralg import TensorElement, dword_key, tensor_mul
from dcubed.differential import d, d_power
from dcubed import ideal as ideal_module
from dcubed.ideal import Bounds, Ideal, WitnessTerm, _Echelon, relations
from dcubed.parsing import parse_expression

from conftest import (
    DEGREE_ONE, NON_DIAGONAL_MAPS, PRESET_NAMES, RIGHT_ONLY_MAPS, SMALL_SCALARS,
    generator, normal_form, quadratic_map, random_tensor, x,
)


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
    gens = relations(commutative_ideal.calc, x(2, 1), 2)
    assert gens["dx_dx", None] == \
        mono(2, ((1, 1), (1, 2))) - mono(2, ((1, 2), (1, 1))).scale(Q)
    assert gens["dx_d2x", None] == \
        mono(2, ((1, 1), (2, 2))) - mono(2, ((2, 2), (1, 1))).scale(q_power(2))
    assert gens["d2x_dx", None] == mono(2, ((2, 1), (1, 2))) \
        + mono(2, ((2, 2), (1, 1))).scale(ONE - Q) \
        - mono(2, ((1, 2), (2, 1))).scale(q_power(2))
    for k in (1, 2):
        assert gens["entry_d3", k].is_zero
    assert gens["d2x_d2x", None] == \
        mono(2, ((2, 1), (2, 2))) - mono(2, ((2, 2), (2, 1))).scale(Q)


def test_quadratic_entry_d3_generator():
    # e = entry(1, 1, 1) = x1 x1: every D_2 vanishes, D_1 e = x1 + x1 x1 and
    # D_1 D_1 e = D_1 D_1 D_1 e = 1 + x1 + x1 x1 =: s; with q[2]_q = -1,
    # d^3 e = -d^2x1 dx1 s + q^2 dx1 d^2x1 s + dx1 dx1 dx1 s
    ideal = Ideal(Calculus(quadratic_map()))
    s = AlgebraElement.one(2) + x(2, 1) + x(2, 1, 1)
    expected = mono(2, ((1, 1), (2, 1)), s).scale(q_power(2)) \
        - mono(2, ((2, 1), (1, 1)), s) + mono(2, ((1, 1), (1, 1), (1, 1)), s)
    gens = relations(ideal.calc, x(2, 1), 1)
    assert gens["entry_d3", 1] == expected
    assert gens["entry_d3", 2].is_zero


def test_constant_preset_degenerate_families():
    ideal = Ideal(Calculus(preset_map("constant", 2)))
    for i in (1, 2):
        for j in (1, 2):
            gens = relations(ideal.calc, x(2, i), j)
            for k in (1, 2):
                assert gens["entry_d3", k].is_zero
            # scalar entries make every derivative vanish: pure patterns remain
            assert gens["dx_dx", None] == mono(2, ((1, i), (1, j)))
            assert gens["d2x_d2x", None] == mono(2, ((2, i), (2, j)))


def test_every_entry_checks_the_generator_count(commutative_ideal):
    calc, v = commutative_ideal.calc, x(3, 1)
    for call, arg in [(lambda u: calc.bmap.push(u, 1), v), (calc.gradient, v),
                      (lambda w: d(calc, w), TensorElement.of_algebra(v)),
                      (commutative_ideal.membership, TensorElement.of_letter(3, 1, 1))]:
        with pytest.raises(ValueError, match=r"element has 3 generators, \w+ has 2"):
            call(arg)


def test_generator_grades(preset_ideal):
    # the grades of the module docstring's table
    grades = {"dx_dx": 2, "dx_d2x": 3, "d2x_dx": 3, "entry_d3": 3, "d2x_d2x": 4}
    for gen in preset_ideal.all_generators():
        assert gen.element.homogeneous_grade() == gen.grade == grades[gen.family]
    listing = relations(preset_ideal.calc, x(2, 1), 2)
    assert [family for family, _ in listing] == [
        "dx_dx", "dx_d2x", "d2x_dx", "entry_d3", "entry_d3", "d2x_d2x"]
    # the table keeps the nonzero ones, pairs in lexicographic order
    pairs = itertools.product((1, 2), repeat=2)
    assert [(g.family, g.i, g.j, g.k) for g in preset_ideal.all_generators()] == [
        (family, i, j, k) for i, j in pairs
        for (family, k), element in relations(preset_ideal.calc, x(2, i), j).items()
        if element]


def test_generator_table_differentiates_only_pushed_entries(monkeypatch):
    # per pair (i, j): d(x^i) and d^2(x^i), then d, d^2 and d^3 of each
    # nonzero entry that push(x^i, j) returns -- one on commutative, so
    # 5 n^2 calls in all; differentiating every entry would make 2n^2 + 3n^3
    n = 6
    ideal = Ideal(Calculus(preset_map("commutative", n)))
    calls = []

    def counted(calc, w):
        calls.append(w)
        return d(calc, w)

    monkeypatch.setattr(ideal_module, "d", counted)
    ideal.all_generators()
    assert len(calls) == 5 * n * n
    # the entry_d3 residual of an entry push leaves out is a zero of its own
    rels = relations(ideal.calc, x(n, 1), 2)
    zeros = [rels["entry_d3", k] for k in range(1, n + 1)]
    assert all(z.is_zero for z in zeros)
    assert len({id(z) for z in zeros}) == n


def test_generator_table_builds_only_what_it_returns(monkeypatch):
    # one Generator per nonzero residual: 4 n^2 on commutative, where
    # building every residual of relations would make n^2 (n + 4)
    n = 6
    ideal = Ideal(Calculus(preset_map("commutative", n)))
    real, built = ideal_module.Generator, []

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(ideal_module, "Generator", counted)
    gens = ideal.all_generators()
    assert len(built) == len(gens) == 4 * n * n
    assert all(a is b for a, b in zip(built, gens))
    assert not any(gen.element.is_zero for gen in gens)


def test_generator_table_retains_little_memory():
    # 2304 generators of two or three terms each; the n^3 zero entry_d3
    # residuals are dropped as each pair is done
    ideal = Ideal(Calculus(preset_map("commutative", 24)))
    tracemalloc.start()
    try:
        gens = ideal.all_generators()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(gens) == 4 * 24 ** 2
    assert retained < 5 * 2 ** 20


def test_raw_differentials_of_generators(preset_ideal):
    # the differentials of the grade-2 and grade-3 pattern generators are
    # exact combinations of higher generators; these identities pin both the
    # generator formulas and the operator conventions at once
    ideal = preset_ideal
    calc = ideal.calc
    for i in (1, 2):
        for j in (1, 2):
            gens = relations(calc, x(2, i), j)
            g_dx_dx = gens["dx_dx", None]
            g_dx_d2x = gens["dx_d2x", None]
            g_d2x_dx = gens["d2x_dx", None]
            g_d2x_d2x = gens["d2x_d2x", None]
            assert d(calc, g_dx_dx) == g_d2x_dx + g_dx_d2x.scale(Q)
            assert d(calc, g_dx_d2x) == g_d2x_d2x
            correction = TensorElement.zero(2)
            for k in (1, 2):
                correction = correction + tensor_mul(
                    calc.bmap, mono(2, ((1, k),)), gens["entry_d3", k])
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
        assert term.generator is gen


@pytest.mark.parametrize("name", [*PRESET_NAMES, "quadratic"])
def test_witness_terms_hold_the_ideals_generators(name):
    # a generator takes the fast path and builds no system; dx1 * generator
    # is eliminated against one
    bmap = quadratic_map() if name == "quadratic" else preset_map(name, 2)
    ideal = Ideal(Calculus(bmap), Bounds(word_bound=1))
    gen = generator(ideal, "dx_dx", 1, 2)
    fast = ideal.membership(gen.element.scale(Q))
    assert fast.witness == [WitnessTerm((), (), gen, (), (), Q)] and not ideal._systems
    query = tensor_mul(bmap, mono(2, ((1, 1),)), gen.element)
    eliminated = ideal.membership(query)
    assert ideal._systems and ideal.expand_witness(eliminated.witness) == query
    for term in fast.witness + eliminated.witness:
        own = term.generator
        assert own is generator(ideal, own.family, own.i, own.j, own.k)


def near_misses(ideal, e):
    """Queries that share e's lead key but are no multiple of e: e plus one
    extra term and, when e has two terms or more, e with one coefficient
    doubled and e with every term but the lead tripled.  No generator of
    the test maps has two terms in the ratio 2 or 3, so none of these is a
    multiple of a generator."""
    yield e + mono(ideal.n, ((1, 1),))
    vec = ideal_module._vectorize(e, ideal._keys)
    lead, other = max(vec), min(vec)
    if other != lead:
        yield ideal_module._devectorize({**vec, other: vec[other] * 2}, ideal.n)
        yield ideal_module._devectorize(
            {key: value if key == lead else value * 3 for key, value in vec.items()}, ideal.n)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "quadratic"])
def test_fast_path_rejects_near_misses(name):
    bmap = quadratic_map() if name == "quadratic" else preset_map(name, 2)
    ideal = Ideal(Calculus(bmap), Bounds(word_bound=1))
    for gen in ideal.all_generators():
        for query in near_misses(ideal, gen.element.scale(Q)):
            assert ideal._scalar_multiple_of_generator(ideal_module._vectorize(
                query, ideal._keys)) is None
            verdict = ideal.membership(query)
            assert not (verdict.is_member and len(verdict.witness) == 1)
            if verdict.is_member:
                assert ideal.expand_witness(verdict.witness) == query


@pytest.mark.parametrize("name", [*PRESET_NAMES, "quadratic"])
def test_fast_path_scales_nothing(name, monkeypatch):
    # c * g comes back as c times g itself, and no element is scaled on the way
    bmap = quadratic_map() if name == "quadratic" else preset_map(name, 2)
    ideal = Ideal(Calculus(bmap), Bounds(word_bound=1))
    c = Scalar(Fraction(-2, 3), 1)
    queries = [gen.element.scale(c) for gen in ideal.all_generators()]

    def refuse(self, value):
        raise AssertionError("the fast path scaled an element")

    monkeypatch.setattr(_Sparse, "scale", refuse)
    witnesses = [ideal.membership(query).witness for query in queries]
    assert not ideal._systems
    monkeypatch.undo()
    for query, [term] in zip(queries, witnesses):
        assert term == WitnessTerm((), (), term.generator, (), (), term.coeff)
        assert term.generator.element.scale(term.coeff) == query


def test_left_multiple_stays_in_ideal(commutative_ideal):
    gen = relations(commutative_ideal.calc, x(2, 1), 2)["dx_dx", None]
    shifted = tensor_mul(commutative_ideal.calc.bmap, mono(2, ((1, 1),)), gen)
    verdict = commutative_ideal.membership(shifted)
    assert verdict.is_member
    assert commutative_ideal.expand_witness(verdict.witness) == shifted


def test_word_multiple_stays_in_ideal(preset_ideal):
    gen = relations(preset_ideal.calc, x(2, 1), 1)["dx_dx", None]
    u = TensorElement.of_algebra(x(2, 2))
    shifted = tensor_mul(preset_ideal.calc.bmap, u, gen)
    if shifted.is_zero:
        return
    verdict = preset_ideal.membership(shifted)
    assert verdict.is_member
    assert preset_ideal.expand_witness(verdict.witness) == shifted


def test_third_iterate_of_word_is_member():
    ideal = Ideal(Calculus(preset_map("commutative", 2)))
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
    gen = relations(commutative_ideal.calc, x(2, 1), 2)["dx_dx", None]
    e = gen + mono(2, ((2, 1),))
    verdict = commutative_ideal.membership(e)
    assert verdict.status == "not_member_at_bound"
    assert verdict.residual == mono(2, ((2, 1),))


@pytest.mark.parametrize("name", ["commutative", "quadratic"])
def test_membership_vectorizes_the_query_once(name, monkeypatch):
    # four components on commutative, two on the bounded path of quadratic:
    # each is read off the one vector, not vectorized again
    bmap = quadratic_map() if name == "quadratic" else preset_map(name, 2)
    ideal = Ideal(Calculus(bmap))
    query = parse_expression("d2x1 + d2x1 x1 + dx1 + dx1 x2", ideal.calc)
    cold = ideal.membership(query)  # builds the systems and generator leads
    vectorize, calls = ideal_module._vectorize, []

    def counted(e, keys):
        calls.append(e)
        return vectorize(e, keys)

    monkeypatch.setattr(ideal_module, "_vectorize", counted)
    warm = ideal.membership(query)
    assert calls == [query]
    assert warm.status == cold.status == "not_member_at_bound"
    assert warm.residual == cold.residual


def test_size_cap_reports_bound_exceeded():
    ideal = Ideal(Calculus(preset_map("commutative", 2)), Bounds(size_cap=1))
    gen = relations(ideal.calc, x(2, 1), 2)["dx_dx", None]
    shifted = tensor_mul(ideal.calc.bmap, mono(2, ((1, 1),)), gen)
    verdict = ideal.membership(shifted)
    assert verdict.status == "bound_exceeded"


def test_term_cap_in_a_column_reports_bound_exceeded():
    # on the non-diagonal quadratic map a column of the grade-4 system at
    # word bound 1 passes MAX_TERMS: the system is refused, and not cached
    ideal = Ideal(Calculus(NON_DIAGONAL_MAPS["quadratic"]()), Bounds(word_bound=1))
    verdict = ideal.membership(parse_expression("d2x1 d2x2", ideal.calc))
    assert verdict.status == "bound_exceeded"
    assert "grade 4, word bound 1" in verdict.detail
    assert f"MAX_TERMS = {MAX_TERMS}" in verdict.detail
    assert (4, 1) not in ideal._systems


# Columns enumerated for the one system dx1 * dx_dx(1,2) * x1 needs: grade
# 3 from generators with their left and right letters placed, times word
# pairs.  commutative (degree 1, scalar-diagonal) and constant (degree 0)
# are right-only: the query's word x1 reduces against the letter system
# (3, 0), its 24 placements with no word at all.
# degree-one (degree 1, not scalar-diagonal): 24 placements times the 4
# word pairs of total length 1, left words included.
# quadratic (bounded, word bound 1): 28 placements, entry_d3 being nonzero
# there, times the 5 word pairs of total length at most 1.
@pytest.mark.parametrize("name, columns", [("commutative", 24), ("constant", 24),
                                           ("degree-one", 96), ("quadratic", 140)])
def test_size_cap_boundary(name, columns):
    if name == "quadratic":
        bmap = quadratic_map()
    elif name == "degree-one":
        bmap = build_map(SessionConfig(n=2, xi_entries=DEGREE_ONE))
    else:
        bmap = preset_map(name, 2)
    word_bound = 1 if name == "quadratic" else None
    calc = Calculus(bmap)
    gen = relations(calc, x(2, 1), 2)["dx_dx", None]
    query = tensor_mul(bmap, tensor_mul(bmap, mono(2, ((1, 1),)), gen),
                       TensorElement.of_algebra(x(2, 1)))
    for cap, status in ((columns, "member"), (columns - 1, "bound_exceeded")):
        bounds = Bounds(word_bound=word_bound, size_cap=cap)
        assert Ideal(calc, bounds).membership(query).status == status


def dword_counts(n, top):
    """c_0 .. c_top, the numbers of dwords per grade: dx^i has grade 1 and
    d^2x^i grade 2, so c_g = n (c_{g-1} + c_{g-2})."""
    counts = [1, n]
    while len(counts) <= top:
        counts.append(n * (counts[-1] + counts[-2]))
    return counts[:top + 1]


# Over-cap systems at the default cap: each is refused from its closed-form
# count, before a placement, dword or product exists.
@pytest.mark.parametrize("n, expression, grade", [
    (4, "dx1 d2x2 d2x3 d2x4 dx1 dx2", 9),
    (12, "d2x1 d2x2 dx1", 5),
    (2, " ".join(["d2x1 d2x2"] * 5 + ["dx1"]), 21),
    (1, " ".join(["dx1"] * 40), 40),
])
def test_size_cap_refuses_before_building(n, expression, grade):
    ideal = Ideal(Calculus(preset_map("commutative", n)))
    ideal.all_generators()
    query = parse_expression(expression, ideal.calc)
    tracemalloc.start()
    try:
        verdict = ideal.membership(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "bound_exceeded"
    assert f"grade {grade}, word degree 0 exceeds" in verdict.detail
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dwords_of_grade_follow_dword_key(n):
    for grade, count in enumerate(dword_counts(n, 8)):
        keys = [dword_key(dword) for dword in ideal_module._dwords_of_grade(n, grade)]
        assert len(keys) == count
        assert all(a < b for a, b in zip(keys, keys[1:]))


# The columns a system walks, in closed form: per generator of grade h,
# sum_{g1} c_{g1} c_{grade-h-g1} placements, each met by the (left, right)
# word pairs of total length top (graded) or of every total up to the word
# bound top (bounded), (total + 1) n^total of each total.
@pytest.mark.parametrize("name, grade, top", [
    ("commutative", 3, 0), ("commutative", 4, 0), ("scalar-twist", 3, 0),
    ("scalar-twist", 4, 0), ("constant", 3, 0), ("constant", 4, 0),
    ("degree-one", 3, 1), ("quadratic", 3, 1),
])
def test_system_walks_its_closed_form_count(name, grade, top, monkeypatch):
    if name == "quadratic":
        ideal = Ideal(Calculus(quadratic_map()), Bounds(word_bound=top))
    elif name == "degree-one":
        ideal = Ideal(Calculus(build_map(SessionConfig(n=2, xi_entries=DEGREE_ONE))))
    else:
        ideal = Ideal(Calculus(preset_map(name, 2)))
    n, counts = ideal.n, dword_counts(ideal.n, grade)
    placements = sum(counts[g1] * counts[grade - gen.grade - g1]
                     for gen in ideal.all_generators()
                     for g1 in range(grade - gen.grade + 1))
    totals = range(top + 1) if name == "quadratic" else (top,)
    columns = placements * sum((total + 1) * n ** total for total in totals)
    calls = []
    insert = _Echelon.insert

    def counted(self, vec, column):
        calls.append(column)
        return insert(self, vec, column)

    monkeypatch.setattr(_Echelon, "insert", counted)
    assert ideal._system(grade, top) is not None
    assert len(calls) == columns > 0


# The minimal leading dwords of the letter systems (g, 0), g = 2..6: the
# pivot dwords with no proper contiguous factor that is itself a pivot
# dword, counted by letter count
MINIMAL_LEADS = {"permutation": {2: 29, 3: 5}, "twist": {2: 31, 3: 2}}


# dim Omega_{g,0} = |dwords of grade g| - rank of the letter system (g, 0),
# g = 2..6, on the two maps of RIGHT_ONLY_MAPS
@pytest.mark.parametrize("name, dims", [("permutation", [5, 4, 4, 3, 4]),
                                        ("twist", [4, 4, 3, 3, 4])])
def test_letter_quotient_dimensions(name, dims):
    ideal = Ideal(Calculus(RIGHT_ONLY_MAPS[name]()))
    assert ideal._right_only
    systems = {g: ideal._system(g, 0) for g in range(2, 7)}
    assert [len(ideal_module._dwords_of_grade(3, g)) - len(system.rows)
            for g, system in systems.items()] == dims
    # a pivot key begins with its dword's key: (grade, grades, indices)
    leads = {tuple(zip(grades, indices))
             for system in systems.values() for (_, grades, indices), _ in system.rows}
    minimal = [w for w in leads
               if not any(w[a:b] in leads for a in range(len(w))
                          for b in range(a + 1, len(w) + 1) if b - a < len(w))]
    assert Counter(map(len, minimal)) == MINIMAL_LEADS[name]


def test_membership_word_bound_limits():
    # only the bounded path reads the word bound
    calc = Calculus(quadratic_map())
    gen = relations(calc, x(2, 1), 1)["dx_dx", None]
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


def test_nonlinear_map_uses_bounded_path():
    ideal = Ideal(Calculus(quadratic_map()))
    assert ideal.calc.bmap.entry_degrees() == {2}
    assert not ideal._graded and not ideal._right_only
    # entries of mixed degree take the bounded path too; the zero map, whose
    # entries are all the scalar 0, is planned as degree 0
    z = AlgebraElement.zero(2)
    mixed = [[[x(2, 1, 1), z], [z, x(2, 1)]], [[x(2, 2), z], [z, x(2, 2)]]]
    assert not Ideal(Calculus(BimoduleMap(2, mixed)))._graded
    zero = Ideal(Calculus(BimoduleMap(2, [[[z] * 2] * 2] * 2)))
    assert zero._graded and zero._right_only
    gen = relations(ideal.calc, x(2, 1), 2)["dx_dx", None]
    image = d(ideal.calc, gen)
    verdict = ideal.membership(image)
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == image


@pytest.fixture(scope="module")
def quadratic_d3():
    """d^3(x1 x2) on the quadratic map, with its ideal and verdict."""
    ideal = Ideal(Calculus(quadratic_map()))
    e = d_power(ideal.calc, TensorElement.of_algebra(x(2, 1, 2)), 3)
    return ideal, e, ideal.membership(e)


def test_nonlinear_map_congruence_for_words(quadratic_d3):
    # the bounded path must still certify a non-trivial congruence
    ideal, e, verdict = quadratic_d3
    assert verdict.is_member
    assert ideal.expand_witness(verdict.witness) == e


# sha256 of the JSON of the bounded witness of d^3(x1 x2), term by term
QUADRATIC_WITNESS_SHA256 = \
    "e4d93a40acc47ff8686f4b76a40d11dabcf51c843389ab594f1c19bf0fa19cee"


def test_quadratic_witness_is_pinned(quadratic_d3):
    _, _, verdict = quadratic_d3
    witness = json.dumps([term.to_dict() for term in verdict.witness])
    assert hashlib.sha256(witness.encode()).hexdigest() == QUADRATIC_WITNESS_SHA256


@pytest.mark.parametrize("name, n, grade, wdeg, word_bound", [
    ("commutative", 3, 3, 1, None),
    ("degree-one", 2, 3, 1, None),
    ("quadratic", 2, 2, None, 1),
    ("constant", 2, 3, 1, None),
])
def test_column_products_match_tensor_mul(name, n, grade, wdeg, word_bound):
    # every column L * g * R of the system a query of bidegree (grade, wdeg)
    # reduces against, against two plain products built from its fields; a
    # graded map keys its system by word degree, a bounded one by word
    # bound.  A right-only map (commutative, constant) reduces every word
    # degree against its letter system, of word degree 0: each of its
    # columns with a word v of length wdeg as its right word is the
    # letters-only column times v
    if name == "degree-one":
        bmap = build_map(SessionConfig(n=2, xi_entries=DEGREE_ONE))
    elif name == "quadratic":
        bmap = quadratic_map()
    else:
        bmap = preset_map(name, n)
    ideal = Ideal(Calculus(bmap))
    assert ideal._graded == (wdeg is not None)
    top = word_bound if not ideal._graded else 0 if ideal._right_only else wdeg
    echelon = ideal._system(grade, top)
    assert len(echelon.columns) == len(echelon.rows) > 0
    words = itertools.product(range(1, n + 1), repeat=wdeg) if ideal._right_only else [None]
    for word, column in itertools.product(list(words), echelon.columns):
        assert column.coeff == ONE
        term = column if word is None else replace(column, right_word=word)
        left = TensorElement.monomial(n, term.left_dword,
                                      AlgebraElement.monomial(n, term.left_word))
        right = TensorElement.monomial(n, term.right_dword,
                                       AlgebraElement.monomial(n, term.right_word))
        gen = term.generator.element
        product = tensor_mul(bmap, left, tensor_mul(bmap, gen, right))
        assert ideal.expand_witness([term]) == product
        if word is not None:
            letters = ideal.expand_witness([column])
            assert product == tensor_mul(bmap, letters, TensorElement.of_algebra(
                AlgebraElement.monomial(n, word)))


def combine(coeffs, vectors):
    """sum of coeffs[i] * vectors[i], as a sparse vector without zeros."""
    out = {}
    for i, c in coeffs.items():
        for key, value in vectors[i].items():
            out[key] = out.get(key, ZERO) + c * value
    return {key: value for key, value in out.items() if value}


@pytest.mark.parametrize("seed", range(8))
def test_echelon_expresses_columns_by_back_substitution(seed):
    # keys are plain ints here; rank 5 over 8 keys leaves non-pivot keys
    rng = random.Random(seed)
    keys = range(8)
    basis = [{k: rng.choice(SMALL_SCALARS) for k in rng.sample(keys, 5)}
             for _ in range(5)]
    vectors = []
    for _ in range(20):
        kind = rng.random()
        if kind < 0.1:
            vectors.append({})
        elif kind < 0.4 or not vectors:
            vectors.append(rng.choice(basis))
        else:  # dependent on earlier columns
            picks = rng.sample(range(len(vectors)), min(3, len(vectors)))
            vectors.append(combine({i: rng.choice(SMALL_SCALARS) for i in picks},
                                   vectors))
    echelon = _Echelon()
    accepted = [i for i, vec in enumerate(vectors) if echelon.insert(vec, i)]
    assert len(echelon.rows) == len(echelon.records) == len(accepted) <= 5
    assert echelon.columns == accepted
    for i, vec in enumerate(vectors):
        combo, rest = echelon.express(vec)
        assert rest is None
        # an index into columns comes back, in insertion order
        assert [index for index, _ in combo] == sorted(index for index, _ in combo)
        combo = [(echelon.columns[index], coeff) for index, coeff in combo]
        if i in accepted:
            assert dict(combo) == {i: ONE}
        else:
            assert all(col in accepted and col < i for col, _ in combo)
            assert all(coeff for _, coeff in combo)
            assert combine(dict(combo), vectors) == vec
    for row in echelon.rows.values():  # reaches rows its own reduction skips
        combo, _ = echelon.express(row)
        assert combine({echelon.columns[index]: coeff for index, coeff in combo},
                       vectors) == row
    free = [k for k in keys if k not in echelon.rows]
    assert free
    # a member plus a term on a non-pivot key: the normal form is that term
    member = combine({i: rng.choice(SMALL_SCALARS) for i in accepted}, vectors)
    stray = {free[0]: rng.choice(SMALL_SCALARS)}
    assert echelon.express(combine({0: ONE, 1: ONE}, [member, stray])) == (None, stray)
