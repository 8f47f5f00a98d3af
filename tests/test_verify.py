import itertools
import json
import random

import pytest

from dcubed.freealg import AlgebraElement
from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement
from dcubed.differential import d
from dcubed import verify
from dcubed.ideal import Bounds, Ideal, relations
from dcubed.verify import (
    check_q_leibniz, check_d3, check_congruences, check_d2_binomial,
    check_generator_diffs, run_suite, SUITES,
)

from conftest import CUBIC_MAPS, PRESET_NAMES, RIGHT_ONLY_MAPS, SMALL_SCALARS, generator, x


@pytest.fixture(params=PRESET_NAMES)
def preset_ideal(request):
    return Ideal(Calculus(preset_map(request.param, 2)))


@pytest.fixture
def commutative_ideal():
    return Ideal(Calculus(preset_map("commutative", 2)))


def grade0(u):
    return TensorElement.of_algebra(u)


def dx(i, coeff=None):
    return TensorElement.of_letter(2, 1, i, coeff)


def d2x(i):
    return TensorElement.of_letter(2, 2, i)


def test_q_leibniz_grade0_pairs_hold_raw(preset_ideal):
    # theta in the base algebra: the rule is the plain first-order product rule
    for i in (1, 2):
        for j in (1, 2):
            inst = check_q_leibniz(preset_ideal, grade0(x(2, i)), grade0(x(2, j)))
            assert inst.tier == "raw" and inst.verdict == "pass"


def test_q_leibniz_scalar_coefficient_left_factor_raw(preset_ideal):
    # a left factor with scalar coefficients satisfies the rule raw for any
    # right factor
    omega = TensorElement.monomial(2, ((1, 1), (1, 2)), AlgebraElement.one(2))
    theta = dx(2, x(2, 1)) + d2x(1)
    inst = check_q_leibniz(preset_ideal, omega, theta)
    assert inst.tier == "raw" and inst.verdict == "pass"


def test_q_leibniz_letter_times_algebra(commutative_ideal):
    inst = check_q_leibniz(commutative_ideal, dx(1), grade0(x(2, 1)))
    assert inst.verdict == "pass"


def test_q_leibniz_nonscalar_left_factor_is_congruence(commutative_ideal):
    # omega = x^1, theta = dx^1: the defect is exactly a generator
    inst = check_q_leibniz(commutative_ideal, grade0(x(2, 1)), dx(1))
    assert inst.tier == "ideal" and inst.verdict == "pass"
    assert len(inst.witness) == 1
    w = inst.witness[0]
    assert w.generator is generator(commutative_ideal, "dx_dx", 1, 1)


def test_q_leibniz_grade3_left_factor(commutative_ideal):
    # at grade 3 the twist factor is q^3 = 1
    omega = TensorElement.monomial(2, ((1, 1), (2, 2)), AlgebraElement.one(2))
    inst = check_q_leibniz(commutative_ideal, omega, grade0(x(2, 2)))
    assert inst.verdict == "pass"


def test_q_leibniz_requires_homogeneous_left_factor(commutative_ideal):
    with pytest.raises(ValueError):
        check_q_leibniz(commutative_ideal, dx(1) + grade0(x(2, 1)), dx(1))


def test_d3_on_generators_raw(preset_ideal):
    for i in (1, 2):
        inst = check_d3(preset_ideal, grade0(x(2, i)))
        assert inst.tier == "raw" and inst.verdict == "pass"


def test_d3_on_words_and_forms(preset_ideal):
    for w in (grade0(x(2, 1, 2)), dx(1, x(2, 2))):
        inst = check_d3(preset_ideal, w)
        assert inst.verdict == "pass"


def test_congruences_unit(preset_ideal):
    for inst in check_congruences(preset_ideal, AlgebraElement.one(2), 1):
        assert inst.verdict == "pass"
        assert inst.tier == "raw"


def test_congruences_generators_give_generator_witnesses(preset_ideal):
    families = ("dx_dx", "dx_d2x", "d2x_dx", "entry_d3", "entry_d3", "d2x_d2x")
    for i in (1, 2):
        for j in (1, 2):
            instances = check_congruences(preset_ideal, x(2, i), j)
            assert len(instances) == 6
            for inst, family in zip(instances, families):
                assert inst.verdict == "pass"
                if inst.witness:  # zero residuals pass raw with empty witness
                    assert len(inst.witness) == 1
                    gen = inst.witness[0].generator
                    assert (gen.family, gen.i, gen.j) == (family, i, j)


def test_congruences_on_length_two_word(commutative_ideal):
    for j in (1, 2):
        for inst in check_congruences(commutative_ideal, x(2, 1, 2), j):
            assert inst.verdict == "pass"


def test_d2_binomial_units(preset_ideal):
    one = AlgebraElement.one(2)
    inst = check_d2_binomial(preset_ideal, one, one)
    assert inst.tier == "raw" and inst.verdict == "pass"


def test_d2_binomial_generators(preset_ideal):
    for i in (1, 2):
        for j in (1, 2):
            assert check_d2_binomial(preset_ideal, x(2, i), x(2, j)).verdict == "pass"


def test_d2_binomial_longer_words(commutative_ideal):
    assert check_d2_binomial(commutative_ideal, x(2, 1, 1), x(2, 2)).verdict == "pass"


def test_generator_diffs(preset_ideal):
    for i in (1, 2):
        for j in (1, 2):
            for inst in check_generator_diffs(preset_ideal, i, j):
                assert inst.verdict == "pass", (inst.check, inst.inputs,
                                                inst.residual)


@pytest.mark.parametrize("name", CUBIC_MAPS)
def test_generator_diffs_with_nonzero_expected_sides(name):
    ideal = Ideal(Calculus(CUBIC_MAPS[name]()), Bounds(word_bound=0))
    calc, n = ideal.calc, ideal.n
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        for inst in check_generator_diffs(ideal, i, j):
            assert inst.verdict == "pass", (inst.check, inst.inputs, inst.residual)
        rels = relations(calc, x(n, i), j)
        for k in range(1, n + 1):
            # each entry_d3 check passed raw, so d of its residual is the
            # expected side sum_l dx^l (x) d^3(D_l(e_k)); d2x_d2x's is built
            # from the residuals d^3(e_k) themselves
            assert d(calc, rels["entry_d3", k]).size() == (106 if k == j else 0)
            assert rels["entry_d3", k].is_zero == (k != j)


def test_run_suite_all_passes(preset_ideal, monkeypatch):
    monkeypatch.setattr(verify, "RANDOM_SAMPLES", 1)
    report = run_suite(preset_ideal, ("all",), seed=5, max_word_len=1)
    assert report.exit_code == 0
    assert [r.name for r in report.reports] == list(SUITES)
    assert all(r.instances for r in report.reports)


def test_run_suite_rejects_unknown_names(commutative_ideal):
    with pytest.raises(ValueError):
        run_suite(commutative_ideal, ("no-such-suite",))


@pytest.fixture(scope="module")
def commutative_all():
    ideal = Ideal(Calculus(preset_map("commutative", 2)))
    return ideal, run_suite(ideal, ("all",), seed=4, max_word_len=1)


@pytest.mark.parametrize("name", list(SUITES))
def test_run_suite_selects_one_entry_of_the_table(commutative_all, name):
    ideal, everything = commutative_all
    report = run_suite(ideal, (name,), seed=4, max_word_len=1)
    [only] = report.reports
    assert only.name == name
    [expected] = [r for r in everything.reports if r.name == name]
    assert [i.to_dict() for i in only.instances] == \
        [i.to_dict() for i in expected.instances]


def test_run_suite_runs_a_repeated_name_once(commutative_ideal):
    report = run_suite(commutative_ideal, ("d3", "d3"), max_word_len=1)
    assert [r.name for r in report.reports] == ["d3"]


def random_map(seed, degree):
    """A random n=2 map, not diagonal: every entry a small nonzero scalar
    (degree 0) or a linear form c1 x1 + c2 x2 with small nonzero c1, c2
    (degree 1)."""
    rng = random.Random(seed)

    def entry():
        if degree == 0:
            return AlgebraElement.scalar(2, rng.choice(SMALL_SCALARS))
        return x(2, 1).scale(rng.choice(SMALL_SCALARS)) \
            + x(2, 2).scale(rng.choice(SMALL_SCALARS))

    return BimoduleMap(2, [[[entry() for _ in range(2)] for _ in range(2)]
                           for _ in range(2)])


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_every_suite_passes_on_random_maps(seed, degree):
    bmap = random_map(seed, degree)
    assert bmap.entry_degrees() == {degree}
    report = run_suite(Ideal(Calculus(bmap)), ("all",), seed, max_word_len=1)
    assert report.exit_code == 0, [(i.check, i.inputs) for r in report.reports
                                   for i in r.instances if i.verdict != "pass"]


@pytest.mark.parametrize("name", list(RIGHT_ONLY_MAPS))
def test_every_suite_passes_on_right_only_maps(name):
    report = run_suite(Ideal(Calculus(RIGHT_ONLY_MAPS[name]())), ("all",), max_word_len=1)
    assert report.exit_code == 0, [(i.check, i.inputs) for r in report.reports
                                   for i in r.instances if i.verdict != "pass"]


def test_report_serialization_and_determinism(commutative_ideal):
    first = run_suite(commutative_ideal, ("d2-binomial", "generator-diffs"),
                      seed=9, max_word_len=1)
    fresh_ideal = Ideal(Calculus(preset_map("commutative", 2)))
    second = run_suite(fresh_ideal, ("d2-binomial", "generator-diffs"),
                       seed=9, max_word_len=1)
    blob1 = json.dumps(first.to_dict(), sort_keys=True)
    blob2 = json.dumps(second.to_dict(), sort_keys=True)
    assert blob1 == blob2
    text = first.to_text()
    assert "PASS" in text and "verification report" in text


def test_suite_text_mentions_failures(monkeypatch):
    # cripple the oracle with a tiny size cap: members become inconclusive
    monkeypatch.setattr(verify, "RANDOM_SAMPLES", 0)
    ideal = Ideal(Calculus(preset_map("commutative", 2)), Bounds(size_cap=1))
    report = run_suite(ideal, ("d3",), max_word_len=2)
    assert report.exit_code == 3
    assert "INCONCLUSIVE" in report.to_text()
    # break d by adding the identity: the raw q-Leibniz instances then fail
    monkeypatch.setattr(verify, "d", lambda calc, w: d(calc, w) + w)
    ideal = Ideal(Calculus(preset_map("commutative", 2)))
    report = run_suite(ideal, ("q-leibniz",), max_word_len=2)
    assert report.exit_code == 1
    assert "FAIL [raw] q-leibniz" in report.to_text()
    inst = check_q_leibniz(ideal, dx(1), grade0(x(2, 2)))
    assert (inst.tier, inst.verdict, inst.note, inst.residual) \
        == ("raw", "fail", "identity expected to hold raw", "-dx1 * q*x2")
