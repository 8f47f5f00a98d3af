"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every check is exact (zero tolerance); the asserted runtime
budgets are part of the criteria.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from dcubed.scalar import Scalar, ZERO, ONE, Q, q_integer
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement
from dcubed.differential import d, d_power
from dcubed import verify
from dcubed.ideal import Ideal, relations
from dcubed.parsing import parse_expression, format_tensor
from dcubed.verify import (
    check_q_leibniz, check_congruences, check_d2_binomial, run_suite,
    _scalar_coefficients_only,
)

from conftest import PRESET_NAMES, random_algebra, random_tensor, x
from test_differential import second_iterate_oracle, third_iterate_oracle

N = 2


@contextmanager
def criterion(num, name, limit_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, \
        f"criterion {num} took {elapsed:.1f}s, budget {limit_s}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def fresh_ideal(name):
    return Ideal(Calculus(preset_map(name, N)))


def words_up_to(max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, N + 1), repeat=length)


def test_criterion_1_scalar_identities():
    with criterion(1, "scalar identities", 5):
        assert q_integer(3) == ZERO
        assert Q * Q * Q == ONE
        assert Q * Q == Scalar(-1, -1)


def test_criterion_2_raw_iterate_identities():
    with criterion(2, "raw d-iterate identities", 5):
        for name in PRESET_NAMES:
            calc = Calculus(preset_map(name, N))
            rng = random.Random(20260809)
            for _ in range(20):
                u = random_algebra(rng, N, max_len=3)
                tu = TensorElement.of_algebra(u)
                assert d_power(calc, tu, 2) == second_iterate_oracle(calc, u)
                assert d_power(calc, tu, 3) == third_iterate_oracle(calc, u)


def test_criterion_3_generator_differential_identities():
    with criterion(3, "generator differential identities", 5):
        for name in PRESET_NAMES:
            ideal = fresh_ideal(name)
            calc = ideal.calc
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    gens = relations(calc, x(N, i), j)
                    for k in range(1, N + 1):
                        gen = gens["entry_d3", k]
                        expected = TensorElement.zero(N)
                        for l, dl in calc.gradient(calc.bmap.entry(i, j, k)):
                            d3 = d_power(calc, TensorElement.of_algebra(dl), 3)
                            expected = expected + TensorElement(
                                N, {((1, l),) + w: c for w, c in d3.terms.items()})
                        assert d(calc, gen) == expected
                    gen = gens["d2x_d2x", None]
                    expected = TensorElement.zero(N)
                    for k in range(1, N + 1):
                        t = gens["entry_d3", k]
                        expected = expected - TensorElement(
                            N, {((2, k),) + w: c for w, c in t.terms.items()})
                    assert d(calc, gen) == expected


def test_criterion_4_d_compatibility():
    with criterion(4, "d-compatibility of every generator", 60):
        for name in PRESET_NAMES:
            ideal = fresh_ideal(name)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    for key, gen in relations(ideal.calc, x(N, i), j).items():
                        image = d(ideal.calc, gen)
                        verdict = ideal.membership(image)
                        assert verdict.is_member, (name, i, j, key)
                        assert ideal.expand_witness(verdict.witness) == image


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_5_d3_in_ideal(name):
    with criterion(5, f"d^3 in the ideal [{name}]", 120):
        ideal = fresh_ideal(name)
        targets = [TensorElement.of_algebra(AlgebraElement.monomial(N, w))
                   for w in words_up_to(2)]
        targets += [TensorElement.of_letter(N, grade, i,
                                            AlgebraElement.monomial(N, u))
                    for grade in (1, 2)
                    for i in range(1, N + 1)
                    for u in words_up_to(1)]
        for w in targets:
            image = d_power(ideal.calc, w, 3)
            verdict = ideal.membership(image)
            assert verdict.is_member, format_tensor(w)
            assert ideal.expand_witness(verdict.witness) == image


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_6_q_leibniz(name):
    with criterion(6, f"q-Leibniz mod the ideal [{name}]", 120):
        ideal = fresh_ideal(name)
        omegas = [TensorElement.of_algebra(AlgebraElement.generator(N, i))
                  for i in range(1, N + 1)]
        omegas += [TensorElement.of_letter(N, 1, i) for i in range(1, N + 1)]
        omegas += [TensorElement.of_letter(N, 2, i) for i in range(1, N + 1)]
        omegas += [TensorElement.monomial(N, ((1, i), (1, j)),
                                          AlgebraElement.one(N))
                   for i in range(1, N + 1) for j in range(1, N + 1)]
        thetas = [TensorElement.of_algebra(AlgebraElement.generator(N, j))
                  for j in range(1, N + 1)]
        thetas += [TensorElement.of_letter(N, 1, j, AlgebraElement.generator(N, k))
                   for j in range(1, N + 1) for k in range(1, N + 1)]
        thetas += [TensorElement.of_letter(N, 2, j) for j in range(1, N + 1)]
        for omega in omegas:
            for theta in thetas:
                inst = check_q_leibniz(ideal, omega, theta)
                assert inst.verdict == "pass", (inst.inputs, inst.residual)
                # base cases: grade-0 right factor, or scalar-coefficient
                # left factor, must vanish raw
                if theta.max_grade() == 0 or _scalar_coefficients_only(omega):
                    assert inst.tier == "raw"


def test_criterion_7_congruences():
    with criterion(7, "push-through congruences", 60):
        for name in PRESET_NAMES:
            ideal = fresh_ideal(name)
            vs = [AlgebraElement.one(N)]
            vs += [x(N, i) for i in range(1, N + 1)]
            vs += [AlgebraElement.monomial(N, (i, j))
                   for i in range(1, N + 1) for j in range(1, N + 1)]
            for v in vs:
                for j in range(1, N + 1):
                    instances = check_congruences(ideal, v, j)
                    for inst in instances:
                        assert inst.verdict == "pass", (name, inst.inputs)
                    if len(v.terms) == 1 and len(next(iter(v.terms))) == 1:
                        # single-generator inputs: witnesses are single
                        # generators (or raw zeros)
                        for inst in instances:
                            assert inst.witness is not None
                            assert len(inst.witness) <= 1


def test_criterion_8_d2_binomial():
    with criterion(8, "order-2 product expansion", 60):
        ideal = fresh_ideal("commutative")
        for wu in words_up_to(2):
            for wv in words_up_to(2):
                inst = check_d2_binomial(ideal, AlgebraElement.monomial(N, wu),
                                         AlgebraElement.monomial(N, wv))
                assert inst.verdict == "pass", inst.inputs


def test_criterion_9_round_trip_and_determinism(monkeypatch):
    monkeypatch.setattr(verify, "RANDOM_SAMPLES", 1)
    with criterion(9, "round trip and deterministic reports", 60):
        for name in PRESET_NAMES:
            calc = Calculus(preset_map(name, N))
            rng = random.Random(424242)
            for _ in range(40):
                e = random_tensor(rng, N, max_grade=3, max_word_len=2, max_terms=4)
                assert parse_expression(format_tensor(e), calc) == e
        blobs = []
        for _ in range(2):
            report = run_suite(fresh_ideal("commutative"), ("all",), seed=7,
                               max_word_len=1)
            blobs.append(json.dumps(report.to_dict(), sort_keys=True).encode())
        assert blobs[0] == blobs[1]
