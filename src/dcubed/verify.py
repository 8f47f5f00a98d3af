"""Mechanical verification of the defining identities at bounded degree.

Each check works at one of two tiers and says which:

* ``raw``   -- an identity that must hold on the nose in the tensor algebra
               (zero residual, no oracle involved);
* ``ideal`` -- a congruence: the residual must be certified a member of the
               compatibility ideal by the membership oracle.

The q-Leibniz defect of the grade-one operator is driven entirely by the
right coefficient of the left factor: the rule holds raw whenever the right
factor has grade 0, and whenever the left factor carries only scalar
coefficients.  All other instances are congruences.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field

from .scalar import q_power, q_integer
from .freealg import AlgebraElement
from .tensoralg import TensorElement, tensor_mul
from .differential import d, d_power
from .ideal import FAMILIES, Ideal, relations
from .parsing import format_tensor, format_algebra

SUITES = ("q-leibniz", "d3", "congruences", "d2-binomial", "generator-diffs")

# Check names of the congruence suite, one per entry of FAMILIES.
CONGRUENCES = ("dv_dx", "dv_d2x", "d2v_dx", "entry_d3", "d2v_d2x")


# What each membership status means, as a check verdict and as a process
# exit code; a report exits with the code of its worst verdict.
Outcome = namedtuple("Outcome", "verdict exit_code")
OUTCOMES = {
    "member": Outcome("pass", 0),
    "not_member_at_bound": Outcome("fail", 1),
    "bound_exceeded": Outcome("inconclusive", 3),
}
EXIT_CODES = {o.verdict: o.exit_code for o in OUTCOMES.values()}

# Random forms drawn per run by the q-leibniz and d3 suites, on top of
# their exhaustive instances.
RANDOM_SAMPLES = 2


def _worst(verdicts) -> str:
    """fail before inconclusive before pass."""
    verdicts = set(verdicts)
    return next((v for v in ("fail", "inconclusive") if v in verdicts), "pass")


@dataclass
class CheckInstance:
    check: str
    inputs: dict
    tier: str                    # "raw" | "ideal"
    verdict: str                 # "pass" | "fail" | "inconclusive"
    witness: list | None = None
    residual: str | None = None
    note: str = ""

    def to_dict(self):
        out = {"check": self.check, "inputs": self.inputs, "tier": self.tier,
               "verdict": self.verdict}
        if self.note:
            out["note"] = self.note
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = [t.to_dict() for t in self.witness]
        return out


@dataclass
class CheckReport:
    name: str
    instances: list = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def counts(self) -> dict:
        """Instances per verdict, every verdict present."""
        return {v: sum(i.verdict == v for i in self.instances) for v in EXIT_CODES}

    @property
    def verdict(self) -> str:
        return _worst(v for v, count in self.counts.items() if count)

    def to_dict(self, with_timing=False):
        out = {"name": self.name,
               "passed": self.verdict == "pass",
               "counts": self.counts,
               "instances": [i.to_dict() for i in self.instances]}
        if with_timing:
            out["duration_s"] = round(self.duration_s, 3)
        return out


@dataclass
class SuiteReport:
    preset: str
    n: int
    seed: int
    reports: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return _worst(r.verdict for r in self.reports)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_dict(self, with_timing=False):
        return {
            "preset": self.preset,
            "n": self.n,
            "seed": self.seed,
            "suites": [r.to_dict(with_timing) for r in self.reports],
            "summary": {
                "passed": self.verdict == "pass",
                "failures": sum(r.counts["fail"] for r in self.reports),
                "inconclusive": sum(r.counts["inconclusive"] for r in self.reports),
            },
        }

    def to_text(self) -> str:
        lines = [f"verification report: preset={self.preset} n={self.n} seed={self.seed}"]
        for report in self.reports:
            lines.append(f"  {report.name}: {report.verdict.upper()} "
                         f"({len(report.instances)} instances)"
                         f"  [{report.duration_s:.2f}s]")
            for inst in report.instances:
                if inst.verdict != "pass":
                    desc = ", ".join(f"{k}={v}" for k, v in inst.inputs.items())
                    lines.append(f"    {inst.verdict.upper()} [{inst.tier}] "
                                 f"{inst.check}: {desc}")
                    if inst.residual is not None:
                        lines.append(f"      residual: {inst.residual}")
                    if inst.note:
                        lines.append(f"      note: {inst.note}")
        lines.append({"pass": "all checks passed",
                      "fail": "CHECK FAILURES PRESENT",
                      "inconclusive": "inconclusive results present (raise the bounds)"}
                     [self.verdict])
        return "\n".join(lines) + "\n"


# -- single-instance checks ---------------------------------------------------


def _membership_instance(ideal, check, inputs, residual) -> CheckInstance:
    if residual.is_zero:
        return CheckInstance(check, inputs, "raw", "pass", witness=[])
    verdict = ideal.membership(residual)
    outcome = OUTCOMES[verdict.status].verdict
    if verdict.is_member:
        return CheckInstance(check, inputs, "ideal", outcome,
                             witness=verdict.witness)
    # bound_exceeded has no residual of its own: show the whole query
    shown = residual if verdict.residual is None else verdict.residual
    return CheckInstance(check, inputs, "ideal", outcome,
                         residual=format_tensor(shown), note=verdict.detail)


def _raw_instance(check, inputs, residual) -> CheckInstance:
    if residual.is_zero:
        return CheckInstance(check, inputs, "raw", "pass", witness=[])
    return CheckInstance(check, inputs, "raw", "fail",
                         residual=format_tensor(residual),
                         note="identity expected to hold raw")


def _scalar_coefficients_only(w: TensorElement) -> bool:
    return all(set(coeff.terms) <= {()} for coeff in w.terms.values())


def check_q_leibniz(ideal: Ideal, omega: TensorElement,
                    theta: TensorElement) -> CheckInstance:
    """d(omega theta) - d(omega) theta - q^grade(omega) omega d(theta)."""
    grade = omega.homogeneous_grade()
    if grade is None:
        raise ValueError("the left factor must be grade-homogeneous")
    calc, bmap = ideal.calc, ideal.calc.bmap
    residual = d(calc, tensor_mul(bmap, omega, theta)) \
        - tensor_mul(bmap, d(calc, omega), theta) \
        - tensor_mul(bmap, omega, d(calc, theta)).scale(q_power(grade))
    inputs = {"omega": format_tensor(omega), "theta": format_tensor(theta),
              "grade": str(grade)}
    raw_expected = theta.max_grade() == 0 or _scalar_coefficients_only(omega)
    if raw_expected:
        return _raw_instance("q-leibniz", inputs, residual)
    return _membership_instance(ideal, "q-leibniz", inputs, residual)


def check_d3(ideal: Ideal, w: TensorElement) -> CheckInstance:
    """The third iterate of d must land in the ideal."""
    residual = d_power(ideal.calc, w, 3)
    return _membership_instance(ideal, "d3", {"w": format_tensor(w)}, residual)


def check_congruences(ideal: Ideal, v: AlgebraElement, j: int) -> list:
    """The generator relations with x^i replaced by an arbitrary element v.

    For v a generator the residuals coincide with the ideal generators, so
    the oracle returns one-term witnesses.
    """
    inputs = {"v": format_algebra(v), "j": str(j)}
    names = dict(zip(FAMILIES, CONGRUENCES))
    return [_membership_instance(ideal, f"congruence:{names[family]}",
                                 inputs if k is None else {**inputs, "k": str(k)}, residual)
            for (family, k), residual in relations(ideal.calc, v, j).items()]


def check_d2_binomial(ideal: Ideal, u: AlgebraElement,
                      v: AlgebraElement) -> CheckInstance:
    """d^2(uv) = d^2(u) v + [2]_q d(u) d(v) + u d^2(v)  modulo the ideal."""
    calc, bmap = ideal.calc, ideal.calc.bmap
    tu, tv = TensorElement.of_algebra(u), TensorElement.of_algebra(v)
    residual = d_power(calc, tensor_mul(bmap, tu, tv), 2) \
        - tensor_mul(bmap, d_power(calc, tu, 2), tv) \
        - tensor_mul(bmap, d(calc, tu), d(calc, tv)).scale(q_integer(2)) \
        - tensor_mul(bmap, tu, d_power(calc, tv, 2))
    inputs = {"u": format_algebra(u), "v": format_algebra(v)}
    return _membership_instance(ideal, "d2-binomial", inputs, residual)


def check_generator_diffs(ideal: Ideal, i: int, j: int) -> list:
    """d-compatibility at the generator level.

    The two top families satisfy exact identities: the differential of an
    entry_d3 generator is sum_l dx^l (x) d^3(D_l(entry)), and the
    differential of a d2x_d2x generator is -sum_k d^2x^k (x) d^3(entry).
    The differentials of the three lower families are oracle memberships.
    """
    calc, n = ideal.calc, ideal.n
    inputs = {"i": str(i), "j": str(j)}
    out = []

    for k in range(1, n + 1):
        gen = ideal.generator_element("entry_d3", i, j, k)
        expected = TensorElement.zero(n)
        for l, dl in enumerate(calc.gradient(calc.bmap.entry(i, j, k)), start=1):
            d3 = d_power(calc, TensorElement.of_algebra(dl), 3)
            expected = expected + TensorElement(n, {((1, l),) + w: c
                                                    for w, c in d3.terms.items()})
        out.append(_raw_instance("generator-diff:entry_d3",
                                 {**inputs, "k": str(k)},
                                 d(calc, gen) - expected))

    gen = ideal.generator_element("d2x_d2x", i, j)
    expected = TensorElement.zero(n)
    for k in range(1, n + 1):
        t = ideal.generator_element("entry_d3", i, j, k)
        expected = expected - TensorElement(n, {((2, k),) + w: c
                                                for w, c in t.terms.items()})
    out.append(_raw_instance("generator-diff:d2x_d2x", inputs,
                             d(calc, gen) - expected))

    for family in ("dx_dx", "dx_d2x", "d2x_dx"):
        residual = d(calc, ideal.generator_element(family, i, j))
        out.append(_membership_instance(
            ideal, f"generator-diff:{family}", inputs, residual))
    return out


# -- suite driver --------------------------------------------------------------


def _all_words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def _random_monomial_form(rng: random.Random, n: int, max_grade: int,
                          max_word_len: int) -> TensorElement:
    grade = 0
    dword = []
    target = rng.randint(1, max_grade)
    while grade < target:
        a = rng.choice((1, 1, 2))
        if grade + a > target:
            a = 1
        dword.append((a, rng.randint(1, n)))
        grade += a
    word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_word_len)))
    return TensorElement.monomial(n, tuple(dword), AlgebraElement.monomial(n, word))


def run_suite(ideal: Ideal, suites=("all",), seed: int = 0,
              max_word_len: int = 2, preset: str = "custom") -> SuiteReport:
    names = list(SUITES) if ("all" in suites) else [s for s in SUITES if s in suites]
    unknown = set(suites) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    n = ideal.n
    suite_report = SuiteReport(preset=preset, n=n, seed=seed)

    for name in names:
        rng = random.Random(seed)  # each suite draws from the same seed
        started = time.perf_counter()
        report = CheckReport(name)
        if name == "q-leibniz":
            omegas = [TensorElement.of_algebra(AlgebraElement.generator(n, i))
                      for i in range(1, n + 1)]
            omegas += [TensorElement.of_letter(n, 1, i) for i in range(1, n + 1)]
            omegas += [TensorElement.of_letter(n, 2, i) for i in range(1, n + 1)]
            omegas += [TensorElement.monomial(n, ((1, i), (1, j)),
                                              AlgebraElement.one(n))
                       for i in range(1, n + 1) for j in range(1, n + 1)]
            thetas = [TensorElement.of_algebra(AlgebraElement.generator(n, j))
                      for j in range(1, n + 1)]
            thetas += [TensorElement.of_letter(n, 1, j,
                                               AlgebraElement.generator(n, k))
                       for j in range(1, n + 1) for k in range(1, n + 1)]
            thetas += [TensorElement.of_letter(n, 2, j) for j in range(1, n + 1)]
            for omega in omegas:
                for theta in thetas:
                    report.instances.append(check_q_leibniz(ideal, omega, theta))
            for _ in range(RANDOM_SAMPLES):
                omega = _random_monomial_form(rng, n, 2, 1)
                theta = _random_monomial_form(rng, n, 1, 1)
                report.instances.append(check_q_leibniz(ideal, omega, theta))
        elif name == "d3":
            for word in _all_words(n, max_word_len):
                report.instances.append(check_d3(
                    ideal, TensorElement.of_algebra(AlgebraElement.monomial(n, word))))
            for grade in (1, 2):
                for i in range(1, n + 1):
                    for word in _all_words(n, 1):
                        w = TensorElement.of_letter(
                            n, grade, i, AlgebraElement.monomial(n, word))
                        report.instances.append(check_d3(ideal, w))
            for _ in range(RANDOM_SAMPLES):
                report.instances.append(
                    check_d3(ideal, _random_monomial_form(rng, n, 2, 1)))
        elif name == "congruences":
            vs = [AlgebraElement.one(n)]
            vs += [AlgebraElement.monomial(n, w) for w in _all_words(n, max_word_len)
                   if w]
            for v in vs:
                for j in range(1, n + 1):
                    report.instances.extend(check_congruences(ideal, v, j))
        elif name == "d2-binomial":
            words = list(_all_words(n, max_word_len))
            for wu in words:
                for wv in words:
                    report.instances.append(check_d2_binomial(
                        ideal, AlgebraElement.monomial(n, wu),
                        AlgebraElement.monomial(n, wv)))
        elif name == "generator-diffs":
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    report.instances.extend(check_generator_diffs(ideal, i, j))
        report.duration_s = time.perf_counter() - started
        suite_report.reports.append(report)
    return suite_report
