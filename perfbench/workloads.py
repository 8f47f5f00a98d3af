"""The three workloads: seeded inputs, the measured op loop and its checks.

Each workload is a closed loop with one client in one thread: the next
operation starts only when the previous one has returned and been checked.
Only the operation itself is timed; input generation and the correctness
checks run between operations, outside the timed region, and with the
tracer paused.

An untraced run repeats whole units of work (a suite, an epoch of
queries, a call) until their summed time reaches the requested seconds.
A traced run executes a fixed budget instead, so that its exact counts
repeat from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

import contexts
from dcubed import (AlgebraElement, Calculus, Scalar, TensorElement,
                    d_power, parse_expression, preset_map, tensor_mul, verify)

clock = time.perf_counter


@dataclass
class Outcome:
    """Raw per-run results: one latency per attempted operation."""

    latencies: list = field(default_factory=list)   # seconds
    failed: int = 0
    errors: list = field(default_factory=list)      # first few failure notes
    details: dict = field(default_factory=dict)     # workload facts for the record

    def fail(self, note):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(note)


class _Clock:
    """Times one call, with the tracer (if any) active only inside it.

    After the clock stops, the speed reference (if any) gets its tick.
    """

    def __init__(self, tracer, speed):
        self.tracer = tracer
        self.speed = speed

    def __call__(self, fn, *args):
        """(result, seconds, exception); a raising op fails, it does not crash."""
        if self.tracer is not None:
            self.tracer.active = True
        start = clock()
        try:
            result, err = fn(*args), None
        except Exception as exc:  # the op boundary: record it and go on
            result, err = None, exc
        took = clock() - start
        if self.tracer is not None:
            self.tracer.active = False
        if self.speed is not None:
            self.speed.tick(took)
        return result, took, err


# -- verify-suite ---------------------------------------------------------------


def run_verify_suite(seed, seconds, tiny, tracer, speed):
    """One op is one check instance of run_suite(ideal, ("all",), seed).

    Instances are timed by stamping each CheckInstance as it is created:
    an instance's latency runs from the previous stamp (or the start of
    the suite) to its own.  The speed reference samples inside the stamp,
    between one instance's stamp and the next instance's start, so its
    time is excluded.  Every suite runs to completion on a fresh Ideal,
    so each run measures whole suites.
    """
    n, max_word_len = (2, 1) if tiny else (4, 2)
    out = Outcome()
    marks = []  # (stamp, resume) per instance
    original = getattr(verify, "CheckInstance", None)

    def stamped(*args, **kwargs):
        instance = original(*args, **kwargs)
        stamp = clock()
        if speed is not None:
            speed.tick(stamp - marks[-1][1])
        marks.append((stamp, clock()))
        return instance

    if original is not None:
        verify.CheckInstance = stamped
    timed = _Clock(tracer, None)
    elapsed = 0.0
    suites = 0
    try:
        while True:
            ideal = contexts.verify_ideal(n)
            start = clock()
            marks[:] = [(start, start)]
            report, took, err = timed(verify.run_suite, ideal, ("all",), seed,
                                      max_word_len, "commutative")
            end = start + took
            suites += 1
            if err is not None:  # the whole suite is one failed op
                lat = [end - start - sum(r - s for s, r in marks)]
                out.fail(f"run_suite raised {type(err).__name__}: {err}")
                instances = []
            else:
                instances = [(r, i) for r in report.reports for i in r.instances]
                if len(marks) == len(instances) + 1:
                    lat = [stamp - resume for (_, resume), (stamp, _)
                           in zip(marks, marks[1:])]
                    lat[-1] += end - marks[-1][1]
                else:  # stamping hook gone: spread each suite's time evenly
                    lat = [r.duration_s / len(r.instances) for r, _ in instances]
            out.latencies.extend(lat)
            elapsed += sum(lat)
            for _, inst in instances:
                if inst.verdict != "pass":
                    out.fail(f"{inst.check} {inst.inputs}: {inst.verdict}")
            if instances and report.exit_code != 0:
                out.errors.append(f"suite exit code {report.exit_code}")
            if tracer is not None or elapsed >= seconds:
                break
    finally:
        if original is not None:
            verify.CheckInstance = original
    out.details = {"n": n, "max_word_len": max_word_len, "suites": suites,
                   "stamped": original is not None}
    return out


# -- member-bounded -------------------------------------------------------------

# Query shape -> the oracle system (grade, None, word bound) it lands in.
#   g2:  c * g            with g a grade-2 generator       -> (2, None, 4)
#   g2x: c * g * x_m      right word of length 1           -> (2, None, 5)
#   g3:  c * g  or  c * dx_k * g2                          -> (3, None, 4)
MEMBER_SHAPES = {"g2": (2, 2), "g2x": (2, 3), "g3": (3, 2)}  # grade, word degree
# Per round, each shape is queried once with the kind below (cycled).
MEMBER_KINDS = ("sum", "single", "sum", "nonmember")
TERMS_PER_SUM = 3
EPOCH_QUERIES = 2000


def _small_scalar(rng):
    return Scalar(Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2, 3))),
                  rng.randint(-2, 2))


class MemberQueries:
    """Deterministic query stream for the quadratic map, from a seed."""

    def __init__(self, client, seed, tiny):
        self.client = client  # an Ideal of its own: the measured one stays cold
        self.rng = random.Random(seed)
        self.n = client.n
        gens = client.all_generators()
        self.by_grade = {g: [x.element for x in gens if x.grade == g] for g in (2, 3)}
        self.shapes = ("g2",) if tiny else tuple(MEMBER_SHAPES)

    def _mono(self, dword, word=()):
        return TensorElement.monomial(self.n, dword, AlgebraElement.monomial(self.n, word))

    def _product(self, shape):
        rng, bmap = self.rng, self.client.calc.bmap
        if shape == "g2":
            e = rng.choice(self.by_grade[2])
        elif shape == "g2x":
            e = tensor_mul(bmap, rng.choice(self.by_grade[2]),
                           self._mono((), (rng.randint(1, self.n),)))
        elif rng.random() < 0.5:
            e = rng.choice(self.by_grade[3])
        else:
            e = tensor_mul(bmap, self._mono(((1, rng.randint(1, self.n)),)),
                           rng.choice(self.by_grade[2]))
        return e.scale(_small_scalar(self.rng))

    def _member(self, shape, terms):
        grade, degree = MEMBER_SHAPES[shape]
        while True:  # redraw the rare sum whose top terms cancel
            e = TensorElement.zero(self.n)
            for _ in range(terms):
                e = e + self._product(shape)
            if (not e.is_zero and e.homogeneous_grade() == grade
                    and e.max_word_degree() == degree):
                return e

    def __iter__(self):
        index = 0
        while True:
            for shape in self.shapes:
                kind = MEMBER_KINDS[index % len(MEMBER_KINDS)]
                if kind == "single":
                    yield shape, kind, self._member(shape, 1), None
                elif kind == "sum":
                    yield shape, kind, self._member(shape, TERMS_PER_SUM), None
                else:
                    member = self._member(shape, TERMS_PER_SUM)
                    word = tuple(self.rng.randint(1, self.n)
                                 for _ in range(self.rng.randint(0, 1)))
                    extra = self._mono(((1, self.rng.randint(1, self.n)),), word)
                    extra = extra.scale(_small_scalar(self.rng))
                    yield shape, kind, member + extra, extra
            index += 1


def check_membership(client, query, grade1_term, verdict):
    """None when the verdict is right, else a note saying what is wrong."""
    if grade1_term is None:
        if not verdict.is_member:
            return f"member query answered {verdict.status}"
        if client.expand_witness(verdict.witness) != query:
            return "witness does not re-expand to the query"
        return None
    if verdict.status != "not_member_at_bound":
        return f"non-member query answered {verdict.status}"
    if verdict.residual != grade1_term:
        return "residual differs from the added grade-1 term"
    return None


def run_member_bounded(seed, seconds, tiny, tracer, speed):
    """One op is one Ideal.membership verdict over the quadratic map.

    A run is made of epochs: a fresh Ideal answers a fixed number of
    queries, building each shape's system cold once and answering the rest
    warm.  Whole epochs repeat until the measured time reaches ``seconds``,
    so every run has the same cold/warm mix; a traced run is one epoch.
    """
    per_epoch = 40 if tiny else EPOCH_QUERIES
    client = contexts.member_ideal()
    queries = iter(MemberQueries(client, seed, tiny))
    timed = _Clock(tracer, speed)
    out = Outcome()
    elapsed = 0.0
    epochs = 0
    kinds = {}
    while True:
        ideal = contexts.member_ideal()
        epochs += 1
        for _ in range(per_epoch):
            shape, kind, query, grade1 = next(queries)
            kinds[kind] = kinds.get(kind, 0) + 1
            verdict, took, err = timed(ideal.membership, query)
            out.latencies.append(took)
            elapsed += took
            if err is not None:
                note = f"raised {type(err).__name__}: {err}"
            else:
                note = check_membership(client, query, grade1, verdict)
            if note is not None:
                out.fail(f"{shape}/{kind}: {note}")
        if tracer is not None or elapsed >= seconds:
            break
    out.details = {"epochs": epochs, "queries_per_epoch": per_epoch,
                   "queries_by_kind": kinds}
    return out


# -- diff-cli -------------------------------------------------------------------

CLI_PRESETS = ("commutative", "scalar-twist", "constant")
CLI_FORMATS = ("text", "json", "latex")
CLI_N = 3
_COEFFS = ("", "2 ", "q ", "1/2 ", "[2]_q ", "3/2 q ")


def random_expression(rng, tiny):
    """Sum of 1-3 words of length 3-8 over n = 3; some carry dx/d2x letters."""
    longest = 4 if tiny else 8
    terms = []
    for position in range(rng.randint(1, 3)):
        length = rng.randint(3, longest)
        factors = [f"x{rng.randint(1, CLI_N)}" for _ in range(length)]
        for slot in rng.sample(range(length), rng.choice((0, 0, 1, 2))):
            factors[slot] = f"{rng.choice(('dx', 'dx', 'd2x'))}{rng.randint(1, CLI_N)}"
        text = rng.choice(_COEFFS) + " ".join(factors)
        if position:
            text = rng.choice(("+ ", "- ")) + text
        terms.append(text)
    return " ".join(terms)


def cli_calls(seed, tiny):
    """(argv, expr, preset, k, format), rotating through presets and formats."""
    rng = random.Random(seed)
    index = 0
    while True:
        preset = CLI_PRESETS[index % 3]
        fmt = CLI_FORMATS[(index // 3) % 3]
        k = rng.randint(1, 3)
        expr = random_expression(rng, tiny)
        argv = ["diff", "-k", str(k), expr, "--preset", preset,
                "-n", str(CLI_N), "--format", fmt]
        yield argv, expr, preset, k, fmt
        index += 1


def tensor_from_obj(obj, n):
    """Inverse of parsing.tensor_to_obj (the ``--format json`` output)."""
    terms = {}
    for item in obj:
        coeff = AlgebraElement(n, {
            tuple(t["word"]): Scalar(Fraction(t["scalar"]["a"]), Fraction(t["scalar"]["b"]))
            for t in item["coefficient"]})
        terms[tuple(tuple(letter) for letter in item["letters"])] = coeff
    return TensorElement(n, terms)


_LATEX_TOKENS = [
    (re.compile(r"\\frac\{(-?\d+)\}\{(\d+)\}"), r"\1/\2"),
    (re.compile(r"d\^\{2\}x\^\{(\d+)\}"), r" d2x\1 "),
    (re.compile(r"dx\^\{(\d+)\}"), r" dx\1 "),
    (re.compile(r"x\^\{(\d+)\}"), r" x\1 "),
    (re.compile(r"\\otimes"), " (*) "),
    (re.compile(r"\\left\("), "("),
    (re.compile(r"\\right\)"), ")"),
    (re.compile(r"\\,"), " * "),
]


def latex_to_text(tex):
    """Rewrite ``--format latex`` output into the expression grammar."""
    for pattern, repl in _LATEX_TOKENS:
        tex = pattern.sub(repl, tex)
    return tex


class CliChecker:
    """Parses CLI output back and compares it with the library's d_power."""

    def __init__(self):
        self.calcs = {p: Calculus(preset_map(p, CLI_N)) for p in CLI_PRESETS}

    def __call__(self, expr, preset, k, fmt, code, output):
        if code != 0:
            return f"exit code {code}"
        calc = self.calcs[preset]
        expected = d_power(calc, parse_expression(expr, calc), k)
        text = output.strip()
        if fmt == "json":
            got = tensor_from_obj(json.loads(text), CLI_N)
        elif fmt == "latex":
            got = parse_expression(latex_to_text(text), calc)
        else:
            got = parse_expression(text, calc)
        if got != expected:
            return "output does not parse back to d_power of the input"
        return None


def run_diff_cli(seed, seconds, tiny, tracer, speed):
    """One op is one in-process dcubed.cli.main(["diff", ...]) call."""
    cli, _ = contexts.cli_ready()
    budget = (18 if tiny else 900) if tracer is not None else None
    check = CliChecker()
    timed = _Clock(tracer, speed)
    out = Outcome()
    elapsed = 0.0
    for argv, expr, preset, k, fmt in cli_calls(seed, tiny):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code, took, err = timed(cli.main, argv)
        out.latencies.append(took)
        elapsed += took
        if err is not None:
            note = f"raised {type(err).__name__}: {err}"
        else:
            try:
                note = check(expr, preset, k, fmt, code, buffer.getvalue())
            except Exception as bad:  # unreadable output is a wrong answer
                note = f"output not readable: {type(bad).__name__}: {bad}"
        if note is not None:
            out.fail(f"{argv}: {note}")
        if budget is not None:
            if len(out.latencies) >= budget:
                break
        elif elapsed >= seconds:
            break
    return out


WORKLOADS = {
    "verify-suite": run_verify_suite,
    "member-bounded": run_member_bounded,
    "diff-cli": run_diff_cli,
}
