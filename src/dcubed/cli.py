"""Command-line interface.

Subcommands: ``diff`` (iterated differential of an expression), ``reduce``
(normal form modulo the ideal: the membership residual, zero for members),
``member`` (ideal membership with witness), ``verify`` (run the identity
check suites and emit a report).

A membership verdict prints one way.  ``diff --mod-ideal`` prints the
result as ``diff`` prints it, then the verdict as ``member`` prints it
(its text lines after a latex result too; in json, one object holding
both), and exits with ``member``'s code.

A session (the structure map and the oracle's bounds) starts from the
``--config`` file when one is given, else from the ``commutative``
preset; ``--preset`` and the other session options override it, and
:func:`dcubed.config.build_map` validates the result.  ``--format`` and
``verify --seed`` belong to the call alone: no config file holds them.
``-k``, ``--format``, ``--suite`` and ``--max-word-len`` state their
ranges as argparse ``choices``; each subcommand lists the formats it
prints (``diff`` and ``reduce`` text, latex and json; ``member`` and
``verify`` text and json).  ``verify`` prints suite timings, in the text
report as in the JSON one, only with ``--timings``.

Exit codes: 0 ok, 1 check failure / non-membership, 2 parse or config
error, 3 inconclusive.  Inconclusive is a ``bound_exceeded`` verdict (an
oracle system over the size cap, or with a column of more than
``freealg.MAX_TERMS`` terms; ``reduce`` prints it as one ``error:``
line), or one ``error:`` line for a result scalar
too long to print or any other product of more than ``MAX_TERMS`` terms:
in the parser, in ``d`` or in the generator table.

An expression that begins with ``-`` reads as an option, so argparse
exits 2 without it; put ``--`` before it, after every option:
``dcubed diff -k 2 -- "-x1"``.

``main(argv)`` may be called many times in one process.  The argument
parser is built on the first call and reused: it is fixed configuration,
and each call parses into a fresh namespace, so nothing parsed carries
over from one call to the next.  Importing this module builds nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import fields

from .calculus import Calculus
from .config import (
    ConfigError, SessionConfig, MAX_WORD_LEN, build_map, load_config,
)
from .differential import d_power
from .freealg import AlgebraElement, TermLimitError
from .ideal import Ideal
from .parsing import (
    ParseError, parse_expression, format_tensor, format_tensor_latex,
    tensor_to_obj,
)
from .scalar import DigitLimitError
from .tensoralg import TensorElement
from .verify import OUTCOMES, SUITES, run_suite

EXIT_OK = OUTCOMES["member"].exit_code
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = OUTCOMES["bound_exceeded"].exit_code
FORMATS = ("text", "latex", "json")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's one argument parser, built on first use and shared by
    every later call; callers parse with it and never change it."""
    parser = argparse.ArgumentParser(
        prog="dcubed",
        description="Exact calculus in a graded differential algebra "
                    "with d^3 = 0 over a free noncommutative algebra.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON session configuration")
    common.add_argument("--preset", metavar="NAME",
                        help="structure-map preset "
                             "(commutative, scalar-twist, constant)")
    common.add_argument("-n", type=int, dest="n", metavar="N",
                        help="generator count (default from config, else 2)")
    common.add_argument("--twist", metavar="EXPR",
                        help="scalar for the scalar-twist preset (default q)")
    common.add_argument("--word-bound", type=int, metavar="N",
                        help="coefficient word-degree bound for the "
                             "membership oracle (>= 0); read only for maps "
                             "on its bounded path, never for a preset")
    common.add_argument("--size-cap", type=int, metavar="N",
                        help="spanning-set size cap for the membership oracle")

    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, formats, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default text)")
        return p

    p_diff = subcommand("diff", FORMATS, "apply the differential k times")
    p_diff.add_argument("expr", help="expression to differentiate")
    p_diff.add_argument("-k", type=int, choices=(1, 2, 3), default=1,
                        help="how many times to apply d (default 1)")
    p_diff.add_argument("--mod-ideal", action="store_true",
                        help="after the result, print its ideal-membership "
                             "verdict as member prints it (with --format "
                             "json, one object holding both)")

    subcommand("reduce", FORMATS,
               "normal form of an expression modulo the ideal").add_argument("expr")
    subcommand("member", ("text", "json"),
               "decide ideal membership, with witness").add_argument("expr")

    p_verify = subcommand("verify", ("text", "json"), "run the identity check suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          choices=("all", *SUITES), metavar="NAME",
                          help=f"suite to run (repeatable): all, {', '.join(SUITES)}")
    p_verify.add_argument("--report", metavar="PATH",
                          help="write the JSON report to this file")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock timings in the report")
    p_verify.add_argument("--seed", type=int, default=0, metavar="N",
                          help="seed for sampled checks (default 0)")
    p_verify.add_argument("--max-word-len", type=int, default=2,
                          choices=range(MAX_WORD_LEN + 1), metavar="MAX_WORD_LEN",
                          help="exhaustive word length for sampled checks "
                               f"(0 to {MAX_WORD_LEN})")
    return parser


def _session(args) -> SessionConfig:
    cfg = SessionConfig(preset="commutative") if args.config is None else load_config(args.config)
    if args.preset is not None:
        cfg.preset = args.preset
        cfg.xi_entries = None
    for name in ("n", "twist"):
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    for bound in fields(cfg.bounds):
        value = getattr(args, bound.name)
        if value is not None:
            setattr(cfg.bounds, bound.name, value)
    return cfg


def _render(e, fmt: str) -> str:
    if fmt == "latex":
        return format_tensor_latex(e)
    if fmt == "json":
        return json.dumps(tensor_to_obj(e), sort_keys=True)
    return format_tensor(e)


def _emit(*lines, end="\n"):
    """Write lines to stdout.  A reader that has gone away (a closed pipe)
    is not an error: stdout is pointed at the null device, so that the
    interpreter's flush at exit stays quiet, and the command goes on to
    return its exit code."""
    try:
        sys.stdout.write("\n".join(lines) + end)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _witness_lines(witness, n):
    def monomial_text(dword, word):
        return format_tensor(TensorElement.monomial(
            n, dword, AlgebraElement.monomial(n, word)))

    lines = []
    for term in witness:
        left = monomial_text(term.left_dword, term.left_word)
        right = monomial_text(term.right_dword, term.right_word)
        lines.append(f"  ({term.coeff}) * [{left}] {term.generator.label()} [{right}]")
    return lines


def _verdict_lines(verdict, n) -> list[str]:
    """A membership verdict as the text lines ``member`` prints."""
    lines = [f"status: {verdict.status}"]
    if verdict.is_member:
        lines.append("witness:" if verdict.witness else "witness: (zero element)")
        lines.extend(_witness_lines(verdict.witness, n))
    elif verdict.residual is not None:
        lines.append(f"residual: {format_tensor(verdict.residual)}")
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    return lines


def _verdict_obj(verdict) -> dict:
    """A membership verdict as the JSON object ``member --format json`` prints."""
    obj = {"status": verdict.status}
    if verdict.witness is not None:
        obj["witness"] = [t.to_dict() for t in verdict.witness]
    if verdict.residual is not None:
        obj["residual"] = tensor_to_obj(verdict.residual)
    if verdict.detail:
        obj["detail"] = verdict.detail
    return obj


def cmd_diff(args, cfg: SessionConfig, ideal: Ideal) -> int:
    result = d_power(ideal.calc, parse_expression(args.expr, ideal.calc), args.k)
    one_document = args.mod_ideal and args.format == "json"
    if not one_document:  # printed before the oracle runs
        _emit(_render(result, args.format))
    if not args.mod_ideal:
        return EXIT_OK
    verdict = ideal.membership(result)
    if one_document:
        _emit(json.dumps({"result": tensor_to_obj(result),
                          "membership": _verdict_obj(verdict)}, sort_keys=True))
    else:  # member has no latex form: its text lines follow a latex result too
        _emit(*_verdict_lines(verdict, ideal.n))
    return OUTCOMES[verdict.status].exit_code


def cmd_reduce(args, cfg: SessionConfig, ideal: Ideal) -> int:
    verdict = ideal.membership(parse_expression(args.expr, ideal.calc))
    if verdict.status == "bound_exceeded":
        print(f"error: {verdict.detail}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    # a member has no residual: its normal form is zero
    _emit(_render(verdict.residual or TensorElement.zero(ideal.n), args.format))
    return EXIT_OK


def cmd_member(args, cfg: SessionConfig, ideal: Ideal) -> int:
    verdict = ideal.membership(parse_expression(args.expr, ideal.calc))
    if args.format == "json":
        _emit(json.dumps(_verdict_obj(verdict), sort_keys=True))
    else:
        _emit(*_verdict_lines(verdict, ideal.n))
    return OUTCOMES[verdict.status].exit_code


def cmd_verify(args, cfg: SessionConfig, ideal: Ideal) -> int:
    suites = tuple(args.suite) if args.suite else ("all",)
    try:  # opened first, so that a bad path fails before the suite runs
        handle = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as err:
        raise ConfigError(f"cannot write report: {err}") from None
    with handle or contextlib.nullcontext():
        report = run_suite(ideal, suites, seed=args.seed,
                           max_word_len=args.max_word_len, preset=cfg.preset or "custom")
        obj = report.to_dict(with_timing=args.timings)
        if args.format == "json":
            _emit(json.dumps(obj, sort_keys=True))
        else:
            _emit(report.to_text(with_timing=args.timings), end="")
        if handle:
            print(json.dumps(obj, sort_keys=True, indent=2), file=handle)
    return report.exit_code


COMMANDS = {"diff": cmd_diff, "reduce": cmd_reduce,
            "member": cmd_member, "verify": cmd_verify}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = _session(args)
        bmap = build_map(cfg)
        ideal = Ideal(Calculus(bmap), cfg.bounds)
        return COMMANDS[args.command](args, cfg, ideal)
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DigitLimitError, TermLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
