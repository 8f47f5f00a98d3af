"""Command-line interface.

Subcommands: ``diff`` (iterated differential of an expression), ``reduce``
(normal form modulo the ideal: the membership residual, zero for members),
``member`` (ideal membership with witness), ``verify`` (run the identity
check suites and emit a report).

Exit codes: 0 ok, 1 check failure / non-membership, 2 parse or config
error, 3 inconclusive (bounds exhausted).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields

from .calculus import Calculus
from .config import (
    ConfigError, SessionConfig, FORMATS, MAX_WORD_LEN, build_map, load_config,
)
from .differential import d_power
from .freealg import AlgebraElement
from .ideal import Ideal, label
from .parsing import (
    ParseError, parse_expression, format_tensor, format_tensor_latex,
    tensor_to_obj,
)
from .tensoralg import TensorElement
from .verify import OUTCOMES, SUITES, run_suite

EXIT_OK = OUTCOMES["member"].exit_code
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = OUTCOMES["bound_exceeded"].exit_code


def build_arg_parser() -> argparse.ArgumentParser:
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
    common.add_argument("--format", choices=FORMATS, dest="format",
                        help="output format (default text)")
    common.add_argument("--word-bound", type=int, metavar="N",
                        help="coefficient word-degree bound for the "
                             "membership oracle (>= 0)")
    common.add_argument("--size-cap", type=int, metavar="N",
                        help="spanning-set size cap for the membership oracle")
    common.add_argument("--seed", type=int, metavar="N",
                        help="seed for sampled checks")

    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser("diff", parents=[common],
                            help="apply the differential k times")
    p_diff.add_argument("expr", help="expression to differentiate")
    p_diff.add_argument("-k", type=int, choices=(1, 2, 3), default=1,
                        help="how many times to apply d (default 1)")
    p_diff.add_argument("--mod-ideal", action="store_true",
                        help="append the ideal-membership verdict")

    p_reduce = sub.add_parser("reduce", parents=[common],
                              help="normal form of an expression modulo the ideal")
    p_reduce.add_argument("expr")

    p_member = sub.add_parser("member", parents=[common],
                              help="decide ideal membership, with witness")
    p_member.add_argument("expr")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the identity check suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          choices=("all",) + SUITES, metavar="NAME",
                          help=f"suite to run (repeatable): all, {', '.join(SUITES)}")
    p_verify.add_argument("--report", metavar="PATH",
                          help="write the JSON report to this file")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock timings in the JSON report")
    p_verify.add_argument("--max-word-len", type=int, default=2,
                          help="exhaustive word length for sampled checks "
                               f"(0 to {MAX_WORD_LEN})")
    return parser


def _session(args) -> SessionConfig:
    cfg = load_config(args.config) if args.config else SessionConfig()
    if args.preset is not None:
        cfg.preset = args.preset
        cfg.xi_entries = None
    if args.config is None and cfg.preset is None and cfg.xi_entries is None:
        cfg.preset = "commutative"
    if args.n is not None:
        cfg.n = args.n
    if args.twist is not None:
        cfg.twist = args.twist
    if args.format is not None:
        cfg.format = args.format
    if args.seed is not None:
        cfg.seed = args.seed
    for bound in fields(cfg.bounds):
        value = getattr(args, bound.name)
        if value is not None:
            setattr(cfg.bounds, bound.name, value)
    cfg.validate()
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
        name = label(term.family, term.i, term.j, term.k)
        lines.append(f"  ({term.coeff}) * [{left}] {name} [{right}]")
    return lines


def cmd_diff(args, cfg: SessionConfig, ideal: Ideal) -> int:
    expr = parse_expression(args.expr, ideal.calc)
    result = d_power(ideal.calc, expr, args.k)
    _emit(_render(result, cfg.format))
    if not args.mod_ideal:
        return EXIT_OK
    verdict = ideal.membership(result)
    if verdict.is_member:
        _emit("member of I_q")
    elif verdict.status == "bound_exceeded":
        _emit(f"membership inconclusive: {verdict.detail}")
    else:
        _emit("not a member of I_q at the given bounds",
              f"residual: {format_tensor(verdict.residual)}")
    return OUTCOMES[verdict.status].exit_code


def cmd_reduce(args, cfg: SessionConfig, ideal: Ideal) -> int:
    verdict = ideal.membership(parse_expression(args.expr, ideal.calc))
    if verdict.status == "bound_exceeded":
        print(f"reduce inconclusive: {verdict.detail}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    # a member has no residual: its normal form is zero
    _emit(_render(verdict.residual or TensorElement.zero(ideal.n), cfg.format))
    return EXIT_OK


def cmd_member(args, cfg: SessionConfig, ideal: Ideal) -> int:
    expr = parse_expression(args.expr, ideal.calc)
    verdict = ideal.membership(expr)
    if cfg.format == "json":
        obj = {"status": verdict.status}
        if verdict.witness is not None:
            obj["witness"] = [t.to_dict() for t in verdict.witness]
        if verdict.residual is not None:
            obj["residual"] = tensor_to_obj(verdict.residual)
        if verdict.detail:
            obj["detail"] = verdict.detail
        _emit(json.dumps(obj, sort_keys=True))
    else:
        lines = [f"status: {verdict.status}"]
        if verdict.is_member:
            lines.append("witness:" if verdict.witness else "witness: (zero element)")
            lines.extend(_witness_lines(verdict.witness, ideal.n))
        elif verdict.residual is not None:
            lines.append(f"residual: {format_tensor(verdict.residual)}")
        if verdict.detail:
            lines.append(f"detail: {verdict.detail}")
        _emit(*lines)
    return OUTCOMES[verdict.status].exit_code


def cmd_verify(args, cfg: SessionConfig, ideal: Ideal) -> int:
    suites = tuple(args.suite) if args.suite else ("all",)
    try:  # opened first, so that a bad path fails before the suite runs
        handle = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as err:
        raise ConfigError(f"cannot write report: {err}") from None
    with handle or contextlib.nullcontext():
        report = run_suite(ideal, suites, seed=cfg.seed,
                           max_word_len=args.max_word_len, preset=cfg.preset or "custom")
        obj = report.to_dict(with_timing=args.timings)
        if cfg.format == "json":
            _emit(json.dumps(obj, sort_keys=True))
        else:
            _emit(report.to_text(), end="")
        if handle:
            print(json.dumps(obj, sort_keys=True, indent=2), file=handle)
    return report.exit_code


COMMANDS = {"diff": cmd_diff, "reduce": cmd_reduce,
            "member": cmd_member, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not 0 <= args.max_word_len <= MAX_WORD_LEN:
        parser.error(f"--max-word-len must be between 0 and {MAX_WORD_LEN}")
    try:
        cfg = _session(args)
        bmap = build_map(cfg)
        ideal = Ideal(Calculus(bmap), cfg.bounds)
        return COMMANDS[args.command](args, cfg, ideal)
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
