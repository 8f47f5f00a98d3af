"""``--format json`` output reads back to the library's own answer.

Random queries on the three presets at n = 2 go through ``cli.main``; the
JSON it prints is read back with the readers below and compared with what
the library computes in-process.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dcubed.cli import main
from dcubed.scalar import Scalar
from dcubed.freealg import AlgebraElement
from dcubed.tensoralg import TensorElement
from dcubed.differential import d_power
from dcubed.ideal import WitnessTerm
from dcubed.parsing import format_tensor, parse_algebra, parse_expression

from conftest import generator
from test_oracle_properties import (
    IDEALS, N, combination, element, elements, presets, products,
)

examples = settings(deadline=None, max_examples=25)


def cli_json(name, *argv, expr):
    """Exit code and parsed stdout of one ``--format json`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):  # "--": expr may start with a minus
        code = main([*argv, "--preset", name, "-n", str(N), "--format", "json", "--", expr])
    return code, json.loads(out.getvalue())


def tensor_from_obj(obj):
    """Inverse of ``parsing.tensor_to_obj``."""
    out = TensorElement.zero(N)
    for term in obj:
        coeff = AlgebraElement(N, {
            tuple(t["word"]): Scalar(Fraction(t["scalar"]["a"]), Fraction(t["scalar"]["b"]))
            for t in term["coefficient"]})
        out = out + TensorElement(N, {tuple(map(tuple, term["letters"])): coeff})
    return out


def witness_from_obj(obj, ideal):
    """Inverse of ``WitnessTerm.to_dict`` over a whole witness of ideal."""
    return [WitnessTerm(tuple(map(tuple, t["left"]["letters"])), tuple(t["left"]["word"]),
                        generator(ideal, t["family"], t["i"], t["j"], t.get("k")),
                        tuple(map(tuple, t["right"]["letters"])), tuple(t["right"]["word"]),
                        parse_algebra(t["coefficient"], N).constant_value())
            for t in obj]


@examples
@given(presets, elements(2), st.integers(1, 3))
def test_diff_json_is_the_iterated_differential(name, terms, k):
    text = format_tensor(element(terms))
    code, obj = cli_json(name, "diff", "-k", str(k), expr=text)
    assert code == 0
    calc = IDEALS[name].calc
    assert tensor_from_obj(obj) == d_power(calc, parse_expression(text, calc), k)


@examples
@given(presets, st.lists(products, min_size=1, max_size=3))
def test_member_json_witness_re_expands(name, terms):
    ideal = IDEALS[name]
    query = combination(ideal, terms)
    code, obj = cli_json(name, "member", expr=format_tensor(query))
    assert (code, obj["status"]) == (0, "member")
    assert ideal.expand_witness(witness_from_obj(obj["witness"], ideal)) == query


@examples
@given(presets, elements(2), st.integers(1, N))
def test_non_member_json_residual(name, terms, i):
    # a grade-1 term keeps the query out of the ideal; its word is longer
    # than any the drawn terms carry, so nothing cancels it
    e = element(terms) + TensorElement.of_letter(N, 1, i, AlgebraElement.monomial(N, (i, i)))
    code, obj = cli_json(name, "member", expr=format_tensor(e))
    verdict = IDEALS[name].membership(e)
    assert (code, obj["status"]) == (1, verdict.status)
    assert tensor_from_obj(obj["residual"]) == verdict.residual
