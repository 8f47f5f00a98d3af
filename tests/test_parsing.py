import random

import pytest

from dcubed.scalar import Scalar, Q, q_integer
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import TensorElement, tensor_mul
from dcubed.parsing import (
    ParseError, _Parser, parse_expression, parse_algebra,
    format_tensor, format_algebra, format_tensor_latex, tensor_to_obj,
)

from conftest import PRESET_NAMES, random_algebra, random_tensor, x


@pytest.fixture
def calc():
    return Calculus(preset_map("commutative", 2))


def test_letters_and_tensor_product(calc):
    got = parse_expression("d(x1) (*) d(x2) * x1", calc)
    expected = TensorElement.monomial(2, ((1, 1), (1, 2)), x(2, 1))
    assert got == expected
    assert parse_expression("dx1 (*) dx2 * x1", calc) == expected
    assert parse_expression("dx1 ⊗ dx2 * x1", calc) == expected


def test_push_through_on_parse(calc):
    got = parse_expression("x1 * d(x2)", calc)
    expected = TensorElement.zero(2)
    for k in (1, 2):
        e = calc.bmap.entry(1, 2, k)
        if e:
            expected = expected + TensorElement.of_letter(2, 1, k, e)
    assert got == expected


def test_grade_three_letter_rejected(calc):
    with pytest.raises(ParseError) as err:
        parse_expression("d3x1", calc)
    assert "d^3 x^i = 0" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("d5x2", calc)
    # only dx<i> and d2x<i> spell letters: no grade is read from other digits
    for name in ("d0x1", "d1x1", "d02x1"):
        with pytest.raises(ParseError) as err:
            parse_expression(f"x1 + {name}", calc)
        assert err.value.position == 5 and "d^3" not in str(err.value)


def test_d_requires_grade_zero(calc):
    with pytest.raises(ParseError) as err:
        parse_expression("d(dx1)", calc)
    assert "grade-0" in str(err.value)


def test_scalars(calc):
    assert parse_expression("[3]_q", calc).is_zero
    got = parse_expression("[2]_q", calc)
    assert got == TensorElement.of_algebra(AlgebraElement.scalar(2, q_integer(2)))
    got = parse_expression("1/2 - q", calc)
    assert got == TensorElement.of_algebra(
        AlgebraElement.scalar(2, Scalar(1, 0) / 2 - Q))
    assert parse_expression("-x1", calc) == \
        TensorElement.of_algebra(-x(2, 1))


def test_juxtaposition(calc):
    assert parse_expression("x1 x2", calc) == parse_expression("x1 * x2", calc)
    assert parse_expression("2 q x1", calc) == \
        TensorElement.of_algebra(x(2, 1).scale(Scalar(0, 2)))
    assert parse_expression("(x1 + x2) x1", calc) == \
        parse_expression("x1 x1 + x2 x1", calc)


def test_unknown_generator(calc):
    with pytest.raises(ParseError):
        parse_expression("x3", calc)
    with pytest.raises(ParseError):
        parse_expression("dx9", calc)


def test_error_positions(calc):
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + ", calc)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_expression("x1 ) x2", calc)
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_expression("x1 + %", calc)
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_expression("x1 + 3/0", calc)
    assert err.value.position == 5


def test_large_q_integer(calc):
    assert parse_expression("[1000000]_q", calc) \
        == TensorElement.of_algebra(AlgebraElement.one(2))


@pytest.mark.parametrize("src", ["(" * 400 + "x1" + ")" * 400,
                                 "-" * 400 + "x1",
                                 "x1 * (" * 400 + "x2" + ")" * 400],
                         ids=["parentheses", "minus", "products"])
def test_deep_nesting_is_a_parse_error(calc, src):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression(src, calc)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_algebra(src, 2)


def test_moderate_nesting_parses(calc):
    assert parse_expression("(" * 150 + "x1" + ")" * 150, calc) \
        == TensorElement.of_algebra(x(2, 1))


def test_leading_minus_is_the_prefix_minus(calc):
    def t(*words):
        return TensorElement.of_algebra(x(2, *words))

    dx1 = TensorElement.of_letter(2, 1, 1)
    assert parse_expression("-x1 x2", calc) == -t(1, 2)
    assert parse_expression("- x1 + x2", calc) == t(2) - t(1)
    assert parse_expression("-dx1 (*) x1", calc) == -tensor_mul(calc.bmap, dx1, t(1))
    assert parse_expression("--x1", calc) == t(1)


def test_prefix_minus_depth_limit(calc):
    # every prefix '-' is one factor level, and the operand is one more
    depth = _Parser.MAX_DEPTH
    assert parse_expression("-" * (depth - 1) + "x1", calc) \
        == -TensorElement.of_algebra(x(2, 1))
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression("-" * depth + "x1", calc)


def test_parse_algebra_mode():
    u = parse_algebra("q*x1*x2 - 2", 2)
    assert u == x(2, 1, 2).scale(Q) - AlgebraElement.scalar(2, 2)
    with pytest.raises(ParseError):
        parse_algebra("dx1", 2)
    with pytest.raises(ParseError):
        parse_algebra("d(x1)", 2)


def test_format_zero_and_simple(calc):
    assert format_tensor(TensorElement.zero(2)) == "0"
    assert format_algebra(AlgebraElement.zero(2)) == "0"
    assert format_tensor(TensorElement.of_letter(2, 1, 1)) == "dx1"
    assert format_tensor(TensorElement.of_letter(2, 2, 2)) == "d2x2"


def test_str_is_the_text_format():
    rng = random.Random(7)
    for _ in range(20):
        a = random_algebra(rng, 2, 2, 3)
        e = random_tensor(rng, 2, max_grade=2, max_word_len=2, max_terms=3)
        assert str(a) == format_algebra(a)
        assert str(e) == format_tensor(e)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_round_trip_random_elements(name):
    calc = Calculus(preset_map(name, 2))
    rng = random.Random(101)
    for _ in range(60):
        e = random_tensor(rng, 2, max_grade=3, max_word_len=2, max_terms=4)
        text = format_tensor(e)
        assert parse_expression(text, calc) == e, text


def test_round_trip_negative_and_mixed(calc):
    e = TensorElement.monomial(2, ((1, 1),), x(2, 1).scale(-1)) \
        + TensorElement.monomial(2, ((2, 2), (1, 1)),
                                 x(2, 2).scale(Scalar(-1, -1)) + AlgebraElement.one(2)) \
        + TensorElement.of_algebra(AlgebraElement.scalar(2, Scalar(0, -2)))
    assert parse_expression(format_tensor(e), calc) == e


def test_latex_output(calc):
    e = TensorElement.monomial(2, ((2, 1), (1, 2)), x(2, 1))
    tex = format_tensor_latex(e)
    assert tex == r"d^{2}x^{1}\otimes dx^{2}\,x^{1}"
    assert format_tensor_latex(TensorElement.zero(2)) == "0"
    # signs follow the text form's rule
    for src, tex in (("x1 - x2", r"x^{1} - x^{2}"),
                     ("-q d2x2", r"-d^{2}x^{2}\,q"),
                     ("dx1 * (x1 - 2 x2)", r"dx^{1}\,\left(x^{1} - 2\,x^{2}\right)")):
        assert format_tensor_latex(parse_expression(src, calc)) == tex


def test_structured_output(calc):
    e = TensorElement.monomial(2, ((1, 1),), x(2, 2).scale(Q))
    obj = tensor_to_obj(e)
    assert obj == [{"letters": [[1, 1]],
                    "coefficient": [{"word": [2], "scalar": {"a": "0", "b": "1"}}]}]
