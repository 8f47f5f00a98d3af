"""Expression grammar, parser and printers for algebra and tensor elements.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor ( ('*' | '(*)' | '⊗')? factor )*      # juxtaposition multiplies
    factor  := '-' factor | scalar | generator | letter
             | 'd' '(' expr ')' | '(' expr ')'
    scalar  := rational | 'q' | '[' int ']_q'
    generator := 'x' digits            # x1 .. xn
    letter  := 'dx' digits | 'd2x' digits

``d(...)`` applies the differential during evaluation and only accepts a
grade-0 argument; higher forms are entered through letters.  ``d3x1`` and
beyond are rejected outright: d^3 x^i = 0.  No other spelling names a
letter: ``d1x1``, ``d0x1`` and ``d02x1`` are parse errors.

The printers emit exactly this grammar, so every printed element parses
back to an equal value.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .scalar import Scalar, ONE, format_rational, format_scalar, join_signed, q_integer
from .freealg import AlgebraElement, check_terms
from .tensoralg import TensorElement, tensor_mul
from .calculus import Calculus


class ParseError(ValueError):
    """Syntax or evaluation error, annotated with a character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<tensor>\(\*\)|⊗)
  | (?P<qint>\[\s*\d+\s*\]_q)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[+\-*()])
""", re.VERBOSE)

_LETTER_NAME_RE = re.compile(r"^d(\d*)x(\d+)$")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if not m.group("ws"):
            kind = m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive-descent evaluator producing canonical elements directly."""

    # Factors ('(' ... ')', '-' factor, 'd(' ... ')') may nest this deep;
    # deeper input is a ParseError instead of a RecursionError.
    MAX_DEPTH = 200

    def __init__(self, src: str, n: int, calc: Calculus | None):
        self.n = n
        self.calc = calc  # None = algebra-only mode (no letters, no d)
        self.tokens = _tokenize(src)
        self.idx = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ParseError(f"expected {op!r}", pos)

    def fail(self, message):
        _, _, pos = self.peek()
        raise ParseError(message, pos)

    def integer(self, digits: str, pos: int) -> int:
        """int(digits); past Python's int/str digit limit, a ParseError."""
        try:
            return int(digits)
        except ValueError:
            raise ParseError(f"integer literal of {len(digits)} digits is too long",
                             pos) from None

    # -- value helpers ---------------------------------------------------------

    def _of_scalar(self, s: Scalar) -> TensorElement:
        return TensorElement.of_algebra(AlgebraElement.scalar(self.n, s))

    def _mul(self, a: TensorElement, b: TensorElement) -> TensorElement:
        if self.calc is None:
            # algebra-only mode keeps everything in grade 0
            ua = a.terms.get((), AlgebraElement.zero(self.n))
            ub = b.terms.get((), AlgebraElement.zero(self.n))
            product = ua * ub
            check_terms(len(product.terms))
            return TensorElement.of_algebra(product)
        return tensor_mul(self.calc.bmap, a, b)  # checks its own result

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> TensorElement:
        value = self.expr()
        kind, tok_value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {tok_value!r}", pos)
        return value

    def expr(self) -> TensorElement:
        out = self.term()  # a leading '-' is the factor's prefix '-'
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def _starts_factor(self):
        kind, value, _ = self.peek()
        if kind in ("qint", "number", "name"):
            return True
        return kind == "op" and value == "("

    def term(self) -> TensorElement:
        out = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "tensor" or (kind == "op" and value == "*"):
                self.advance()
                out = self._mul(out, self.factor())
            elif self._starts_factor():
                # juxtaposition; a '-' always binds as subtraction instead
                out = self._mul(out, self.factor())
            else:
                return out

    def factor(self) -> TensorElement:
        if self.depth >= self.MAX_DEPTH:
            self.fail(f"expression nested deeper than {self.MAX_DEPTH} levels")
        self.depth += 1
        try:
            return self._factor()
        finally:
            self.depth -= 1

    def _factor(self) -> TensorElement:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        if kind == "op" and value == "(":
            self.advance()
            out = self.expr()
            self.expect_op(")")
            return out
        if kind == "qint":
            self.advance()
            n = self.integer(re.search(r"\d+", value).group(), pos)
            return self._of_scalar(q_integer(n))
        if kind == "number":
            self.advance()
            num, _, den = value.partition("/")
            try:
                return self._of_scalar(Scalar(Fraction(self.integer(num, pos),
                                                       self.integer(den or "1", pos))))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {value!r}", pos) from None
        if kind == "name":
            return self.name_factor()
        raise ParseError(f"expected a value, found {value!r}" if value
                         else "unexpected end of input", pos)

    def name_factor(self) -> TensorElement:
        kind, value, pos = self.advance()
        if value == "q":
            return self._of_scalar(Scalar(0, 1))
        if value == "d":
            if self.calc is None:
                raise ParseError("differential not allowed here", pos)
            self.expect_op("(")
            inner = self.expr()
            self.expect_op(")")
            if any(dword for dword in inner.terms):
                raise ParseError(
                    "d(...) takes a grade-0 argument; enter forms with letters", pos)
            from .differential import d as apply_d
            return apply_d(self.calc, inner)
        if value.startswith("x") and value[1:].isdigit():
            index = self.integer(value[1:], pos)
            if not 1 <= index <= self.n:
                raise ParseError(f"unknown generator {value!r} (n = {self.n})", pos)
            return TensorElement.of_algebra(AlgebraElement.generator(self.n, index))
        m = _LETTER_NAME_RE.match(value)
        if m:
            if self.calc is None:
                raise ParseError("letters not allowed here", pos)
            spelled = m.group(1)
            if spelled not in ("", "2"):  # only dx<i> and d2x<i> spell letters
                if not spelled.startswith("0") and self.integer(spelled, pos) > 2:
                    raise ParseError(f"no grade-{spelled} letters: d^3 x^i = 0", pos)
                raise ParseError(f"unknown letter {value!r}: letters are dx<i> and d2x<i>",
                                 pos)
            index = self.integer(m.group(2), pos)
            if not 1 <= index <= self.n:
                raise ParseError(f"unknown generator index in {value!r} (n = {self.n})",
                                 pos)
            return TensorElement.of_letter(self.n, 2 if spelled else 1, index)
        raise ParseError(f"unknown name {value!r}", pos)


def parse_expression(src: str, calc: Calculus) -> TensorElement:
    """Parse a tensor-algebra expression against a calculus context."""
    return _Parser(src, calc.n, calc).parse()


def parse_algebra(src: str, n: int) -> AlgebraElement:
    """Parse a plain algebra expression (scalars, generators, + - *)."""
    value = _Parser(src, n, None).parse()
    return value.terms.get((), AlgebraElement.zero(n))


# -- printers ----------------------------------------------------------------


# How one output format spells the pieces of a term: ``scalar``, ``word``
# and ``letter`` print a Scalar, a nonempty word and a (grade, index)
# letter; ``tensor``, ``times`` and ``coeff`` go between letters, between a
# scalar and a word, and between letters and their coefficient; ``group``
# is the format string around a compound factor.
_Notation = namedtuple("_Notation", "scalar word letter tensor times coeff group")

_FRACTION = re.compile(r"(-?\d+)/(\d+)")

_TEXT = _Notation(
    scalar=format_scalar,
    word=lambda word: "*".join(f"x{i}" for i in word),
    letter=lambda grade, i: f"dx{i}" if grade == 1 else f"d2x{i}",
    tensor=" (*) ", times="*", coeff=" * ", group="({})")
_LATEX = _Notation(
    scalar=lambda s: _FRACTION.sub(r"\\frac{\1}{\2}", format_scalar(s)).replace("*q", "q"),
    word=lambda word: "".join(rf"x^{{{i}}}" for i in word),
    letter=lambda grade, i: rf"dx^{{{i}}}" if grade == 1 else rf"d^{{2}}x^{{{i}}}",
    tensor=r"\otimes ", times=r"\,", coeff=r"\,", group=r"\left({}\right)")


def _split_sign(s: Scalar):
    if s.A < 0 or (s.A == 0 and s.B < 0):
        return "-", -s
    return "+", s


def _term(nt: _Notation, word, coeff: Scalar, head=""):
    """(sign, text) of the letters ``head`` times ``coeff * word``."""
    sign, mag = _split_sign(coeff)
    tail = []
    if mag != ONE or not (word or head):
        text = nt.scalar(mag)
        tail.append(nt.group.format(text) if " " in text else text)
    if word:
        tail.append(nt.word(word))
    if not tail:
        return sign, head
    text = nt.times.join(tail)
    return sign, head + nt.coeff + text if head else text


def _algebra(nt: _Notation, u: AlgebraElement) -> str:
    if u.is_zero:
        return "0"
    return join_signed(_term(nt, w, c) for w, c in u.sorted_terms())


def _tensor(nt: _Notation, e: TensorElement) -> str:
    if e.is_zero:
        return "0"
    parts = []
    for dword, coeff in e.sorted_terms():
        head = nt.tensor.join(nt.letter(a, i) for a, i in dword)
        if not dword or len(coeff.terms) == 1:
            parts.extend(_term(nt, w, c, head) for w, c in coeff.sorted_terms())
        else:
            parts.append(("+", head + nt.coeff + nt.group.format(_algebra(nt, coeff))))
    return join_signed(parts)


def format_algebra(u: AlgebraElement) -> str:
    return _algebra(_TEXT, u)


def format_tensor(e: TensorElement) -> str:
    return _tensor(_TEXT, e)


def format_tensor_latex(e: TensorElement) -> str:
    return _tensor(_LATEX, e)


# -- structured (JSON-ready) serialization ------------------------------------


def scalar_to_obj(s: Scalar):
    return {"a": format_rational(s.A, s.D), "b": format_rational(s.B, s.D)}


def algebra_to_obj(u: AlgebraElement):
    return [{"word": list(w), "scalar": scalar_to_obj(c)}
            for w, c in u.sorted_terms()]


def tensor_to_obj(e: TensorElement):
    return [{"letters": [[a, i] for a, i in dword],
             "coefficient": algebra_to_obj(coeff)}
            for dword, coeff in e.sorted_terms()]
