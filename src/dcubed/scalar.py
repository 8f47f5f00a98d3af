"""Exact arithmetic in Q(q), where q is a primitive cube root of unity.

Every element is kept in the canonical form ``a + b*q`` with exact rational
``a``, ``b``; the square of the root never appears because it is rewritten
through the minimal polynomial ``q**2 + q + 1 = 0``.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Scalar:
    """An element ``a + b*q`` of Q(q) with q a primitive cube root of unity.

    Values are immutable by convention.  All arithmetic is exact; the
    identities ``q**3 == 1`` and ``1 + q + q**2 == 0`` hold on the nose.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, SCALAR_TYPES):
            return Scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    def __add__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + b1 q)(a2 + b2 q) = a1 a2 + (a1 b2 + a2 b1) q + b1 b2 q^2,
        # then q^2 = -1 - q.
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        other = Scalar.coerce(other)
        cross = self.b * other.b
        return Scalar(self.a * other.a - cross,
                      self.a * other.b + self.b * other.a - cross)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; the conjugate is a + b*q^2 = (a-b) - b*q."""
        norm = self.a * self.a - self.a * self.b + self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return Scalar((self.a - self.b) / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inv()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inv()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        out = ONE
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, SCALAR_TYPES):
                return NotImplemented
            other = Scalar(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a rational hashes like the Fraction or int it equals
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})"


# What counts as a scalar: promoted to Scalar wherever one is expected.
# Scalar comes first: a check against Fraction goes through its ABC
# metaclass, which is slow, and most operands are Scalars.
SCALAR_TYPES = (Scalar, int, Fraction)

ZERO = Scalar(0)
ONE = Scalar(1)
Q = Scalar(0, 1)
# q^2 in canonical form.
Q2 = Scalar(-1, -1)

_Q_POWERS = (ONE, Q, Q2)


def q_power(k: int) -> Scalar:
    """q**k for any integer k; negative exponents use q**-1 == q**2."""
    return _Q_POWERS[k % 3]


# [n]_q for n mod 3: every full period 1 + q + q^2 of the sum vanishes.
_Q_INTEGERS = (ZERO, ONE, Scalar(1, 1))


def q_integer(n: int) -> Scalar:
    """The q-deformed integer 1 + q + ... + q**(n-1); zero for n == 0."""
    if n < 0:
        raise ValueError("q-integers are defined for n >= 0")
    return _Q_INTEGERS[n % 3]


def format_scalar(s: Scalar) -> str:
    """Canonical text form: "0", "5/3", "q", "-2*q", "1 + q", "1/2 - q"."""
    if not s:
        return "0"
    parts = []
    if s.a:
        parts.append(str(s.a))
    if s.b:
        if s.b == 1:
            q_part = "q"
        elif s.b == -1:
            q_part = "-q"
        else:
            q_part = f"{s.b}*q"
        if parts:
            if q_part.startswith("-"):
                parts.append("- " + q_part[1:])
            else:
                parts.append("+ " + q_part)
        else:
            parts.append(q_part)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+(?:/\d+)?)\s*(?P<star>\*\s*q)?"
    r"|(?P<bare_q>q)"
    r")\s*"
)


def parse_scalar(text: str) -> Scalar:
    """Parse the output of :func:`format_scalar` (and obvious variants)."""
    pos = 0
    out = ZERO
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad scalar syntax at position {pos}: {text!r}")
        if seen and m.group("sign") is None:
            raise ValueError(f"missing '+'/'-' at position {pos}: {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("bare_q"):
            out = out + Scalar(0, sign)
        else:
            try:
                coeff = Fraction(m.group("coeff")) * sign
            except ZeroDivisionError:
                raise ValueError(f"zero denominator at position {pos}: {text!r}") from None
            out = out + (Scalar(0, coeff) if m.group("star") else Scalar(coeff))
        seen = True
        pos = m.end()
    if not seen:
        raise ValueError(f"empty scalar: {text!r}")
    return out
