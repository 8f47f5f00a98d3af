"""Exact arithmetic in Q(q), where q is a primitive cube root of unity.

Every element is kept in the canonical form ``(A + B*q) / D`` with Python
ints ``A``, ``B``, ``D``, where ``D > 0`` and ``gcd(A, B, D) == 1``, so equal
values have equal fields.  The square of the root never appears because it
is rewritten through the minimal polynomial ``q**2 + q + 1 = 0``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd


class Scalar:
    """An element ``(A + B*q) / D`` of Q(q), q a primitive cube root of unity.

    ``Scalar(a, b)`` builds ``a + b*q`` from ints or Fractions, and any other
    part (a float, a string) raises ``TypeError``; the rational parts read
    back as the Fractions ``.a`` and ``.b``.  Values are immutable by
    convention.  All arithmetic is exact; the identities ``q**3 == 1`` and
    ``1 + q + q**2 == 0`` hold on the nose.
    """

    __slots__ = ("A", "B", "D")

    def __init__(self, a=0, b=0):
        if a.__class__ is int and b.__class__ is int:
            self.A, self.B, self.D = a, b, 1
            return
        if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
            raise TypeError(f"scalar parts must be ints or Fractions, got {a!r}, {b!r}")
        made = Scalar._make(a.numerator * b.denominator, b.numerator * a.denominator,
                            a.denominator * b.denominator)
        self.A, self.B, self.D = made.A, made.B, made.D

    @classmethod
    def _make(cls, A, B, D):
        """(A + B q) / D for D > 0, brought to canonical form: the one
        place a common factor of the fields is divided out."""
        if D != 1:
            g = gcd(A, B, D)
            if g != 1:
                A //= g
                B //= g
                D //= g
        out = object.__new__(cls)
        out.A = A
        out.B = B
        out.D = D
        return out

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    @staticmethod
    def coerce(value) -> "Scalar":
        """``value`` as a Scalar by the operand rule (see :func:`_operand`);
        anything else raises ``TypeError``."""
        out = value if value.__class__ is Scalar else _operand(value)
        if out is None:
            raise TypeError(f"cannot interpret {value!r} as a scalar")
        return out

    def __add__(self, other):
        if other.__class__ is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        d1, d2 = self.D, other.D
        if d1 == d2:
            return Scalar._make(self.A + other.A, self.B + other.B, d1)
        return Scalar._make(self.A * d2 + other.A * d1,
                            self.B * d2 + other.B * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return Scalar._make(-self.A, -self.B, self.D)

    def __mul__(self, other):
        # (A1 + B1 q)(A2 + B2 q) = A1 A2 + (A1 B2 + A2 B1) q + B1 B2 q^2,
        # then q^2 = -1 - q; the denominators multiply.
        if other.__class__ is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        cross = b1 * b2
        return Scalar._make(a1 * a2 - cross, a1 * b2 + a2 * b1 - cross,
                            self.D * other.D)

    __rmul__ = __mul__

    @staticmethod
    def sub_scaled(target: dict, source: dict, factor: "Scalar") -> None:
        """``target[k] -= source[k] * factor`` for every key k of source, in
        place, over dicts of Scalars.

        The kernel of exact elimination.  Each product is formed by the rule
        of :meth:`__mul__` and the difference from it in ints, and the result
        is brought to canonical form once, by one :meth:`_make`; a key whose
        value cancels to zero is dropped, so target stores no zero.
        """
        fa, fb, fd = factor.A, factor.B, factor.D
        make = Scalar._make
        for key, value in source.items():
            a, b = value.A, value.B
            cross = b * fb
            pa, pb, pd = a * fa - cross, a * fb + fa * b - cross, value.D * fd
            cur = target.get(key)
            if cur is None:
                if pa or pb:
                    target[key] = make(-pa, -pb, pd)
                continue
            d = cur.D
            if d == pd:
                A, B = cur.A - pa, cur.B - pb
            else:
                A, B, d = cur.A * pd - pa * d, cur.B * pd - pb * d, d * pd
            if A or B:
                target[key] = make(A, B, d)
            else:
                del target[key]

    def inv(self) -> "Scalar":
        """Multiplicative inverse: D times the conjugate (A - B) - B*q over
        the norm A^2 - AB + B^2, which is positive for a nonzero value."""
        a, b = self.A, self.B
        norm = a * a - a * b + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return Scalar._make(self.D * (a - b), -self.D * b, norm)

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
        if other.__class__ is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.D == other.D

    def __hash__(self):
        # a rational hashes like the Fraction or int it equals
        if self.B:
            return hash((self.A, self.B, self.D))
        return hash(self.A) if self.D == 1 else hash(Fraction(self.A, self.D))

    def __bool__(self):
        return bool(self.A or self.B)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})"


# What counts as a scalar: promoted to Scalar wherever one is expected.
# Scalar comes first: a check against Fraction goes through its ABC
# metaclass, which is slow, and most operands are Scalars.
SCALAR_TYPES = (Scalar, int, Fraction)


def _operand(value):
    """The one operand rule of Q(q) for an operand that is not a Scalar:
    one of the other SCALAR_TYPES (an int or a Fraction) is promoted to
    one, anything else is None.

    The arithmetic operators and :meth:`Scalar.coerce` read it; ``+``,
    ``-``, ``*``, ``==`` and ``coerce`` test for a Scalar inline first, so
    a Scalar operand, the common case, makes no call here.  ``__rsub__``
    is never handed one: a Scalar on the left subtracts by ``__sub__``.
    """
    return Scalar(value) if isinstance(value, SCALAR_TYPES) else None


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


class DigitLimitError(ValueError):
    """A numerator or denominator has more digits than Python's int/str
    conversion limit allows to print."""


def format_rational(num: int, den: int) -> str:
    """The text of ``num / den``, den > 0, in lowest terms: ``num`` or
    ``num/den``, as ``str`` of the equal Fraction reads; past the digit
    limit, :class:`DigitLimitError`."""
    g = gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:
        raise DigitLimitError(
            "a scalar is too long to print: its numerator or denominator has "
            f"more than {sys.get_int_max_str_digits()} digits") from None


def join_signed(parts) -> str:
    """The one sign rule of a printed sum, over (sign, text) pairs whose
    sign is "+" or "-": the first part reads ``text`` or ``-text``, each
    later one `` + text`` or `` - text``, and no parts read ""."""
    out = []
    for sign, text in parts:
        if not out:
            out.append(text if sign == "+" else f"-{text}")
        else:
            out.append(f" {sign} {text}")
    return "".join(out)


def format_scalar(s: Scalar) -> str:
    """Canonical text form: "0", "5/3", "q", "-2*q", "1 + q", "1/2 - q"."""
    A, B, D = s.A, s.B, s.D
    if not (A or B):
        return "0"
    parts = []
    if A:
        parts.append(("-" if A < 0 else "+", format_rational(abs(A), D)))
    if B:
        parts.append(("-" if B < 0 else "+",
                      "q" if abs(B) == D else f"{format_rational(abs(B), D)}*q"))
    return join_signed(parts)
