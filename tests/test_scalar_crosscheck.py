"""Q(q) arithmetic checked against sympy's algebraic number field.

``a + b*q`` maps to ``a + b*(-1 + sqrt(-3))/2`` in ``QQ<sqrt(-3)>``; the map
is injective, so every operation agrees with Q(q) exactly when it commutes
with the map.  The canonical ``(A + B*q) / D`` fields are checked too.
"""

from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from dcubed.scalar import Scalar

# building the field takes about half a second: once per module
FIELD = sympy.QQ.algebraic_field(sympy.sqrt(-3))
ROOT = FIELD.from_sympy((-1 + sympy.sqrt(-3)) / 2)


def image(s: Scalar):
    a, b = s.a, s.b
    return (FIELD.from_sympy(sympy.Rational(a.numerator, a.denominator))
            + FIELD.from_sympy(sympy.Rational(b.numerator, b.denominator)) * ROOT)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
scalars = st.builds(Scalar, rationals, rationals) | st.sampled_from(
    (Scalar(0), Scalar(1), Scalar(0, 1), Scalar(-1, -1)))
nonzero = scalars.filter(bool)
examples = settings(deadline=None, max_examples=60)


def test_the_root_is_a_primitive_cube_root():
    assert ROOT != FIELD.one and ROOT ** 3 == FIELD.one
    assert image(Scalar(0, 1)) == ROOT


@examples
@given(scalars, scalars)
def test_ring_operations_agree(s, t):
    assert image(s + t) == image(s) + image(t)
    assert image(s - t) == image(s) - image(t)
    assert image(s * t) == image(s) * image(t)
    assert image(-s) == -image(s)
    assert (s == t) == (image(s) == image(t))


@examples
@given(scalars, nonzero)
def test_division_agrees(s, t):
    assert image(t.inv()) == FIELD.one / image(t)
    assert image(s / t) == image(s) / image(t)


@examples
@given(scalars, st.integers(-5, 5))
def test_powers_agree(s, k):
    assume(s or k >= 0)
    expected = image(s) ** k if k >= 0 else (FIELD.one / image(s)) ** -k
    assert image(s ** k) == expected


@examples
@given(scalars, nonzero)
def test_fields_are_canonical(s, t):
    for value in (s, t, s + t, s - t, s * t, s / t, t.inv(), -s):
        assert value.D > 0 and gcd(value.A, value.B, value.D) == 1
    # equal values reached two ways have equal fields
    back = (s * t) / t
    assert (back.A, back.B, back.D) == (s.A, s.B, s.D)
    same = Scalar(s.a, s.b)
    assert (same.A, same.B, same.D) == (s.A, s.B, s.D)


@examples
@given(scalars)
def test_hash_follows_the_rational_rule(s):
    if not s.B:
        assert s == s.a and hash(s) == hash(s.a)
        if s.D == 1:
            assert s == s.A and hash(s) == hash(s.A)
    assert hash(s) == hash(Scalar(s.a, s.b))


@examples
@given(rationals, rationals)
def test_fraction_pairs_round_trip(a, b):
    s = Scalar(a, b)
    assert s.a == a and s.b == b
    assert isinstance(s.a, Fraction) and isinstance(s.b, Fraction)
