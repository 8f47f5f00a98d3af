"""Scalar's integer-coded paths against independent references.

The elimination kernel ``Scalar.sub_scaled`` is checked against the Scalar
operators.  Vectors are dicts from small int keys to Scalars.  Their parts
have unequal and large denominators, each side has keys the other lacks,
and some target entries equal ``source[k] * factor`` exactly, so they
cancel.  ``format_scalar``, which prints from the fields ``A``, ``B`` and
``D``, is checked against text built from ``str`` of each part's Fraction.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dcubed.scalar import Scalar, ZERO, format_scalar

rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**15),
    st.integers(-10**20, 10**20))
scalars = st.builds(Scalar, rationals, rationals) | st.sampled_from(
    (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(-1, -1)))
nonzero = scalars.filter(bool)
keys = st.integers(0, 11)


@st.composite
def operands(draw):
    """(target, source, factor), some target keys set to cancel exactly."""
    source = draw(st.dictionaries(keys, nonzero, max_size=8))
    target = draw(st.dictionaries(keys, nonzero, max_size=8))
    factor = draw(scalars)
    for key in draw(st.sets(st.sampled_from(sorted(source)))) if source else ():
        if factor:
            target[key] = source[key] * factor
    return target, source, factor


def reference(target, source, factor):
    out = dict(target)
    for key, value in source.items():
        cur = target.get(key, ZERO) - value * factor
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)
    return out


@settings(deadline=None, max_examples=80)
@given(operands())
def test_sub_scaled_agrees_with_the_operators(operands):
    target, source, factor = operands
    expected = reference(target, source, factor)
    out = dict(target)
    Scalar.sub_scaled(out, source, factor)
    assert out == expected
    for value in out.values():  # canonical and nonzero: no key is kept for a zero
        assert value and value.D > 0 and gcd(value.A, value.B, value.D) == 1
        assert isinstance(value, Scalar)


def test_sub_scaled_drops_what_cancels():
    source = {1: Scalar(2, 3), 2: Scalar(1)}
    factor = Scalar(0, 1)
    target = {1: source[1] * factor, 3: Scalar(5)}
    Scalar.sub_scaled(target, source, factor)
    assert target == {2: -factor, 3: Scalar(5)}


def printed(a: Fraction, b: Fraction) -> str:
    """a + b*q as the printers write it, from str(Fraction) pieces."""
    if not b:
        return str(a)  # "0" for zero
    q_part = "q" if abs(b) == 1 else f"{abs(b)}*q"
    if not a:
        return q_part if b > 0 else f"-{q_part}"
    return f"{a} {'+' if b > 0 else '-'} {q_part}"


# the units give the q parts "q" and "-q", and 0 a missing part
parts = rationals | st.sampled_from((0, 1, -1))


@settings(deadline=None, max_examples=200)
@given(parts, parts)
def test_format_scalar_agrees_with_fraction_text(a, b):
    assert format_scalar(Scalar(a, b)) == printed(Fraction(a), Fraction(b))
