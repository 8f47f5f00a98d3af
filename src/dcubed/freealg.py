"""The free associative unital algebra on generators x1..xn over Q(q).

Monomials are words (tuples of 1-based generator indices, the empty word
being the unit) and elements are sparse maps word -> scalar.  No relations
are ever imposed here: x1*x2 and x2*x1 stay distinct.
"""

from __future__ import annotations

import operator

from .scalar import SCALAR_TYPES, Scalar, ZERO, ONE

Word = tuple  # tuple[int, ...], indices 1..n

# The most scalar terms one product may hold.  The parser's products,
# tensor_mul (and each letter of its push_through), d and the columns of
# each prefix product of a word check their result against it, so that a result growing
# exponentially with its input (a long power of a sum, a long word under a
# map with several terms per entry) stops with TermLimitError instead of
# taking seconds to minutes and megabytes.
MAX_TERMS = 4096


class TermLimitError(ArithmeticError):
    """A product holds more than MAX_TERMS scalar terms."""


def check_terms(count: int) -> None:
    """Raise :class:`TermLimitError` when a product's term count passes MAX_TERMS."""
    if count > MAX_TERMS:
        raise TermLimitError(
            f"a product holds {count} terms, more than MAX_TERMS = {MAX_TERMS}")


def check_index(n: int, *indices) -> None:
    """Raise ValueError unless every generator index lies in 1..n."""
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")


def word_key(word: Word):
    """Deterministic word order: length first, then lexicographic."""
    return (len(word), word)


class _Sparse:
    """A sparse sum: a map from keys to nonzero coefficients over Q(q).

    The linear structure shared by :class:`AlgebraElement` (words to
    scalars) and ``TensorElement`` (tensor words to algebra elements).  A
    key whose coefficients sum to zero is dropped, so equal elements have
    equal ``terms`` maps.  A subclass sets ``_order`` (the sort key of a
    term key) and ``_times`` (a coefficient times a nonzero scalar).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            coerce = self._coerce
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._accumulate(key, coerce(coeff))

    @staticmethod
    def _coerce(coeff):
        """A constructor argument as a coefficient."""
        return coeff

    def _promote(self, other):
        """``other``, not of this class, as an element of it, or None."""
        return None

    @classmethod
    def _new(cls, n: int, terms: dict):
        """An element over a finished map of nonzero coefficients."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    def _accumulate(self, key, coeff):
        if not coeff:
            return
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = coeff
        else:
            s = cur + coeff
            if s:
                self.terms[key] = s
            else:
                del self.terms[key]

    @classmethod
    def zero(cls, n: int):
        return cls._new(n, {})

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError(
                f"mixed generator counts: {self.n} vs {other.n}")

    def __add__(self, other):
        if (other.__class__ is not self.__class__
                and (other := self._promote(other)) is None):
            return NotImplemented
        self._check_compatible(other)
        out = self._new(self.n, dict(self.terms))
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def scale(self, value):
        value = Scalar.coerce(value)
        if not value:
            return self.zero(self.n)
        times = self._times
        return self._new(self.n, {k: times(c, value) for k, c in self.terms.items()})

    def __eq__(self, other):
        if (other.__class__ is not self.__class__
                and (other := self._promote(other)) is None):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} {self.terms!r}>"


class AlgebraElement(_Sparse):
    """A noncommutative polynomial: sparse map from words to nonzero scalars."""

    __slots__ = ()

    _coerce = staticmethod(Scalar.coerce)
    _order = staticmethod(word_key)
    _times = staticmethod(operator.mul)

    def _promote(self, other):
        if isinstance(other, SCALAR_TYPES):
            return AlgebraElement.scalar(self.n, other)
        return None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(n: int) -> "AlgebraElement":
        return AlgebraElement(n, {(): ONE})

    @staticmethod
    def scalar(n: int, value) -> "AlgebraElement":
        return AlgebraElement(n, {(): value})

    @staticmethod
    def generator(n: int, i: int) -> "AlgebraElement":
        check_index(n, i)
        return AlgebraElement(n, {(i,): ONE})

    @staticmethod
    def monomial(n: int, word: Word, coeff=ONE) -> "AlgebraElement":
        check_index(n, *word)
        return AlgebraElement(n, {tuple(word): coeff})

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        self._check_compatible(other)
        out = AlgebraElement(self.n)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._accumulate(w1 + w2, c1 * c2)
        return out

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Maximum word length among terms; undefined (error) for zero."""
        if not self.terms:
            raise ValueError("degree of the zero element is undefined")
        return max(len(w) for w in self.terms)

    def constant_value(self):
        """The scalar value, provided no non-unit word occurs."""
        if not self.terms:
            return ZERO
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError("element is not a scalar multiple of 1")

    def __hash__(self):
        # a multiple of the unit equals its scalar, so it hashes like one
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return _Sparse.__hash__(self)

    def __str__(self):
        from .parsing import format_algebra
        return format_algebra(self)
