"""The graded tensor algebra of first- and second-order differentials.

Letters are ``(grade, index)`` pairs: ``(1, i)`` stands for dx^i (grade 1)
and ``(2, i)`` for d^2 x^i (grade 2); grade-3 letters do not exist.  A
tensor word is a tuple of letters, and every element is stored in the
canonical right-coefficient form

    sum over tensor words W of   W * r_W,     r_W in the free algebra.

Because interior coefficients are always pushed to the far right with the
bimodule map, equality of term maps is exactly equality in the algebra:
the defining push-through relations hold identically in this representation.
"""

from __future__ import annotations

from .scalar import Scalar, ONE
from .freealg import AlgebraElement, _Sparse, check_index, check_terms
from .bimodule import BimoduleMap

Letter = tuple  # (grade, index)
DWord = tuple   # tuple[Letter, ...]


def letter(grade: int, index: int) -> Letter:
    if grade not in (1, 2):
        raise ValueError("letter grade must be 1 or 2 (d^3 x^i = 0)")
    return (grade, index)


def dword_grade(dword: DWord) -> int:
    return sum(a for a, _ in dword)


def dword_key(dword: DWord):
    """Deterministic order: total grade, then grade vector, then indices."""
    return (dword_grade(dword),
            tuple(a for a, _ in dword),
            tuple(i for _, i in dword))


class TensorElement(_Sparse):
    """Element of the differential tensor algebra in canonical form."""

    __slots__ = ()

    _order = staticmethod(dword_key)

    @staticmethod
    def _times(coeff: AlgebraElement, value: Scalar) -> AlgebraElement:
        return coeff.scale(value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_algebra(u: AlgebraElement) -> "TensorElement":
        return TensorElement(u.n, {(): u})

    @staticmethod
    def of_letter(n: int, grade: int, index: int, coeff=None) -> "TensorElement":
        check_index(n, index)
        if coeff is None:
            coeff = AlgebraElement.one(n)
        return TensorElement(n, {(letter(grade, index),): coeff})

    @staticmethod
    def monomial(n: int, dword: DWord, coeff: AlgebraElement) -> "TensorElement":
        return TensorElement(n, {tuple(dword): coeff})

    # multiplication of elements lives in tensor_mul
    __mul__ = _Sparse.__rmul__

    # -- grading -----------------------------------------------------------

    def homogeneous_grade(self):
        """The common grade, or None when grades are mixed; zero has grade 0."""
        grades = {dword_grade(w) for w in self.terms}
        if not grades:
            return 0
        if len(grades) == 1:
            return grades.pop()
        return None

    def max_grade(self) -> int:
        return max((dword_grade(w) for w in self.terms), default=0)

    def size(self) -> int:
        """The number of scalar terms: words summed over all coefficients."""
        return sum(len(coeff.terms) for coeff in self.terms.values())

    def max_word_degree(self) -> int:
        return max((c.degree() for c in self.terms.values()), default=0)

    def __str__(self):
        from .parsing import format_tensor
        return format_tensor(self)


def prefixed(letters: DWord, e: TensorElement) -> TensorElement:
    """``letters * e``, the letters with coefficient 1: that coefficient
    crosses no letter, so they are prepended to every tensor word of e as
    they stand."""
    return TensorElement._new(e.n, {letters + w: c for w, c in e.terms.items()})


def letter_sum(n: int, grade: int, family) -> TensorElement:
    """``sum_k d^grade x^k (x) X_k`` over the (k, X_k) pairs of an indexed
    family, its k distinct, as :meth:`BimoduleMap.push` and
    ``Calculus.gradient`` return them.  Each summand is :func:`prefixed` by
    its own letter, so no two summands share a tensor word."""
    terms = {}
    for k, e in family:
        terms.update(prefixed(((grade, k),), e).terms)
    return TensorElement._new(n, terms)


def push_through(bmap: BimoduleMap, u: AlgebraElement, dword: DWord) -> "TensorElement":
    """Canonical form of ``u * dword``: the coefficient crosses every letter.

    This is the one statement of a crossing; :func:`tensor_mul` calls it on
    unit-coefficient monomials only, through the map's crossing memo.  The
    term count is checked after each letter: on a map with several terms
    per entry it can grow geometrically along the dword.
    """
    out = TensorElement(u.n, {(): u})
    for grade, index in dword:
        nxt = TensorElement(u.n)
        for prefix, coeff in out.terms.items():
            for k, pushed in bmap.push(coeff, index):
                nxt._accumulate(prefix + ((grade, k),), pushed)
        check_terms(nxt.size())
        out = nxt
    return out


def _crossing(bmap: BimoduleMap, word, dword: DWord):
    """``word * dword``, the word's coefficient 1, as (tensor word, term
    pairs of its coefficient) pairs: read from the map's crossing memo, or
    pushed through and stored there while the memo's budget allows.

    An entry is stored compactly: a coefficient as the (word, scalar) pairs
    of its terms, and a tensor word equal to the dword as the dword itself.
    Callers build new elements from it and never mutate it.
    """
    pairs = bmap._crossings.get((word, dword))
    if pairs is None:
        pushed = push_through(bmap, AlgebraElement._new(bmap.n, {word: ONE}), dword)
        pairs = bmap._crossings.store((word, dword), tuple(
            (dword if mid == dword else mid, tuple(coeff.terms.items()))
            for mid, coeff in pushed.terms.items()), pushed.size())
    return pairs


def tensor_mul(bmap: BimoduleMap, w: TensorElement, t: TensorElement) -> TensorElement:
    """Graded product; the left factor's coefficient is pushed through the
    right factor's letters so the result is canonical again.

    The push is linear in the coefficient: each of its words c * u crosses
    a nonempty right dword as the memoized crossing of u (see
    :func:`_crossing`), times c and the right coefficient.  A right factor
    with an empty dword needs no crossing.
    """
    w._check_compatible(t)
    if bmap.n != w.n:
        raise ValueError(f"map has {bmap.n} generators, elements have {w.n}")
    out = TensorElement(w.n)
    for w1, r in w.terms.items():
        for w2, s in t.terms.items():
            if w2:
                for u, c in r.terms.items():
                    cs = s.scale(c)
                    for mid, terms in _crossing(bmap, u, w2):
                        out._accumulate(w1 + mid, AlgebraElement._new(w.n, dict(terms)) * cs)
            else:
                out._accumulate(w1, r * s)
    check_terms(out.size())
    return out
