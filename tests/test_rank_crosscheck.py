"""Ranks of small oracle systems checked against sympy's exact rank.

The reference enumerates every product  L * generator * R  itself, over all
splits of the coefficient words between the left and the right monomial,
and computes their rank independently over ``QQ<sqrt(-3)>`` with
``q = (-1 + sqrt(-3))/2``.  The oracle keeps one echelon row, and one
column, per independent column it enumerates, so its row and column
counts must both equal that rank.

Systems are keyed (grade, top).  A case names the map's path: wdeg for a
graded map, whose top is a word degree, or word_bound for a map on the
bounded path, whose top is a word bound.  A bounded system spans every
product of total word length up to its word bound; the quadratic map and
the ``twisted`` map of ``NON_DIAGONAL_MAPS`` take that path here.  The
twisted map's entries mix word degrees 0 and 1 in sums of several terms,
so its elimination cancels the most: the 120 products of its (3, 1)
system span all 48 keys they touch.  An exact system spans the bidegree (grade, wdeg) of
a graded ideal: the reference takes the products of total word length up
to wdeg + 1, checks that each is homogeneous, and keeps those of word
degree wdeg.  That includes products with a nonempty left word.  A
right-only map (degree 0, or scalar-diagonal: every m(x^i) one element
times the identity) builds only the letter system (grade, 0), and
the bidegree is n^wdeg copies of it, one per right word: its rank is the
letter system's times n^wdeg, left words and all.  The scalar-diagonal
map ``SCALAR_DIAGONAL`` has p_1 = x1 + x2, so crossing it recombines words
instead of rescaling them.  On the n=3 permutation map of
``RIGHT_ONLY_MAPS`` the two-letter generators are not a Groebner basis of
the letter ideal; its ranks 41, 123 and 167 at (3, 0), (3, 1) and (4, 0)
are the dimensions pinned in ``test_ideal.py`` read the other way.  On the
degree-1 map of ``DEGREE_ONE`` a left word adds rank.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix

from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.config import SessionConfig, build_map
from dcubed.ideal import Ideal, _vectorize
from dcubed.tensoralg import dword_grade

from conftest import (
    DEGREE_ONE, NON_DIAGONAL_MAPS, RIGHT_ONLY_MAPS, SCALAR_DIAGONAL, products, quadratic_map,
)

# building the field takes about half a second: once per module
FIELD = sympy.QQ.algebraic_field(sympy.sqrt(-3))
ROOT = FIELD.from_sympy((-1 + sympy.sqrt(-3)) / 2)

BIGRADED_SHAPES = ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0))
CASES = [(name, grade, wdeg, None)
         for name in ("commutative", "scalar-twist")
         for grade, wdeg in BIGRADED_SHAPES]
CASES += [("quadratic", 2, None, 2), ("quadratic", 3, None, 1), ("twisted", 3, None, 1)]
CASES += [("constant", grade, 1, None) for grade in (2, 3)]
CASES += [("degree-one", 3, 1, None)]
CASES += [("scalar-diagonal", grade, wdeg, None) for grade, wdeg in ((2, 1), (3, 1), (4, 0))]
CASES += [("permutation", grade, wdeg, None) for grade, wdeg in ((3, 0), (3, 1), (4, 0))]


def structure_map(name):
    if name == "degree-one":
        return build_map(SessionConfig(n=2, xi_entries=DEGREE_ONE))
    if name == "scalar-diagonal":
        return build_map(SessionConfig(n=2, xi_entries=SCALAR_DIAGONAL))
    if name == "quadratic":
        return quadratic_map()
    if name in NON_DIAGONAL_MAPS:
        return NON_DIAGONAL_MAPS[name]()
    if name in RIGHT_ONLY_MAPS:
        return RIGHT_ONLY_MAPS[name]()
    return preset_map(name, 2)


def image(s):
    return (FIELD.from_sympy(sympy.Rational(s.A, s.D))
            + FIELD.from_sympy(sympy.Rational(s.B, s.D)) * ROOT)


def rank(products):
    keys = {}
    vectors = [_vectorize(product, keys) for product in products if product]
    assert vectors
    keys = sorted({key for vec in vectors for key in vec})
    rows = [[image(vec[key]) if key in vec else FIELD.zero for key in keys]
            for vec in vectors]
    return DomainMatrix(rows, (len(rows), len(keys)), FIELD).rank()


def bidegrees(e):
    """The (grade, word length) of every term of e, read off the terms."""
    return {(dword_grade(dword), len(word))
            for dword, coeff in e.terms.items() for word in coeff.terms}


def bidegree_part(products, grade, wdeg):
    """The products of bidegree (grade, wdeg); each must be homogeneous."""
    for product in products:
        parts = bidegrees(product)
        assert len(parts) <= 1
        if (grade, wdeg) in parts:
            yield product


@pytest.mark.parametrize("name, grade, wdeg, word_bound", CASES)
def test_system_rank_matches_sympy(name, grade, wdeg, word_bound):
    ideal = Ideal(Calculus(structure_map(name)))
    assert ideal._graded == (wdeg is not None)
    if wdeg is None:
        echelon, copies = ideal._system(grade, word_bound), 1
        reference = products(ideal, grade, range(word_bound + 1))
    else:
        built = 0 if ideal._right_only else wdeg
        echelon, copies = ideal._system(grade, built), ideal.n ** (wdeg - built)
        reference = bidegree_part(products(ideal, grade, range(wdeg + 2)), grade, wdeg)
    assert len(echelon.columns) == len(echelon.rows)
    assert len(echelon.rows) * copies == rank(reference)


def test_left_words_add_rank_on_a_degree_one_map():
    ideal = Ideal(Calculus(structure_map("degree-one")))
    assert ideal.calc.bmap.entry_degrees() == {1}
    every = list(products(ideal, 3, (1,)))
    right_only = list(products(ideal, 3, (1,), left_words=False))
    assert (len(every), len(right_only)) == (96, 48)
    assert (rank(every), rank(right_only)) == (27, 26)
    assert len(ideal._system(3, 1).rows) == 27
