"""Ranks of small oracle systems checked against sympy's exact rank.

The oracle keeps one echelon row per independent column it enumerates, and
drops columns that are scalar multiples of earlier ones.  Its row count must
therefore equal the rank of every nonzero candidate product, undeduplicated,
computed independently over ``QQ<sqrt(-3)>`` with ``q = (-1 + sqrt(-3))/2``.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix

from dcubed.bimodule import preset_map
from dcubed.calculus import Calculus
from dcubed.ideal import Ideal, _vectorize

# building the field takes about half a second: once per module
FIELD = sympy.QQ.algebraic_field(sympy.sqrt(-3))
ROOT = FIELD.from_sympy((-1 + sympy.sqrt(-3)) / 2)

BIGRADED_SHAPES = ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0))
CASES = [(name, grade, wdeg, None)
         for name in ("commutative", "scalar-twist")
         for grade, wdeg in BIGRADED_SHAPES]
CASES += [("constant", grade, None, 1) for grade in (2, 3)]


def image(s):
    return (FIELD.from_sympy(sympy.Rational(s.A, s.D))
            + FIELD.from_sympy(sympy.Rational(s.B, s.D)) * ROOT)


@pytest.mark.parametrize("name, grade, wdeg, word_bound", CASES)
def test_system_rank_matches_sympy(name, grade, wdeg, word_bound):
    ideal = Ideal(Calculus(preset_map(name, 2)))
    echelon, _ = ideal._system(grade, wdeg, word_bound)
    products = (ideal._product(term)
                for term in ideal._candidates(grade, wdeg, word_bound))
    vectors = [_vectorize(product) for product in products if product]
    assert vectors
    keys = sorted({key for vec in vectors for key in vec})
    rows = [[image(vec[key]) if key in vec else FIELD.zero for key in keys]
            for vec in vectors]
    matrix = DomainMatrix(rows, (len(rows), len(keys)), FIELD)
    assert len(echelon.rows) == matrix.rank()
