"""The oracle on structure maps with scalar entries, against a reference.

Scalar entries have zero derivatives, so every generator is a bare
two-letter dword and a word crosses letters as scalars.  I_q is then the
span of all dwords with at least two letters: an element is a member
exactly when each of its terms has two letters or more, and its normal
form is the part with fewer.
"""

import random

import pytest

from dcubed.bimodule import BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.freealg import AlgebraElement
from dcubed.ideal import Ideal
from dcubed.scalar import ZERO
from dcubed.tensoralg import TensorElement

from conftest import SMALL_SCALARS, random_tensor


def scalar_map(seed, n):
    """A structure map whose entries are random scalars, zeros included."""
    rng = random.Random(seed)
    return BimoduleMap(n, [[[AlgebraElement.scalar(n, rng.choice((ZERO,) + SMALL_SCALARS))
                             for _ in range(n)] for _ in range(n)] for _ in range(n)])


MAPS = {
    "constant-2": lambda: preset_map("constant", 2),
    "constant-3": lambda: preset_map("constant", 3),
    "scalar-2a": lambda: scalar_map(1, 2),
    "scalar-2b": lambda: scalar_map(2, 2),
    "scalar-3": lambda: scalar_map(3, 3),
}


def short_part(e):
    """The terms of e with fewer than two letters."""
    return TensorElement(e.n, {dword: u for dword, u in e.terms.items() if len(dword) < 2})


@pytest.mark.parametrize("name", MAPS)
def test_members_are_the_terms_of_two_letters(name):
    ideal = Ideal(Calculus(MAPS[name]()))
    assert ideal.calc.bmap.entry_degrees() == {0}
    rng = random.Random(name)
    for _ in range(25):
        e = random_tensor(rng, ideal.n, max_grade=4, max_word_len=2)
        short = short_part(e)
        # e itself, and its part of two letters or more: a member
        for query, residual in ((e, short), (e - short, TensorElement.zero(ideal.n))):
            verdict = ideal.membership(query)
            assert verdict.is_member == residual.is_zero
            if verdict.is_member:
                assert ideal.expand_witness(verdict.witness) == query
            else:
                assert verdict.residual == residual
