"""Right partial derivatives and the coordinate differentials of order 1 and 2.

The derivatives are the unique linear maps with D_k(1) = 0, D_k(x^i) = delta
and the twisted product rule

    D_k(u v) = D_k(u) v + sum_j  m(u)[k][j] D_j(v),

where m is the bimodule structure map.  The order-1 differential sends v to
sum_k dx^k D_k(v) and its order-2 companion sends v to sum_k d^2 x^k D_k(v);
both carry their coefficients on the right, ready for the tensor algebra.
"""

from __future__ import annotations

from .freealg import AlgebraElement
from .bimodule import BimoduleMap
from .tensoralg import TensorElement


class Calculus:
    """Derivative engine for a fixed structure map.

    Unrolling the twisted product rule over a word gives the closed form

        D_k(w) = sum_p  m(w[:p])[k][w[p]] w[p+1:],

    where m of the empty prefix is the identity.  The engine holds no state
    beyond its map and may be shared freely.
    """

    __slots__ = ("bmap", "n")

    def __init__(self, bmap: BimoduleMap):
        self.bmap = bmap
        self.n = bmap.n

    def gradient(self, v: AlgebraElement):
        """All right partial derivatives of v, as a tuple indexed by k-1.

        One walk over the prefix matrices of each word evaluates the closed
        form; no matrix is cached.
        """
        if v.n != self.n:
            raise ValueError(f"element has {v.n} generators, calculus has {self.n}")
        out = [AlgebraElement.zero(self.n) for _ in range(self.n)]
        for word, coeff in v.terms.items():
            if not word:
                continue
            # p = 0: the empty prefix maps to the identity
            out[word[0] - 1]._accumulate(word[1:], coeff)
            for p, mat in enumerate(self.bmap.prefix_matrices(word[:-1]), start=1):
                i, rest = word[p], word[p + 1:]
                for dk, row in zip(out, mat):
                    for u, c in row[i - 1].terms.items():
                        dk._accumulate(u + rest, c * coeff)
        return tuple(out)

    def partial(self, k: int, v: AlgebraElement) -> AlgebraElement:
        if not 1 <= k <= self.n:
            raise ValueError(f"derivative index {k} outside 1..{self.n}")
        return self.gradient(v)[k - 1]

    def _coordinate_differential(self, grade: int, v: AlgebraElement) -> TensorElement:
        out = TensorElement(self.n)
        for k, dk in enumerate(self.gradient(v), start=1):
            if dk:
                out._accumulate(((grade, k),), dk)
        return out

    def d1(self, v: AlgebraElement) -> TensorElement:
        """First-order differential: sum_k dx^k D_k(v)."""
        return self._coordinate_differential(1, v)

    def d2_tilde(self, v: AlgebraElement) -> TensorElement:
        """Second-order coordinate differential: sum_k d^2 x^k D_k(v).

        Satisfies the ordinary (untwisted) product rule; it differs from the
        square of the grade-one operator by a dx (x) dx correction term.
        """
        return self._coordinate_differential(2, v)
