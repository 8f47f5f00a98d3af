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

    Word gradients are memoized within one :meth:`gradient` call only, so
    the engine holds no state beyond its map and may be shared freely.
    """

    __slots__ = ("bmap", "n")

    def __init__(self, bmap: BimoduleMap):
        self.bmap = bmap
        self.n = bmap.n

    def _word_gradient(self, word, memo):
        """Gradient of one word; ``memo`` maps suffixes to their gradients."""
        cached = memo.get(word)
        if cached is not None:
            return cached
        # extend the longest memoized suffix one letter at a time, memoizing
        # every suffix on the way (no recursion, so long words are fine)
        start = 1
        while word[start:] not in memo:
            start += 1
        rest_grad = memo[word[start:]]
        for pos in range(start - 1, -1, -1):
            i, rest = word[pos], word[pos + 1:]
            rest_elem = AlgebraElement.monomial(self.n, rest)
            grad = []
            for k in range(1, self.n + 1):
                # D_k(x^i rest) = delta_k^i rest + sum_j m(x^i)[k][j] D_j(rest)
                acc = rest_elem if k == i else AlgebraElement.zero(self.n)
                row = self.bmap.gen[i - 1][k - 1]
                for j in range(1, self.n + 1):
                    e = row[j - 1]
                    if e and rest_grad[j - 1]:
                        acc = acc + e * rest_grad[j - 1]
                grad.append(acc)
            rest_grad = tuple(grad)
            memo[word[pos:]] = rest_grad
        return rest_grad

    def gradient(self, v: AlgebraElement):
        """All right partial derivatives of v, as a tuple indexed by k-1."""
        if v.n != self.n:
            raise ValueError(f"element has {v.n} generators, calculus has {self.n}")
        out = [AlgebraElement.zero(self.n) for _ in range(self.n)]
        memo = {(): tuple(out)}
        for word, coeff in v.terms.items():
            for idx, dk in enumerate(self._word_gradient(word, memo)):
                if dk:
                    out[idx] = out[idx] + dk.scale(coeff)
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
