"""Right partial derivatives and the order-2 coordinate differential.

The derivatives are the unique linear maps with D_k(1) = 0, D_k(x^i) = delta
and the twisted product rule

    D_k(u v) = D_k(u) v + sum_j  m(u)[k][j] D_j(v),

where m is the bimodule structure map.  The family of all D_k(v) is held
the way :meth:`BimoduleMap.push` holds a column of m(u): as the nonzero
(k, D_k(v)) pairs in ascending k.  The order-1 differential
v -> sum_k dx^k D_k(v) is :func:`differential.d` on grade 0; its order-2
companion v -> sum_k d^2 x^k D_k(v) is :meth:`Calculus.d2_tilde`.  Both
carry their coefficients on the right, ready for the tensor algebra.
"""

from __future__ import annotations

from collections import defaultdict

from .freealg import AlgebraElement, check_index
from .bimodule import BimoduleMap, _Cache
from .tensoralg import TensorElement


class Calculus:
    """Derivative engine for a fixed structure map.

    Unrolling the twisted product rule over a word gives the closed form

        D_k(w) = sum_p  m(w[:p])[k][w[p]] w[p+1:],

    where m of the empty prefix is the identity.  The engine holds one
    cache, the gradient memo: a word w maps to the gradient of the unit
    monomial w, bounded like the map's caches by
    :data:`bimodule.CACHE_TERMS` scalar terms.  A full memo answers what it
    holds and computes the rest without storing it, so no answer depends
    on the memo, and the engine may be shared freely.
    """

    __slots__ = ("bmap", "n", "_gradients")

    def __init__(self, bmap: BimoduleMap):
        self.bmap = bmap
        self.n = bmap.n
        self._gradients = _Cache()

    def _word_gradient(self, word):
        """The gradient of the unit monomial ``word``: its nonzero (k, terms
        of D_k(word)) pairs in ascending k, each D_k as its (word, scalar)
        pairs.  Read from the gradient memo, or evaluated by the closed form
        and stored there while the memo's budget allows.

        One walk over the prefix columns evaluates the closed form: at
        position p, each pair (k, entry) of column w[p] of m(w[:p]) adds
        entry w[p+1:] to D_k.  Callers rescale an entry into new elements
        and never mutate it.
        """
        pairs = self._gradients.get(word)
        if pairs is None:
            out = defaultdict(lambda: AlgebraElement.zero(self.n))
            # zip stops at the last letter, before the product of the whole word
            for p, (letter, columns) in enumerate(zip(word, self.bmap.prefix_columns(word))):
                rest = word[p + 1:]
                for k, entry in columns[letter - 1]:
                    for u, c in entry.terms.items():
                        out[k]._accumulate(u + rest, c)
            pairs = tuple((k, tuple(dk.terms.items())) for k, dk in sorted(out.items()) if dk)
            self._gradients.store(word, pairs, sum(len(terms) for _, terms in pairs))
        return pairs

    def gradient(self, v: AlgebraElement):
        """All right partial derivatives of v, in the form :meth:`BimoduleMap.push`
        returns: the nonzero (k, D_k(v)) pairs in ascending k.

        The gradient is linear in v: each term coeff * w adds coeff times
        the memoized gradient of the word w (see :meth:`_word_gradient`).
        A D_k that no term reaches is never built, so a scalar's gradient
        is [].
        """
        if v.n != self.n:
            raise ValueError(f"element has {v.n} generators, calculus has {self.n}")
        out = {}
        for word, coeff in v.terms.items():
            for k, terms in self._word_gradient(word):
                dk = out.get(k)
                if dk is None:  # distinct words, nonzero products: no accumulation
                    out[k] = AlgebraElement._new(self.n, {u: c * coeff for u, c in terms})
                else:
                    for u, c in terms:
                        dk._accumulate(u, c * coeff)
        return [(k, dk) for k, dk in sorted(out.items()) if dk]

    def partial(self, k: int, v: AlgebraElement) -> AlgebraElement:
        """D_k(v), read from :meth:`gradient`; zero when k is not among its pairs."""
        check_index(self.n, k)
        return dict(self.gradient(v)).get(k, AlgebraElement.zero(self.n))

    def d2_tilde(self, v: AlgebraElement) -> TensorElement:
        """Second-order coordinate differential: sum_k d^2 x^k D_k(v), one
        term per pair of :meth:`gradient`.

        Satisfies the ordinary (untwisted) product rule; it differs from the
        square of the grade-one operator by a dx (x) dx correction term.
        """
        return TensorElement(self.n, {((2, k),): dk for k, dk in self.gradient(v)})
