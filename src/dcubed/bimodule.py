"""The bimodule structure map: an algebra homomorphism into n x n matrices.

A map ``m`` fixes how algebra coefficients cross a differential from the
left to the right, for first and second order letters alike:

    u * d^a x^j  =  sum_k  d^a x^k * m(u)[k][j]        (a = 1 or 2)

On generators the matrices are free data; because the underlying algebra is
free, any choice extends (uniquely, multiplicatively) to a homomorphism, so
construction performs shape checks only.
"""

from __future__ import annotations

from .scalar import ONE, Q
from .freealg import AlgebraElement


def _identity(n: int):
    return [[AlgebraElement.one(n) if k == j else AlgebraElement.zero(n)
             for j in range(n)] for k in range(n)]


def _mat_mul(n: int, left, right):
    out = []
    for k in range(n):
        row = []
        for j in range(n):
            acc = AlgebraElement.zero(n)
            for t in range(n):
                if left[k][t] and right[t][j]:
                    acc = acc + left[k][t] * right[t][j]
            row.append(acc)
        out.append(row)
    return out


class BimoduleMap:
    """Structure map given by one n x n matrix of algebra elements per generator.

    ``gen[i-1][k-1][j-1]`` is the entry that appears in
    ``x^i * d^a x^j = sum_k d^a x^k * entry(i, j, k)``: row index k is the
    summed output letter, column index j the letter being crossed.

    Instances are immutable after construction and may be shared freely;
    the per-word matrix cache only ever grows.
    """

    __slots__ = ("n", "gen", "_word_cache")

    def __init__(self, n: int, gen_matrices):
        if n < 1:
            raise ValueError("generator count must be >= 1")
        if len(gen_matrices) != n:
            raise ValueError(f"expected {n} generator matrices, got {len(gen_matrices)}")
        for i, mat in enumerate(gen_matrices, start=1):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"matrix for generator {i} is not {n}x{n}")
            for row in mat:
                for entry in row:
                    if not isinstance(entry, AlgebraElement) or entry.n != n:
                        raise ValueError(
                            f"matrix entry for generator {i} lives in the wrong algebra")
        self.n = n
        self.gen = [[list(row) for row in mat] for mat in gen_matrices]
        self._word_cache = {(): _identity(n)}

    def entry(self, i: int, j: int, k: int) -> AlgebraElement:
        """The coefficient on d^a x^k produced by crossing x^i over d^a x^j."""
        return self.gen[i - 1][k - 1][j - 1]

    def _word_matrix(self, word):
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        # extend the longest cached suffix one letter at a time, caching
        # every suffix on the way (no recursion, so long words are fine)
        start = 1
        while word[start:] not in self._word_cache:
            start += 1
        mat = self._word_cache[word[start:]]
        for pos in range(start - 1, -1, -1):
            mat = _mat_mul(self.n, self.gen[word[pos] - 1], mat)
            self._word_cache[word[pos:]] = mat
        return mat

    def matrix(self, u: AlgebraElement):
        """The matrix image of u: multiplicative on words, linear overall."""
        if u.n != self.n:
            raise ValueError(f"element has {u.n} generators, map has {self.n}")
        n = self.n
        out = [[AlgebraElement.zero(n) for _ in range(n)] for _ in range(n)]
        for word, coeff in u.terms.items():
            mat = self._word_matrix(word)
            for k in range(n):
                for j in range(n):
                    if mat[k][j]:
                        out[k][j] = out[k][j] + mat[k][j].scale(coeff)
        return out

    def push(self, u: AlgebraElement, j: int):
        """Decompose u * d^a x^j as sum_k d^a x^k * coeff_k, for either
        letter grade a (the same map serves both).

        Returns the nonzero (k, coeff_k) pairs.
        """
        if u.n != self.n:
            raise ValueError(f"element has {u.n} generators, map has {self.n}")
        n = self.n
        column = [AlgebraElement.zero(n) for _ in range(n)]
        for word, coeff in u.terms.items():
            mat = self._word_matrix(word)
            for k in range(n):
                if mat[k][j - 1]:
                    column[k] = column[k] + mat[k][j - 1].scale(coeff)
        return [(k + 1, c) for k, c in enumerate(column) if c]

    # -- structural inspection (drives the oracle's path and word bound) ---

    def entries(self):
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                for k in range(1, self.n + 1):
                    yield i, j, k, self.entry(i, j, k)

    def max_entry_degree(self) -> int:
        degrees = [e.degree() for *_ix, e in self.entries() if e]
        return max(degrees, default=0)

    def uniform_entry_degree(self):
        """Common homogeneous degree of all nonzero entries, or None.

        A return of 1 means every coefficient push preserves word degree,
        which makes the whole tensor algebra bigraded by (grade, word degree).
        """
        degree = None
        for *_ix, e in self.entries():
            if e.is_zero:
                continue
            if not e.is_homogeneous():
                return None
            if degree is None:
                degree = e.degree()
            elif e.degree() != degree:
                return None
        return degree


def commutative_map(n: int) -> BimoduleMap:
    """Coefficients commute across letters: x^i d x^j = d x^j x^i."""
    return scalar_twist_map(n, ONE)


def scalar_twist_map(n: int, c=Q) -> BimoduleMap:
    """Commutation up to a fixed scalar factor: x^i d x^j = c d x^j x^i."""
    gen = []
    for i in range(1, n + 1):
        entry = AlgebraElement.monomial(n, (i,), c)
        gen.append([[entry if k == j else AlgebraElement.zero(n)
                     for j in range(n)] for k in range(n)])
    return BimoduleMap(n, gen)


def constant_map(n: int) -> BimoduleMap:
    """Degenerate map with scalar entries: every generator acts as the identity."""
    return BimoduleMap(n, [_identity(n) for _ in range(n)])


PRESETS = {
    "commutative": commutative_map,
    "scalar-twist": scalar_twist_map,
    "constant": constant_map,
}


def preset_map(name: str, n: int, twist=Q) -> BimoduleMap:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    if name == "scalar-twist":
        return scalar_twist_map(n, twist)
    return PRESETS[name](n)
