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
from .freealg import AlgebraElement, check_index, check_terms

# The largest generator count a preset (or a session) builds: a structure
# map holds n^3 entries, all built before any work starts.
MAX_N = 64


def _identity(n: int):
    return [[AlgebraElement.one(n) if k == j else AlgebraElement.zero(n)
             for j in range(n)] for k in range(n)]


def _mat_mul(n: int, left, right):
    out = []
    for left_row in left:
        zero = AlgebraElement.zero(n)
        row = [zero] * n
        for t, a in enumerate(left_row):
            if not a:
                continue
            for j, b in enumerate(right[t]):
                if b:
                    row[j] = row[j] + a * b
        out.append(row)
    check_terms(sum(len(entry.terms) for row in out for entry in row))
    return out


class BimoduleMap:
    """Structure map given by one n x n matrix of algebra elements per generator.

    ``gen[i-1][k-1][j-1]`` is the entry that appears in
    ``x^i * d^a x^j = sum_k d^a x^k * entry(i, j, k)``: row index k is the
    summed output letter, column index j the letter being crossed.

    Instances are immutable after construction and may be shared freely.
    The word cache maps a whole pushed word w (never its prefixes or
    suffixes) to the sparse columns of m(w): per letter j, the nonzero
    (k, m(w)[k][j]) pairs in ascending k.  It only ever grows.
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
        one = AlgebraElement.one(n)
        self._word_cache = {(): tuple(((j, one),) for j in range(1, n + 1))}

    def entry(self, i: int, j: int, k: int) -> AlgebraElement:
        """The coefficient on d^a x^k produced by crossing x^i over d^a x^j."""
        check_index(self.n, i, j, k)
        return self.gen[i - 1][k - 1][j - 1]

    def prefix_matrices(self, word):
        """Yield m(w[:1]), m(w[:2]), ..., m(w): one left-to-right product walk."""
        mat = None
        for i in word:
            gen = self.gen[i - 1]
            mat = gen if mat is None else _mat_mul(self.n, mat, gen)
            yield mat

    def _word_columns(self, word):
        columns = self._word_cache.get(word)
        if columns is None:
            for mat in self.prefix_matrices(word):
                pass
            columns = tuple(tuple((k, row[j]) for k, row in enumerate(mat, start=1) if row[j])
                            for j in range(self.n))
            self._word_cache[word] = columns
        return columns

    def matrix(self, u: AlgebraElement):
        """The matrix image of u, assembled from the columns :meth:`push` returns."""
        n = self.n
        out = [[AlgebraElement.zero(n) for _ in range(n)] for _ in range(n)]
        for j in range(1, n + 1):
            for k, coeff in self.push(u, j):
                out[k - 1][j - 1] = coeff
        return out

    def push(self, u: AlgebraElement, j: int):
        """Decompose u * d^a x^j as sum_k d^a x^k * coeff_k, for either
        letter grade a (the same map serves both).

        Returns the nonzero (k, coeff_k) pairs in ascending k.  Each word of
        u contributes only the nonzero entries of its cached column j.
        """
        if u.n != self.n:
            raise ValueError(f"element has {u.n} generators, map has {self.n}")
        check_index(self.n, j)
        column = {}
        for word, coeff in u.terms.items():
            for k, entry in self._word_columns(word)[j - 1]:
                pushed = entry.scale(coeff)
                cur = column.get(k)
                column[k] = pushed if cur is None else cur + pushed
        return [(k, c) for k, c in sorted(column.items()) if c]

    # -- structural inspection ---------------------------------------------

    def entry_degrees(self) -> set:
        """The word lengths of the terms of every entry; empty for a zero map."""
        return {len(word) for mat in self.gen for row in mat
                for entry in row for word in entry.terms}

    def is_scalar_diagonal(self) -> bool:
        """Whether every m(x^i) is one algebra element p_i times the identity.

        Then m(u) = phi(u) I for the endomorphism phi: x^i -> p_i, and a
        coefficient crosses every letter keeping its index:
        u * d^a x^j = d^a x^j * phi(u).
        """
        return all(entry == mat[0][0] if k == j else not entry
                   for mat in self.gen
                   for k, row in enumerate(mat)
                   for j, entry in enumerate(row))


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
    if n > MAX_N:
        raise ValueError(f"generator count {n} above MAX_N = {MAX_N}")
    if name == "scalar-twist":
        return scalar_twist_map(n, twist)
    return PRESETS[name](n)
