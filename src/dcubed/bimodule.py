"""The bimodule structure map: an algebra homomorphism into n x n matrices.

A map ``m`` fixes how algebra coefficients cross a differential from the
left to the right, for first and second order letters alike:

    u * d^a x^j  =  sum_k  d^a x^k * m(u)[k][j]        (a = 1 or 2)

On generators the matrices are free data; because the underlying algebra is
free, any choice extends (uniquely, multiplicatively) to a homomorphism, so
construction performs shape checks only.  Every m(w) is held in one form,
its sparse columns: per letter j, the nonzero (k, m(w)[k][j]) pairs in
ascending k.  :meth:`BimoduleMap.push` reads them, the gradient walks them
over the prefixes of a word, and the dense :meth:`BimoduleMap.matrix` is
assembled from them.
"""

from __future__ import annotations

from .scalar import Q
from .freealg import AlgebraElement, check_index, check_terms

# The largest generator count a preset (or a config file) builds.  Its n
# generator matrices are n^3 dense input entries, all built before any work
# starts; a preset's off-diagonal entries are one shared zero, which the
# constructor drops.
MAX_N = 64

# The most scalar terms each of the three caches stores beyond its seeds:
# a map's word cache and crossing memo, and a calculus's gradient memo.
# Past it a cache still answers the keys it holds, and computes the rest
# without storing them, so a long session's memory stays bounded.  1024
# holds every working set of the n=4 verify suite (1,024 gradient terms,
# 440 crossing terms) and of a degree-2 membership epoch (740 crossing
# terms), while a process that keeps a few maps alive stays small: about
# 250 bytes a stored gradient term.
CACHE_TERMS = 1024


class _Cache(dict):
    """A dict that counts the scalar terms it has stored and stops storing
    once they would pass :data:`CACHE_TERMS`; entries set by item are the
    uncounted seeds."""

    __slots__ = ("terms",)

    def __init__(self, seeds=()):
        super().__init__(seeds)
        self.terms = 0

    def store(self, key, value, terms):
        """Keep ``value`` under ``key`` when its ``terms`` fit the budget;
        return ``value`` either way."""
        if self.terms + terms <= CACHE_TERMS:
            self[key] = value
            self.terms += terms
        return value


def _times(columns, gen_columns):
    """The sparse columns of A G, from those of A and of a generator's G.

    Column j of A G is the sum, over the pairs (t, g) of column j of G, of
    column t of A times g; each output k sums its products in ascending t.
    """
    out = []
    for gen_column in gen_columns:
        column = {}
        for t, g in gen_column:
            for k, a in columns[t - 1]:
                column[k] = column[k] + a * g if k in column else a * g
        out.append(tuple((k, e) for k, e in sorted(column.items()) if e))
    check_terms(sum(len(e.terms) for column in out for _, e in column))
    return tuple(out)


class BimoduleMap:
    """Structure map given by one n x n matrix of algebra elements per generator.

    ``gen_matrices[i-1][k-1][j-1]`` is the entry that appears in
    ``x^i * d^a x^j = sum_k d^a x^k * entry(i, j, k)``: row index k is the
    summed output letter, column index j the letter being crossed.  That
    dense list of lists is the input format only; m is held as sparse
    columns, per letter j the nonzero (k, m(w)[k][j]) pairs in ascending k.

    Instances are immutable after construction and may be shared freely.
    They hold two caches, each bounded by :data:`CACHE_TERMS` scalar terms
    beyond its seeds, as is the gradient memo of ``Calculus``, the third
    (a full cache answers what it holds and stores nothing more):

    * the word cache maps a word w to the sparse columns of m(w).  It is
      seeded with the empty word (the identity) and the n generators (i,),
      which always stay; beyond them it holds whole pushed words only,
      never their prefixes or suffixes;
    * the crossing memo maps (word, dword) to the canonical form of the
      unit-coefficient monomial word * dword: per tensor word, the (word,
      scalar) terms of its coefficient.  ``tensoralg`` fills and reads it.
    """

    __slots__ = ("n", "_word_cache", "_crossings")

    def __init__(self, n: int, gen_matrices):
        if n < 1:
            raise ValueError("generator count must be >= 1")
        if len(gen_matrices) != n:
            raise ValueError(f"expected {n} generator matrices, got {len(gen_matrices)}")
        one = AlgebraElement.one(n)
        self.n = n
        self._word_cache = _Cache({(): tuple(((j, one),) for j in range(1, n + 1))})
        self._crossings = _Cache()
        for i, mat in enumerate(gen_matrices, start=1):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"matrix for generator {i} is not {n}x{n}")
            if any(not isinstance(entry, AlgebraElement) or entry.n != n
                   for row in mat for entry in row):
                raise ValueError(f"matrix entry for generator {i} lives in the wrong algebra")
            self._word_cache[(i,)] = tuple(
                tuple((k, row[j]) for k, row in enumerate(mat, start=1) if row[j])
                for j in range(n))

    def entry(self, i: int, j: int, k: int) -> AlgebraElement:
        """The coefficient on d^a x^k produced by crossing x^i over d^a x^j:
        read from column j of m(x^i), and a fresh zero when k is not in it."""
        check_index(self.n, i, j, k)
        return dict(self._word_cache[(i,)][j - 1]).get(k, AlgebraElement.zero(self.n))

    def prefix_columns(self, word):
        """Yield the sparse columns of m(w[:0]) = 1, m(w[:1]), ..., m(w):
        one left-to-right product walk, each step one :func:`_times` by a
        generator (the first step is the generator itself)."""
        product = self._word_cache[()]
        yield product
        for p, columns in enumerate(self._word_cache[(i,)] for i in word):
            product = _times(product, columns) if p else columns
            yield product

    def _word_columns(self, word):
        columns = self._word_cache.get(word)
        if columns is None:
            for columns in self.prefix_columns(word):
                pass
            self._word_cache.store(word, columns, sum(
                len(entry.terms) for column in columns for _, entry in column))
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
        return {len(word) for i in range(1, self.n + 1) for column in self._word_cache[(i,)]
                for _, entry in column for word in entry.terms}

    def is_scalar_diagonal(self) -> bool:
        """Whether every m(x^i) is one algebra element p_i times the identity.

        Then m(u) = phi(u) I for the endomorphism phi: x^i -> p_i, and a
        coefficient crosses every letter keeping its index:
        u * d^a x^j = d^a x^j * phi(u).  Column j of m(x^i) is then the
        one pair (j, p_i), or empty for p_i = 0.
        """
        for i in range(1, self.n + 1):
            columns = self._word_cache[(i,)]
            p = dict(columns[0]).get(1)
            if any(column != (((j, p),) if p else ())
                   for j, column in enumerate(columns, start=1)):
                return False
        return True


# Every preset is diagonal, m(x^i) = p_i I: the entry p_i of (n, i, twist).
PRESETS = {
    "commutative": lambda n, i, twist: AlgebraElement.generator(n, i),
    "scalar-twist": lambda n, i, twist: AlgebraElement.monomial(n, (i,), twist),
    "constant": lambda n, i, twist: AlgebraElement.one(n),
}


def preset_map(name: str, n: int, twist=Q) -> BimoduleMap:
    """The preset ``name`` on n generators: m(x^i) = p_i I, with p_i from
    :data:`PRESETS` (``twist`` is read by scalar-twist only)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    if n > MAX_N:
        raise ValueError(f"generator count {n} above MAX_N = {MAX_N}")
    diagonal = [PRESETS[name](n, i, twist) for i in range(1, n + 1)]
    zero = AlgebraElement.zero(n)
    return BimoduleMap(n, [[[p if k == j else zero for j in range(n)] for k in range(n)]
                           for p in diagonal])
