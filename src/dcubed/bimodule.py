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
    return out


class BimoduleMap:
    """Structure map given by one n x n matrix of algebra elements per generator.

    ``gen[i-1][k-1][j-1]`` is the entry that appears in
    ``x^i * d^a x^j = sum_k d^a x^k * entry(i, j, k)``: row index k is the
    summed output letter, column index j the letter being crossed.

    Instances are immutable after construction and may be shared freely.
    The matrix cache holds whole pushed words only, never their prefixes or
    suffixes; it only ever grows.
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

    def prefix_matrices(self, word):
        """Yield m(w[:1]), m(w[:2]), ..., m(w): one left-to-right product walk."""
        mat = None
        for i in word:
            gen = self.gen[i - 1]
            mat = gen if mat is None else _mat_mul(self.n, mat, gen)
            yield mat

    def _word_matrix(self, word):
        mat = self._word_cache.get(word)
        if mat is None:
            for mat in self.prefix_matrices(word):
                pass
            self._word_cache[word] = mat
        return mat

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
    if n > MAX_N:
        raise ValueError(f"generator count {n} above MAX_N = {MAX_N}")
    if name == "scalar-twist":
        return scalar_twist_map(n, twist)
    return PRESETS[name](n)
