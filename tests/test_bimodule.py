import random
import tracemalloc

import pytest

import dcubed.bimodule
from dcubed.scalar import Q, Scalar
from dcubed.freealg import AlgebraElement
from dcubed.bimodule import MAX_N, BimoduleMap, preset_map
from dcubed.calculus import Calculus
from dcubed.tensoralg import push_through

from conftest import NON_DIAGONAL_MAPS, PRESET_NAMES, random_algebra, x


def mat_eq(a, b):
    return all(ra == rb for row_a, row_b in zip(a, b) for ra, rb in zip(row_a, row_b))


def mat_mul(n, a, b):
    return [[sum((a[k][t] * b[t][j] for t in range(n)),
                 AlgebraElement.zero(n)) for j in range(n)] for k in range(n)]


def test_unit_maps_to_identity():
    for name in PRESET_NAMES:
        m = preset_map(name, 2)
        mat = m.matrix(AlgebraElement.one(2))
        for k in range(2):
            for j in range(2):
                expected = AlgebraElement.one(2) if k == j else AlgebraElement.zero(2)
                assert mat[k][j] == expected


def diagonal_input(n, entries):
    """Constructor input m(x^i) = entries[i-1] times the identity, written out."""
    zero = AlgebraElement.zero(n)
    return [[[p if k == j else zero for j in range(n)] for k in range(n)] for p in entries]


def test_generator_matrices_returned_verbatim():
    # m(x^i) reads back the matrix the constructor was given, zeros included
    zero = AlgebraElement.zero(2)
    diagonal = diagonal_input(2, [x(2, 1), x(2, 2)])
    off_diagonal = [[[zero, x(2, 1)], [AlgebraElement.one(2), zero]],
                    [[x(2, 2, 1), zero], [x(2, 1) - x(2, 2), x(2, 2)]]]
    for gen in (diagonal, off_diagonal):
        m = BimoduleMap(2, gen)
        for i in (1, 2):
            assert mat_eq(m.matrix(x(2, i)), gen[i - 1])
    # every preset is m(x^i) = p_i I, with the p_i of the README's table
    readme_p = {
        "commutative": lambda i, c: x(3, i),
        "scalar-twist": lambda i, c: x(3, i).scale(c),
        "constant": lambda i, c: AlgebraElement.one(3),
    }
    assert tuple(readme_p) == PRESET_NAMES
    for name, p in readme_p.items():
        for twist in (Q, Scalar(2)):
            m = preset_map(name, 3, twist)
            expected = diagonal_input(3, [p(i, twist) for i in (1, 2, 3)])
            for i in (1, 2, 3):
                assert mat_eq(m.matrix(x(3, i)), expected[i - 1])


def test_commutative_word_is_diagonal():
    # image of x1 x2 must be the product of the two generator matrices,
    # which for the commutative preset is diag(x1 x2, x1 x2)
    m = preset_map("commutative", 2)
    got = m.matrix(x(2, 1, 2))
    byhand = mat_mul(2, m.matrix(x(2, 1)), m.matrix(x(2, 2)))
    assert mat_eq(got, byhand)
    for k in range(2):
        for j in range(2):
            expected = x(2, 1, 2) if k == j else AlgebraElement.zero(2)
            assert got[k][j] == expected


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(NON_DIAGONAL_MAPS))
def test_matrix_is_multiplicative(name):
    # the non-diagonal maps do not commute, so a reversed product order shows
    m = NON_DIAGONAL_MAPS.get(name, lambda: preset_map(name, 2))()
    rng = random.Random(17)
    for _ in range(25):
        u, v = random_algebra(rng, 2), random_algebra(rng, 2)
        assert mat_eq(m.matrix(u * v), mat_mul(2, m.matrix(u), m.matrix(v)))


def word_matrix(m, word):
    """m(word) as the product of the generator matrices along the word."""
    n = m.n
    out = [[AlgebraElement.one(n) if k == j else AlgebraElement.zero(n)
            for j in range(n)] for k in range(n)]
    for i in word:
        out = mat_mul(n, out, m.matrix(x(n, i)))
    return out


def test_push_matches_matrix_column():
    # push(u, j) is column j of sum coeff * m(word) over the terms of u,
    # without the outputs k whose contributions cancel
    twisted = NON_DIAGONAL_MAPS["twisted"]()
    maps = [preset_map(name, 2) for name in PRESET_NAMES] + [twisted]
    rng = random.Random(19)
    # on twisted, m(1)[1][1] = 1 and m(x2)[1][1] = 2: 2 - x2 cancels at k = 1
    cancelling = AlgebraElement.scalar(2, 2) - x(2, 2)
    elements = [random_algebra(rng, 2) for _ in range(20)] + [cancelling]
    for m in maps:
        for u in elements:
            mat = [[AlgebraElement.zero(2)] * 2 for _ in range(2)]
            for word, coeff in u.terms.items():
                term = word_matrix(m, word)
                mat = [[a + b.scale(coeff) for a, b in zip(row, term_row)]
                       for row, term_row in zip(mat, term)]
            for j in (1, 2):
                column = [(k, mat[k - 1][j - 1]) for k in (1, 2)]
                assert m.push(u, j) == [(k, c) for k, c in column if c]
    assert twisted.push(cancelling, 1) == [(2, -twisted.entry(2, 1, 2))]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_push_grade_independent(name):
    # one map serves both letter grades: crossing dx^j and d^2x^j yields the
    # same coefficients on the same output indices
    m = preset_map(name, 2)
    rng = random.Random(23)
    for _ in range(20):
        u = random_algebra(rng, 2)
        for j in (1, 2):
            first = push_through(m, u, ((1, j),)).terms
            second = push_through(m, u, ((2, j),)).terms
            assert {k: c for ((_, k),), c in first.items()} \
                == {k: c for ((_, k),), c in second.items()}


def test_unit_pushes_unchanged():
    for name in PRESET_NAMES:
        m = preset_map(name, 2)
        for j in (1, 2):
            assert m.push(AlgebraElement.one(2), j) == [(j, AlgebraElement.one(2))]


@pytest.mark.parametrize("bad", [0, 3])
def test_indices_outside_range_raise(bad):
    # the indices just outside 1..n; a list index of -1 would accept 0 silently
    m = preset_map("commutative", 2)
    message = f"generator index {bad} outside 1..2"
    with pytest.raises(ValueError, match=message):
        m.push(x(2, 1), bad)
    for i, j, k in ((bad, 2, 2), (2, bad, 2), (2, 2, bad)):
        with pytest.raises(ValueError, match=message):
            m.entry(i, j, k)
    for grade in (1, 2):
        with pytest.raises(ValueError, match=message):
            push_through(m, x(2, 1), ((grade, bad),))
    with pytest.raises(ValueError, match=message):
        Calculus(m).partial(bad, x(2, 1))


def test_shape_validation():
    good = diagonal_input(2, [x(2, 1), x(2, 2)])
    with pytest.raises(ValueError):
        BimoduleMap(2, good[:1])
    with pytest.raises(ValueError):
        BimoduleMap(2, [good[0], [row[:1] for row in good[1]]])
    with pytest.raises(ValueError):
        wrong_algebra = [[AlgebraElement.one(3) for _ in range(2)] for _ in range(2)]
        BimoduleMap(2, [good[0], wrong_algebra])
    with pytest.raises(ValueError, match=r"^generator count must be >= 1$"):
        BimoduleMap(0, [])


def test_unknown_preset_names_the_presets():
    message = "unknown preset 'no-such'; choose from ['commutative', 'constant', 'scalar-twist']"
    with pytest.raises(ValueError) as exc:
        preset_map("no-such", 2)
    assert str(exc.value) == message


def test_entry_degree_inspection():
    assert preset_map("commutative", 2).entry_degrees() == {1}
    assert preset_map("scalar-twist", 2).entry_degrees() == {1}
    assert preset_map("constant", 2).entry_degrees() == {0}
    mixed = diagonal_input(2, [x(2, 1), x(2, 2)])
    mixed[0][0][0] = x(2, 1, 1)  # degree-2 entry alongside degree-1 entries
    assert BimoduleMap(2, mixed).entry_degrees() == {1, 2}
    zero = [[[AlgebraElement.zero(2)] * 2] * 2] * 2
    assert BimoduleMap(2, zero).entry_degrees() == set()
    # m(x^i) = p_i times the identity on every preset; m(x1) = diag(x1 x1, x1)
    # in mixed, and twisted has off-diagonal entries
    assert all(preset_map(name, 2).is_scalar_diagonal() for name in PRESET_NAMES)
    assert not BimoduleMap(2, mixed).is_scalar_diagonal()
    assert not NON_DIAGONAL_MAPS["twisted"]().is_scalar_diagonal()
    # m(x1) = 0 is 0 times the identity, beside m(x2) = x2 I
    zero_x1 = BimoduleMap(2, diagonal_input(2, [AlgebraElement.zero(2), x(2, 2)]))
    assert zero_x1.is_scalar_diagonal()
    assert zero_x1.entry_degrees() == {1}
    # column 1 of m(x1) holds only the off-diagonal entry m(x1)[2][1] = x1
    lower = diagonal_input(2, [AlgebraElement.zero(2), x(2, 2)])
    lower[0][1][0] = x(2, 1)
    assert not BimoduleMap(2, lower).is_scalar_diagonal()


def test_scalar_twist_factor():
    m = preset_map("scalar-twist", 2, twist=Q)
    assert m.entry(1, 1, 1) == x(2, 1).scale(Q)
    assert m.entry(1, 2, 1).is_zero


def test_long_word_matrix():
    # the prefix walk is a loop, so no recursion limit; beside the identity
    # and the generators, the cache keeps the whole word only, not its 1499
    # proper prefixes
    m = preset_map("commutative", 2)
    word = x(2, *([1] * 1500))
    assert mat_eq(m.matrix(word), [[word, AlgebraElement.zero(2)],
                                   [AlgebraElement.zero(2), word]])
    assert list(m._word_cache) == [(), (1,), (2,), (1,) * 1500]


def test_word_cache_budget(monkeypatch):
    # a full cache still answers: the seeds stay, and words past the budget
    # are pushed again without being stored
    rng = random.Random(17)
    words = [tuple(rng.randint(1, 2) for _ in range(rng.randint(3, 6))) for _ in range(40)]
    make_map = NON_DIAGONAL_MAPS["twisted"]
    expected = [make_map().matrix(x(2, *word)) for word in words]
    monkeypatch.setattr(dcubed.bimodule, "CACHE_TERMS", 60)
    m = make_map()
    seeds = dict(m._word_cache)
    for _ in range(2):
        for word, matrix in zip(words, expected):
            assert mat_eq(m.matrix(x(2, *word)), matrix)
            cache = m._word_cache
            assert cache.terms <= 60
            assert cache.terms == sum(len(e.terms) for key, columns in cache.items()
                                      if key not in seeds for column in columns
                                      for _, e in column)
    assert all(m._word_cache[word] is columns for word, columns in seeds.items())
    assert 0 < len(m._word_cache) - len(seeds) < len(set(words))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_above_max_n_fails_before_building(name):
    # n = 65 would build 65^3 entries; the refusal must come first
    assert MAX_N == 64
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_N"):
            preset_map(name, MAX_N + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_retains_sparse_columns(name):
    # the dense input holds n^3 entries, nearly all zero; the map keeps only
    # the nonzero ones, the n^2 diagonal entries of m(x^i) = p_i I.  The
    # zeros are one shared object: fresh ones would peak near 30 MiB
    tracemalloc.start()
    try:
        m = preset_map(name, MAX_N)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.is_scalar_diagonal()
    assert m.entry_degrees() == ({0} if name == "constant" else {1})
    assert retained < 4_000_000
    assert peak < 8 * 2**20
