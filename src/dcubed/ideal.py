"""The d-compatible graded ideal that turns the tensor algebra into a
genuine q-differential algebra, with a certified membership oracle.

Generator families (one set per index pair (i, j), writing e_k for the
structure-map entry on d^a x^k and q for the cube root of unity):

    dx_dx    (grade 2):  dx^i (x) dx^j      - q   sum_k dx^k   (x) d(e_k)
    dx_d2x   (grade 3):  dx^i (x) d^2x^j    - q^2 sum_k d^2x^k (x) d(e_k)
    d2x_dx   (grade 3):  d^2x^i (x) dx^j  + (1-q) sum_k d^2x^k (x) d(e_k)
                                           - q^2  sum_k dx^k   (x) d^2(e_k)
    entry_d3 (grade 3):  d^3(e_k)                       (one generator per k)
    d2x_d2x  (grade 4):  d^2x^i (x) d^2x^j  - q   sum_k d^2x^k (x) d^2(e_k)

:func:`relations` is the one place this table is written as code: it
builds the five residuals for x^i replaced by any algebra element v, and
the generators and the congruence checks both read them from there.

The zeroth-order push-through relations are not emitted: coefficients are
always stored to the right of the letters, so those relations hold
identically in the representation and would only contribute zero vectors.

Membership is decided by exact linear algebra over Q(q): enumerate the
products  left-monomial * generator * right-monomial  of the right grade
within the configured bounds, and reduce the query against an
incrementally built echelon basis of their span.  A ``member`` verdict
always carries a witness combination that re-expands to the query exactly;
``not_member_at_bound`` is conclusive only relative to the bounds, which
an :class:`Ideal` reads from its one :class:`Bounds`.  When
every nonzero map entry is homogeneous of word degree 1 the whole algebra
is bigraded by (grade, word degree), and the oracle enumerates each
bidegree component exactly instead of sweeping everything under a bound.

The residual of a verdict is the normal form of the query: what is left
after reducing every component against its echelon basis, which is the
one representative of the query's coset that touches no pivot key.  It is
zero exactly for members, reducing it again leaves it unchanged, and it
differs from the query by a member.  On a bigraded map each echelon basis
is a truncated Groebner basis of its bidegree (Bergman's diamond lemma);
on the bounded path the normal form is canonical relative to the word
bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .scalar import Scalar, ZERO, ONE, Q, q_power
from .freealg import AlgebraElement, word_key
from .tensoralg import TensorElement, tensor_mul, dword_key
from .calculus import Calculus
from .differential import d

FAMILY_GRADES = {
    "dx_dx": 2, "dx_d2x": 3, "d2x_dx": 3, "entry_d3": 3, "d2x_d2x": 4,
}

FAMILIES = tuple(FAMILY_GRADES)

@dataclass
class Bounds:
    """The oracle's limits.

    ``word_bound`` caps the coefficient word degree of a system (None
    derives it per query), and ``size_cap`` the columns of one system.
    """
    word_bound: int | None = None
    size_cap: int = 200_000


def label(family, i, j, k=None) -> str:
    """A generator's name: family(i,j), or family(i,j,k) for entry_d3."""
    return f"{family}({i},{j})" if k is None else f"{family}({i},{j},{k})"


def relations(calc: Calculus, v: AlgebraElement, j: int) -> dict:
    """The five relations of the module docstring's table, x^i replaced by v.

    Maps (family, k) to its residual in table order; k is None except for
    "entry_d3", one residual d^3(m(v)[k][j]) per k = 1..n.  For v = x^i
    these are exactly the ideal generators attached to (i, j).
    """
    n, bmap = calc.n, calc.bmap
    dv = d(calc, TensorElement.of_algebra(v))
    d2v = d(calc, dv)
    column = dict(bmap.push(v, j))
    entry_diffs = []  # per k: (d e_k, d^2 e_k, d^3 e_k)
    for k in range(1, n + 1):
        d1 = d(calc, TensorElement.of_algebra(column.get(k, AlgebraElement.zero(n))))
        d2 = d(calc, d1)
        entry_diffs.append((d1, d2, d(calc, d2)))

    def summed(grade, order):
        """sum_k d^grade x^k (x) d^order(e_k)."""
        out = TensorElement(n)
        for k, diffs in enumerate(entry_diffs, start=1):
            for w, c in diffs[order - 1].terms.items():
                out._accumulate(((grade, k),) + w, c)
        return out

    dx_j = TensorElement.of_letter(n, 1, j)
    d2x_j = TensorElement.of_letter(n, 2, j)
    return {
        ("dx_dx", None): tensor_mul(bmap, dv, dx_j) - summed(1, 1).scale(Q),
        ("dx_d2x", None): tensor_mul(bmap, dv, d2x_j) - summed(2, 1).scale(q_power(2)),
        ("d2x_dx", None): (tensor_mul(bmap, d2v, dx_j) + summed(2, 1).scale(ONE - Q)
                           - summed(1, 2).scale(q_power(2))),
        **{("entry_d3", k): diffs[2] for k, diffs in enumerate(entry_diffs, start=1)},
        ("d2x_d2x", None): tensor_mul(bmap, d2v, d2x_j) - summed(2, 2).scale(Q),
    }


@dataclass(frozen=True)
class Generator:
    family: str
    i: int
    j: int
    k: int | None
    element: TensorElement

    @property
    def grade(self) -> int:
        return FAMILY_GRADES[self.family]

    def label(self) -> str:
        return label(self.family, self.i, self.j, self.k)


@dataclass(frozen=True, slots=True)
class WitnessTerm:
    left_dword: tuple
    left_word: tuple
    family: str
    i: int
    j: int
    k: int | None
    right_dword: tuple
    right_word: tuple
    coeff: Scalar

    def to_dict(self):
        return {
            "left": {"letters": [list(l) for l in self.left_dword],
                     "word": list(self.left_word)},
            "family": self.family,
            "i": self.i, "j": self.j,
            **({"k": self.k} if self.k is not None else {}),
            "right": {"letters": [list(l) for l in self.right_dword],
                      "word": list(self.right_word)},
            "coefficient": str(self.coeff),
        }


@dataclass
class Verdict:
    status: str                      # member | not_member_at_bound | bound_exceeded
    witness: list | None = None      # list[WitnessTerm] when member
    residual: TensorElement | None = None  # normal form when not a member
    detail: str = ""

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _term_order(key):
    dword, word = key
    return (dword_key(dword), word_key(word))


def _vectorize(e: TensorElement):
    return {(dword, word): coeff
            for dword, u in e.terms.items()
            for word, coeff in u.terms.items()}


def _devectorize(vec, n) -> TensorElement:
    out = TensorElement(n)
    for (dword, word), coeff in vec.items():
        out._accumulate(dword, AlgebraElement.monomial(n, word, coeff))
    return out


def _sub_scaled(target, source, factor):
    for key, value in source.items():
        cur = target.get(key, ZERO) - value * factor
        if cur:
            target[key] = cur
        else:
            target.pop(key, None)


class _Echelon:
    """Row basis with combination tracking over original column ids.

    Every stored row is normalized so its pivot (the largest key it touches)
    has coefficient one, and all its other keys are strictly smaller, so
    elimination in descending key order terminates.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}  # pivot key -> (normalized vector, combination)

    def _reduce(self, vec, combo):
        """Full normal form: keys without a pivot survive into the remainder."""
        while True:
            target = max((key for key in vec if key in self.rows),
                         key=_term_order, default=None)
            if target is None:
                return vec, combo
            row_vec, row_combo = self.rows[target]
            factor = vec[target]
            _sub_scaled(vec, row_vec, factor)
            _sub_scaled(combo, row_combo, factor)

    def insert(self, vec, col_id) -> bool:
        vec, combo = self._reduce(dict(vec), {col_id: ONE})
        if not vec:
            return False
        lead = max(vec, key=_term_order)
        inv = vec[lead].inv()
        self.rows[lead] = ({k: v * inv for k, v in vec.items()},
                           {k: v * inv for k, v in combo.items()})
        return True

    def express(self, vec):
        """Combination of original columns equal to vec, or the remainder."""
        vec, combo = self._reduce(dict(vec), {})
        if vec:
            return None, vec
        return {col: -c for col, c in combo.items() if c}, None


def _dwords_of_grade(n: int, grade: int):
    if grade == 0:
        return ((),)
    out = []
    for head_grade in (1, 2):
        if head_grade > grade:
            break
        for rest in _dwords_of_grade(n, grade - head_grade):
            for index in range(1, n + 1):
                out.append(((head_grade, index),) + rest)
    return tuple(sorted(out, key=dword_key))


def _words_of_length(n: int, length: int):
    return tuple(itertools.product(range(1, n + 1), repeat=length))


class Ideal:
    """Ideal context: generator cache and membership oracle."""

    def __init__(self, calc: Calculus, bounds: Bounds | None = None):
        self.calc = calc
        self.n = calc.n
        self.bounds = Bounds() if bounds is None else bounds
        self._generators = {}  # (i, j) -> generators_for(i, j)
        self._nonzero = None
        self._leads = None
        self._systems = {}
        self._uniform_degree = calc.bmap.uniform_entry_degree()

    # -- generators ----------------------------------------------------------

    def generator_element(self, family, i, j, k=None) -> TensorElement:
        for gen in self.generators_for(i, j):
            if gen.family == family and gen.k == k:
                return gen.element
        raise ValueError(f"no generator {label(family, i, j, k)}")

    def generators_for(self, i, j):
        """All generators attached to the index pair (i, j), zeros included."""
        gens = self._generators.get((i, j))
        if gens is None:
            rels = relations(self.calc, AlgebraElement.generator(self.n, i), j)
            gens = tuple(Generator(family, i, j, k, element)
                         for (family, k), element in rels.items())
            self._generators[(i, j)] = gens
        return gens

    def all_generators(self):
        """Nonzero generators over all index pairs (the spanning alphabet)."""
        if self._nonzero is None:
            pairs = itertools.product(range(1, self.n + 1), repeat=2)
            self._nonzero = tuple(g for i, j in pairs for g in self.generators_for(i, j)
                                  if not g.element.is_zero)
        return self._nonzero

    # -- membership ------------------------------------------------------------

    def membership(self, e: TensorElement) -> Verdict:
        if e.n != self.n:
            raise ValueError(f"element has {e.n} generators, ideal has {self.n}")
        if e.is_zero:
            return Verdict("member", witness=[])
        word_bound = self.bounds.word_bound
        if word_bound is None:
            word_bound = e.max_word_degree() + self.calc.bmap.max_entry_degree()

        direct = self._scalar_multiple_of_generator(e)
        if direct is not None:
            return Verdict("member", witness=[direct])

        exact = self._uniform_degree == 1
        if exact:
            components = e.bidegree_components()
        else:
            components = {(g, None): part
                          for g, part in e.grade_components().items()}

        witness = []
        residual = TensorElement.zero(self.n)
        status = "member"
        details = []
        for (grade, wdeg) in sorted(components):
            part = components[(grade, wdeg)]
            if grade == 0:
                # grade-0 component of the ideal is zero: nothing to span it
                status = "not_member_at_bound"
                residual = residual + part
                details.append("grade-0 component cannot lie in the ideal")
                continue
            if wdeg is not None and wdeg > word_bound:
                status = "not_member_at_bound"
                residual = residual + part
                details.append(f"word degree {wdeg} above bound {word_bound}")
                continue
            system = self._system(grade, wdeg, word_bound)
            if system is None:
                return Verdict("bound_exceeded", detail=(
                    f"spanning set for grade {grade} exceeds the size cap "
                    f"{self.bounds.size_cap}"))
            echelon, columns = system
            combo, rest = echelon.express(_vectorize(part))
            if combo is None:
                status = "not_member_at_bound"
                residual = residual + _devectorize(rest, self.n)
                details.append(f"irreducible remainder at grade {grade}")
            else:
                witness.extend(replace(columns[col_id], coeff=coeff)
                               for col_id, coeff in sorted(combo.items()))
        if status == "member":
            return Verdict("member", witness=witness)
        return Verdict(status, residual=residual, detail="; ".join(details))

    def _scalar_multiple_of_generator(self, e: TensorElement):
        """One-term witness when e is exactly c * (some generator).

        Generators can be linearly dependent (the commutative preset has
        such relations), so the generic solve may pick a combination; this
        keeps the canonical witness for the generators themselves.
        """
        if self._leads is None:
            self._leads = {}  # lead key -> [(generator, 1 / lead coefficient)]
            for gen in self.all_generators():
                gvec = _vectorize(gen.element)
                glead = max(gvec, key=_term_order)
                self._leads.setdefault(glead, []).append((gen, gvec[glead].inv()))
        vec = _vectorize(e)
        lead = max(vec, key=_term_order)
        for gen, inv in self._leads.get(lead, ()):
            factor = vec[lead] * inv
            if gen.element.scale(factor) == e:
                return WitnessTerm((), (), gen.family, gen.i, gen.j, gen.k,
                                   (), (), factor)
        return None

    def _system(self, grade, wdeg, word_bound):
        """Echelon basis of the bounded span at the given (bi)degree."""
        key = (grade, wdeg, None if wdeg is not None else word_bound)
        cached = self._systems.get(key)
        if cached is not None:
            return cached
        if self._count_columns(grade, wdeg, word_bound) > self.bounds.size_cap:
            return None

        echelon = _Echelon()
        columns = []  # column id -> unit-coefficient WitnessTerm
        seen = set()
        for term in self._candidates(grade, wdeg, word_bound):
            col = self._product(term)
            if col.is_zero:
                continue
            vec = _vectorize(col)
            inv = vec[max(vec, key=_term_order)].inv()
            scaled = [(k, v * inv) for k, v in vec.items()]
            sig = tuple(sorted((k, s.A, s.B, s.D) for k, s in scaled))
            if sig in seen:
                continue
            seen.add(sig)
            columns.append(term)
            echelon.insert(vec, len(columns) - 1)
        self._systems[key] = (echelon, columns)
        return self._systems[key]

    @staticmethod
    def _word_totals(wdeg, word_bound):
        """Summed word lengths of left and right: wdeg, or up to word_bound."""
        return (wdeg,) if wdeg is not None else range(word_bound + 1)

    def _candidates(self, grade, wdeg, word_bound):
        """The system's unit-coefficient terms left * generator * right."""
        n = self.n
        for gen in self.all_generators():
            for g1 in range(grade - gen.grade + 1):
                for left_d, right_d in itertools.product(
                        _dwords_of_grade(n, g1),
                        _dwords_of_grade(n, grade - gen.grade - g1)):
                    for total in self._word_totals(wdeg, word_bound):
                        for l1 in range(total + 1):
                            for w1, w2 in itertools.product(
                                    _words_of_length(n, l1),
                                    _words_of_length(n, total - l1)):
                                yield WitnessTerm(left_d, w1, gen.family,
                                                  gen.i, gen.j, gen.k,
                                                  right_d, w2, ONE)

    def _count_columns(self, grade, wdeg, word_bound):
        """Closed-form length of :meth:`_candidates`, for the size cap.

        Without letter shapes the count is 0 whatever the word bound, and
        word counts stop being added once the total passes the cap.
        """
        n = self.n
        shapes = sum(len(_dwords_of_grade(n, g1))
                     * len(_dwords_of_grade(n, grade - gen.grade - g1))
                     for gen in self.all_generators()
                     for g1 in range(grade - gen.grade + 1))
        if not shapes:
            return 0
        total = 0
        for t in self._word_totals(wdeg, word_bound):
            total += shapes * (t + 1) * n ** t
            if total > self.bounds.size_cap:
                break
        return total

    def _product(self, term) -> TensorElement:
        """left * generator * right of a witness term, without its coefficient."""
        n, bmap = self.n, self.calc.bmap
        left = TensorElement.monomial(
            n, term.left_dword, AlgebraElement.monomial(n, term.left_word))
        right = TensorElement.monomial(
            n, term.right_dword, AlgebraElement.monomial(n, term.right_word))
        gen = self.generator_element(term.family, term.i, term.j, term.k)
        return tensor_mul(bmap, left, tensor_mul(bmap, gen, right))

    def expand_witness(self, witness) -> TensorElement:
        """Re-expand a membership witness; must reproduce the query exactly."""
        out = TensorElement.zero(self.n)
        for term in witness:
            out = out + self._product(term).scale(term.coeff)
        return out
