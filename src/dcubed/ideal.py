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
the generator table and the checks all read them from there.

The zeroth-order push-through relations are not emitted: coefficients are
always stored to the right of the letters, so those relations hold
identically in the representation and would only contribute zero vectors.

Membership is decided by exact linear algebra over Q(q): reduce the query
against an incrementally built echelon basis of the span of the products
left-monomial * generator * right-monomial of its grade.  Vectors are keyed
by the term order itself, so a pivot is a plain ``max``, and a key begins
with its term's grade and word degree: a query is vectorized once, and its
keys say which system each of its terms goes to.  The basis keeps
no combination of products per row, only how each accepted product
reduced when it was inserted; a ``member`` verdict's witness is recovered
from those records by back-substitution (see :class:`_Echelon`), and it
re-expands to the query exactly.

Which products span a system depends on the map alone, so :class:`Ideal`
plans it once (see ``Ideal.__init__``).  When every term of every map
entry has word degree 0, or every one has degree 1, the ideal is graded by
(grade, word degree), and each bidegree is spanned exactly.  On a
right-only map (degree 0, or degree 1 and scalar-diagonal: every preset)
a bidegree (g, w) is n^w copies of the letter system (g, 0), one per
right word, so each right word of a query reduces against the one letter
system of its grade (see :meth:`Ideal.membership`).  Other maps take the
bounded path: they sweep every word degree up to ``Bounds.word_bound``,
so there ``not_member_at_bound`` holds relative to it.

The residual of a verdict is the normal form of the query: what is left
after reducing every component against its echelon basis, which is the
one representative of the query's coset that touches no pivot key.  It is
zero exactly for members, reducing it again leaves it unchanged, and it
differs from the query by a member.  On the exact path each echelon basis
is a truncated Groebner basis of its bidegree (Bergman's diamond lemma);
on the bounded path the normal form is canonical relative to the word
bound.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .scalar import Scalar, ONE, Q, q_power
from .freealg import AlgebraElement, TermLimitError, word_key
from .tensoralg import TensorElement, tensor_mul, dword_key, letter_sum, prefixed
from .calculus import Calculus
from .differential import d


@dataclass
class Bounds:
    """The oracle's limits.

    ``word_bound`` caps the coefficient word degree of a system on the
    bounded path (None derives it per query: the query's word degree plus
    the largest entry degree); maps on the graded path never read it.
    ``size_cap`` caps the columns of one system, counted in closed form
    before any of them is built (see ``Ideal._system``).
    """
    word_bound: int | None = None
    size_cap: int = 200_000


def relations(calc: Calculus, v: AlgebraElement, j: int) -> dict:
    """The five relations of the module docstring's table, x^i replaced by v.

    Maps (family, k) to its residual in table order; k is None except for
    "entry_d3", one residual d^3(m(v)[k][j]) per k = 1..n, so every key is
    present on every map.  For v = x^i the nonzero residuals are the ideal
    generators attached to (i, j) (see :meth:`Ideal.all_generators`), and
    the checks read the whole dict.

    The entries e_k are the nonzero pairs ``push(v, j)`` returns; d, d^2
    and d^3 of them are taken once each, as the families d1, d2 and d3 of
    (k, d^a(e_k)) pairs.  Each row is then written as the table writes it,
    each ``sum_k d^a x^k (x) d^b(e_k)`` the :func:`letter_sum` of grade a
    over the family db.  An e_k that is not pushed contributes nothing to
    the sums, and its "entry_d3" residual is a fresh zero.
    """
    n, bmap = calc.n, calc.bmap
    dv = d(calc, TensorElement.of_algebra(v))
    d2v = d(calc, dv)
    d1 = [(k, d(calc, TensorElement.of_algebra(e))) for k, e in bmap.push(v, j)]
    d2 = [(k, d(calc, e)) for k, e in d1]
    d3 = {k: d(calc, e) for k, e in d2}
    dx_j = TensorElement.of_letter(n, 1, j)
    d2x_j = TensorElement.of_letter(n, 2, j)
    return {
        ("dx_dx", None): tensor_mul(bmap, dv, dx_j) - letter_sum(n, 1, d1).scale(Q),
        ("dx_d2x", None): tensor_mul(bmap, dv, d2x_j) - letter_sum(n, 2, d1).scale(q_power(2)),
        ("d2x_dx", None): (tensor_mul(bmap, d2v, dx_j) + letter_sum(n, 2, d1).scale(ONE - Q)
                           - letter_sum(n, 1, d2).scale(q_power(2))),
        **{("entry_d3", k): d3.get(k, TensorElement.zero(n)) for k in range(1, n + 1)},
        ("d2x_d2x", None): tensor_mul(bmap, d2v, d2x_j) - letter_sum(n, 2, d2).scale(Q),
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
        """The grade of the family in the module docstring's table, read
        from the element itself: a generator is a nonzero residual of
        :func:`relations`, homogeneous of its family's grade."""
        return self.element.max_grade()

    def label(self) -> str:
        """The name: family(i,j), or family(i,j,k) for entry_d3."""
        k = "" if self.k is None else f",{self.k}"
        return f"{self.family}({self.i},{self.j}{k})"


@dataclass(frozen=True, slots=True)
class WitnessTerm:
    """One term ``coeff * L * generator * R`` of a witness.

    L and R are monomials, letters then a coefficient word.  The term holds
    the ideal's own :class:`Generator`, so re-expanding it looks nothing up.
    """
    left_dword: tuple
    left_word: tuple
    generator: Generator
    right_dword: tuple
    right_word: tuple
    coeff: Scalar

    def to_dict(self):
        gen = self.generator
        return {
            "left": {"letters": [list(l) for l in self.left_dword],
                     "word": list(self.left_word)},
            "family": gen.family,
            "i": gen.i, "j": gen.j,
            **({"k": gen.k} if gen.k is not None else {}),
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


def _vectorize(e: TensorElement, keys):
    """e as a sparse vector over its terms, keyed in term order.

    A term (dword, word) is keyed (dword_key(dword), word_key(word)), so
    comparing keys is comparing terms and the largest key is the leading
    term.  ``keys`` interns the keys, dword -> (its dword_key, {word: key}):
    each key is built once, and every vector shares it and its dword_key.
    """
    vec = {}
    for dword, u in e.terms.items():
        interned = keys.get(dword)
        if interned is None:
            interned = keys[dword] = (dword_key(dword), {})
        dkey, by_word = interned
        for word, coeff in u.terms.items():
            key = by_word.get(word)
            if key is None:
                key = by_word[word] = (dkey, word_key(word))
            vec[key] = coeff
    return vec


def _devectorize(vec, n) -> TensorElement:
    """Inverse of :func:`_vectorize`: a dword_key holds the letters' grades
    and indices, a word_key the word."""
    out = TensorElement(n)
    for ((_, grades, indices), (_, word)), coeff in vec.items():
        out._accumulate(tuple(zip(grades, indices)),
                        AlgebraElement.monomial(n, word, coeff))
    return out


class _Echelon:
    """Row basis of the span of the inserted vectors, with their columns.

    Each vector is inserted with the column it stands for (an oracle system
    passes a unit-coefficient :class:`WitnessTerm`); ``columns`` keeps the
    accepted ones, one per row, in insertion order.  Every stored row is
    normalized so its pivot (the largest key it touches) has coefficient
    one, and all its other keys are strictly smaller, so elimination in
    descending key order terminates.  A row holds no combination of
    columns.  Beside it, ``records`` keeps how its vector reduced when it
    was inserted: the vector is ``lead * row`` plus the ``factor`` multiple
    of each earlier row it met.  Only independent vectors make rows, so a
    vector in the span is one combination of the columns, and
    :meth:`express` recovers it by back-substitution over the records.

    Every ``c - a * b`` of both phases, a row subtracted from a vector and
    a record's factors from the pending coefficients, is one call of the
    Q(q) kernel :meth:`Scalar.sub_scaled`: one canonical Scalar per key
    touched, and a key that cancels is dropped.  Which columns are
    accepted depends only on the span, and their combination is unique,
    so the arithmetic's form changes no witness or residual.
    """

    __slots__ = ("rows", "records", "columns")

    def __init__(self):
        self.rows = {}  # pivot key -> normalized vector
        self.records = {}  # pivot key -> (column index, 1 / lead, {earlier pivot: factor})
        self.columns = []  # the accepted columns, in insertion order

    def _reduce(self, vec):
        """Full normal form: keys without a pivot survive into the remainder.

        Also returns the factor of every row subtracted, by pivot; each
        pivot is met at most once, since a row only touches smaller keys.
        """
        rows, factors = self.rows, {}
        while True:
            target = max(filter(rows.__contains__, vec), default=None)
            if target is None:
                return vec, factors
            factor = factors[target] = vec[target]
            Scalar.sub_scaled(vec, rows[target], factor)

    def insert(self, vec, column) -> bool:
        """Add a row for vec unless the rows span it; keep column if added."""
        vec, factors = self._reduce(dict(vec))
        if not vec:
            return False
        lead = max(vec)
        inv = vec[lead].inv()
        self.rows[lead] = {k: v * inv for k, v in vec.items()}
        self.records[lead] = (len(self.columns), inv, factors)
        self.columns.append(column)
        return True

    def express(self, vec):
        """``([(index, coeff), ...], None)``, indices into ``columns`` in
        insertion order and the columns' vectors summing to vec, or
        ``(None, remainder)``.

        Reducing vec leaves ``pending``: its coefficient on each row.  The
        row with the latest column is that column's vector over its lead,
        less the earlier rows its record names, so its column takes the
        coefficient ``a = pending / lead``, and each earlier row the record
        names takes ``-a * factor`` more.  A heap visits the rows reached,
        latest column first, so every row is settled once, after every
        later row has added to it.  A row whose pending coefficient cancels
        to zero leaves ``pending`` and takes no column; one that comes back
        after it cancelled is queued twice, and its second entry is skipped.
        """
        vec, pending = self._reduce(dict(vec))
        if vec:
            return None, vec
        records = self.records
        heap = [(-records[pivot][0], pivot) for pivot in pending]
        heapq.heapify(heap)
        combo = {}  # index in columns -> coefficient
        while heap:
            pivot = heapq.heappop(heap)[1]
            coeff = pending.pop(pivot, None)
            if coeff is None:  # cancelled to zero, or queued twice
                continue
            index, inv, factors = records[pivot]
            coeff = combo[index] = coeff * inv
            for earlier in factors:
                if earlier not in pending:
                    heapq.heappush(heap, (-records[earlier][0], earlier))
            Scalar.sub_scaled(pending, factors, coeff)
        return [(index, combo[index]) for index in sorted(combo)], None


_EMPTY_WORD = word_key(())


def _grade_vectors(grade: int):
    """The tuples of letter grades (1 or 2) summing to grade, in
    lexicographic order."""
    if grade == 0:
        yield ()
    for head in (1, 2)[:grade]:
        yield from ((head,) + rest for rest in _grade_vectors(grade - head))


def _dwords_of_grade(n: int, grade: int):
    """The dwords of one grade, generated in ``dword_key`` order: grade
    vectors in lexicographic order, then indices through itertools.product."""
    pools = {a: [(a, i) for i in range(1, n + 1)] for a in (1, 2)}
    return [dword for vector in _grade_vectors(grade)
            for dword in itertools.product(*(pools[a] for a in vector))]


class Ideal:
    """Ideal context: the generator table and the membership oracle.

    Every system is keyed by (grade, top).  On the graded path ``top`` is
    the word degree of a bidegree, on the bounded path the word bound.
    """

    def __init__(self, calc: Calculus, bounds: Bounds | None = None):
        self.calc = calc
        self.n = calc.n
        self.bounds = Bounds() if bounds is None else bounds
        self._generators = None  # all_generators(), built on first use
        self._leads = None
        self._systems = {}  # (grade, top) -> _Echelon
        self._keys = {}  # interned vector keys, see _vectorize
        # The oracle's plan, from one walk over the map.  Degrees {1}: every
        # coefficient push preserves word degree, so the tensor algebra is
        # bigraded by (grade, word degree).  Degrees {0}, or none on the
        # zero map, whose entries are all the scalar 0: every entry is a
        # scalar, and the ideal is the span of all dwords of at least two
        # letters, graded too.  Either way each bidegree is spanned exactly.
        # Any other set takes the bounded sweep, whose per-query word bound
        # adds ``_slack``.
        degrees = calc.bmap.entry_degrees()
        self._right_only = degrees <= {0} or (
            degrees == {1} and calc.bmap.is_scalar_diagonal())
        self._graded = self._right_only or degrees == {1}
        self._slack = max(degrees, default=0)

    # -- generators ----------------------------------------------------------

    def all_generators(self):
        """The nonzero generators, the spanning alphabet of every system.

        Index pairs (i, j) in lexicographic order, and within a pair the
        table order of :func:`relations`, from one call per pair.  A zero
        residual (an entry_d3 of an entry that ``push`` leaves out, or a
        family that vanishes on the map) never becomes a :class:`Generator`.
        """
        if self._generators is None:
            n = self.n
            self._generators = tuple(
                Generator(family, i, j, k, element)
                for i, j in itertools.product(range(1, n + 1), repeat=2)
                for (family, k), element in relations(
                    self.calc, AlgebraElement.generator(n, i), j).items()
                if not element.is_zero)
        return self._generators

    # -- membership ------------------------------------------------------------

    def membership(self, e: TensorElement) -> Verdict:
        """Decide whether e lies in the ideal, reducing each component once.

        The status is ``member``, ``not_member_at_bound`` or
        ``bound_exceeded``.  A member's witness is a list of
        :class:`WitnessTerm`, and :meth:`expand_witness` re-expands it to e
        exactly.  A non-member's residual is the normal form of e: zero
        exactly for members, left unchanged by a second reduction, and
        differing from e by a member.  Its detail names the system of each
        failed part.  A ``bound_exceeded`` detail names the system refused:
        over the size cap, or with a column of more than
        ``freealg.MAX_TERMS`` terms (the generators are built by then, so
        only a column can pass it); a refused system is not cached.

        e is vectorized once.  Each key starts with its term's grade and
        word degree, so one pass over the keys splits e into parts keyed
        (grade, top), one per system it meets: one per bidegree (grade,
        word degree) on the graded path, one per grade at the word bound
        on the bounded path.  A part maps a right word's key to a block.
        On a right-only map there is a block per coefficient word, re-keyed
        to the empty word (see below); on every other map there is one
        block under the empty word, the part as it stands.  One loop then
        expresses every block against the part's system: a witness term's
        right word is its column's followed by the block's, a part's terms
        sort by (column index, word), and a failed block's remainder gets
        the block's word back on its keys.

        On a right-only map (degree 0, or degree 1 and scalar-diagonal)
        each block of a bidegree (g, w) reduces against the one letter
        system (g, 0), which :meth:`_system` gives for (g, w).  Degree 0,
        the zero map included: scalar entries, 0 or not, have zero
        derivatives, so every generator is a bare two-letter dword
        (entry_d3 vanishes) and a left word crosses letters as scalars.
        Degree 1, scalar-diagonal (every m(x^i) is p_i times the
        identity): let phi be the endomorphism x^i -> p_i; then m(u) =
        phi(u) I, so u * d^a x^j = d^a x^j * phi(u).  Entries of degree 1
        have scalar derivatives, so again every generator is a two-letter
        dword with scalar coefficients, and a left word w crosses it and
        the right letters R_d whole:

            L_d w g R_d v  =  L_d g R_d phi^k(w) v,      k = 2 + |R_d|.

        So the products L_d g R_d v, v a word of length w, span (g, w), and
        each is the letters-only column L_d g R_d with v on its right.
        Columns of different words share no key: (g, w) is n^w copies of
        (g, 0), one per word.  A block keyed to the empty word is expressed
        against (g, 0), its witness terms take v as their right word, and
        sorting them by (column index, v) is the insertion order of the
        (g, w) system, so the witness is that system's.  A remainder block
        gets v back.  The bounded path keeps its left words: a
        scalar-diagonal map of degree 2 has generators with polynomial
        coefficients, which a left word does not cross whole.
        """
        if e.n != self.n:
            raise ValueError(f"element has {e.n} generators, ideal has {self.n}")
        vec = _vectorize(e, self._keys)
        if not vec:
            return Verdict("member", witness=[])

        direct = self._scalar_multiple_of_generator(vec)
        if direct is not None:
            return Verdict("member", witness=[direct])

        top = None
        if not self._graded:
            top = self.bounds.word_bound
            if top is None:
                top = max(wkey[0] for _, wkey in vec) + self._slack
        axis = "word degree" if top is None else "word bound"
        parts = {}  # (grade, top) -> {right word key: block}
        if self._right_only:  # a block per coefficient word, keyed to the empty word
            for (dkey, wkey), coeff in vec.items():
                blocks = parts.setdefault((dkey[0], wkey[0]), {})
                blocks.setdefault(wkey, {})[dkey, _EMPTY_WORD] = coeff
        else:  # one block per part: its vector as it stands
            for key, coeff in vec.items():
                dkey, wkey = key
                part = dkey[0], wkey[0] if top is None else top
                blocks = parts.get(part)
                if blocks is None:
                    blocks = parts[part] = {_EMPTY_WORD: {}}
                blocks[_EMPTY_WORD][key] = coeff

        # One loop for every block: below grade 2 the system is empty, so
        # the whole block is its remainder.
        witness, rest, details = [], {}, []
        for grade, top in sorted(parts):
            try:
                system = self._system(grade, top)
            except TermLimitError as err:  # a column passed MAX_TERMS
                return Verdict("bound_exceeded", detail=(
                    f"spanning set for grade {grade}, {axis} {top}: {err}"))
            if system is None:
                return Verdict("bound_exceeded", detail=(
                    f"spanning set for grade {grade}, {axis} {top} exceeds the "
                    f"size cap {self.bounds.size_cap}"))
            terms, failed = [], False
            for wkey, block in parts[grade, top].items():
                combo, remainder = system.express(block)
                if combo is None:  # a re-keyed block gets its word back
                    failed = True
                    rest.update(remainder if wkey == _EMPTY_WORD else
                                {(dkey, wkey): coeff for (dkey, _), coeff in remainder.items()})
                else:
                    word = wkey[1]
                    for index, coeff in combo:
                        terms.append((index, word, coeff))
            if failed:
                details.append(f"irreducible remainder at grade {grade}, {axis} {top}")
                continue
            terms.sort()  # by (column index, word): no two terms share both
            columns = system.columns
            for index, word, coeff in terms:  # the column, scaled, with the word on its right
                c = columns[index]
                witness.append(WitnessTerm(c.left_dword, c.left_word, c.generator,
                                           c.right_dword, c.right_word + word, coeff))
        if rest:
            return Verdict("not_member_at_bound", residual=_devectorize(rest, self.n),
                           detail="; ".join(details))
        return Verdict("member", witness=witness)

    def _scalar_multiple_of_generator(self, vec):
        """One-term witness when the query whose vector is vec is exactly
        c * (some generator).

        Generators can be linearly dependent (the commutative preset has
        such relations), so the generic solve may pick a combination; this
        keeps the canonical witness for the generators themselves.

        A generator with vec's lead key is compared in place, nothing
        scaled: its term count against vec's, then each of its terms times
        c against vec's value at the term's key.  Every generator was
        vectorized once, when its lead was recorded, so ``_keys`` holds the
        key of each of its terms.
        """
        keys = self._keys
        if self._leads is None:
            self._leads = {}  # lead key -> [(generator, 1 / lead coefficient)]
            for gen in self.all_generators():
                gvec = _vectorize(gen.element, keys)
                glead = max(gvec)
                self._leads.setdefault(glead, []).append((gen, gvec[glead].inv()))
        lead = max(vec)
        for gen, inv in self._leads.get(lead, ()):
            if gen.element.size() != len(vec):
                continue
            factor = vec[lead] * inv
            if all(coeff * factor == vec.get(by_word[word])
                   for dword, u in gen.element.terms.items()
                   for by_word in (keys[dword][1],)
                   for word, coeff in u.terms.items()):
                return WitnessTerm((), (), gen, (), (), factor)
        return None

    def _system(self, grade, top):
        """Echelon basis of the span of the columns keyed (grade, top).

        On a right-only map a bidegree (grade, w) is n^w copies of the
        letter system (grade, 0), so that is the system it gets (see
        :meth:`membership`); only word degree 0 is ever built there.

        Counted first, in closed form.  A dword is a string of letters of
        grade 1 or 2, so there are c_0 = 1, c_1 = n and c_g = n (c_{g-1} +
        c_{g-2}) of grade g; a generator of grade h has the sum over g1 of
        c_{g1} c_{grade-h-g1} placements of left and right letters, each
        met by every (left, right) word pair: those of total length top on
        the graded path (a left word can add rank on a degree-1 map that
        is not right-only), of every total up to the word bound top on the
        bounded one.  A system of more than ``Bounds.size_cap`` columns is
        refused (None) before any dword or product is built; it is 0
        columns without placements, whatever the word bound.

        Then one generator-major walk: for each generator, each placement,
        and each word pair.  Every column goes to :meth:`_Echelon.insert`
        as a unit-coefficient :class:`WitnessTerm`; it rejects a zero or
        dependent one, so the echelon's ``columns`` holds exactly the
        independent columns, one per row, in walk order.  The dwords of
        each grade a placement needs are listed once.  Every left factor of
        one generator multiplies the same products generator * right: each
        is built once by :meth:`_column`, in a dict local to that
        generator's loop, and dropped when the walk moves on.  The echelon
        is cached only once the walk is done, so a walk that raises caches
        nothing.
        """
        top = 0 if self._right_only else top
        cached = self._systems.get((grade, top))
        if cached is not None:
            return cached
        n, cap = self.n, self.bounds.size_cap
        gens = self.all_generators()
        rests = [grade - gen.grade for gen in gens]  # grade of the letters around each
        reach = max(rests, default=-1)
        counts = [1, n]  # dwords per grade; past the cap, cap + 1 will do
        while len(counts) <= reach:
            counts.append(min(n * (counts[-1] + counts[-2]), cap + 1))
        per_pair = sum(counts[g1] * counts[rest - g1] for rest in rests for g1 in range(rest + 1))
        count, words, letters = 0, [], range(1, n + 1)
        for total in ((top,) if self._graded else range(top + 1)) if per_pair else ():
            count += per_pair * (total + 1) * n ** total  # word pairs of this total
            if count > cap:
                return None
            words += (pair for l1 in range(total + 1) for pair in itertools.product(
                itertools.product(letters, repeat=l1),
                itertools.product(letters, repeat=total - l1)))

        dwords = [_dwords_of_grade(n, g) for g in range(reach + 1)]
        echelon = _Echelon()
        for gen, rest in zip(gens, rests):
            products = {}  # (right letters, right word) -> gen * right
            for g1 in range(rest + 1):
                for left_d, right_d in itertools.product(dwords[g1], dwords[rest - g1]):
                    for left_w, right_w in words:
                        column = WitnessTerm(left_d, left_w, gen, right_d, right_w, ONE)
                        echelon.insert(_vectorize(self._column(column, products), self._keys),
                                       column)
        self._systems[grade, top] = echelon
        return echelon

    def _column(self, term, products) -> TensorElement:
        """The product L * generator * R that term stands for, coefficient 1.

        ``products`` holds generator * R of term's generator by (right
        letters, right word): it is read from there, or built and stored.
        Only the left word is then pushed through it; the left letters
        carry the coefficient 1, so they are :func:`prefixed` as they stand.
        """
        n, bmap = self.n, self.calc.bmap
        right = term.right_dword, term.right_word
        e = products.get(right)
        if e is None:
            e = products[right] = tensor_mul(bmap, term.generator.element, TensorElement.monomial(
                n, term.right_dword, AlgebraElement.monomial(n, term.right_word)))
        if term.left_word:
            left = TensorElement.of_algebra(AlgebraElement.monomial(n, term.left_word))
            e = tensor_mul(bmap, left, e)
        if term.left_dword:
            e = prefixed(term.left_dword, e)
        return e

    def expand_witness(self, witness) -> TensorElement:
        """Re-expand a membership witness; must reproduce the query exactly.

        Each term builds its own product, so no product of a system is
        read back."""
        out = TensorElement.zero(self.n)
        for term in witness:
            out = out + self._column(term, {}).scale(term.coeff)
        return out
