"""The grade-one operator d on the differential tensor algebra.

On a canonical monomial  d^{a_1}x^{i_1} (x) ... (x) d^{a_m}x^{i_m} * r  the
operator raises each letter in turn, weighting the j-th summand by
q^(a_1 + ... + a_{j-1}) and dropping any summand whose letter already has
grade 2 (there is no grade-3 letter), and finally appends the coefficient's
own differential with weight q^(a_1 + ... + a_m):

    d(W * r) = sum_j q^(prefix grade) (W with letter j raised) * r
             + q^(grade of W) W (x) dx^s * D_s(r).

On grade-0 input this is the first-order coordinate differential.  The
operator is a prolongation of both coordinate differentials, but its square
on the algebra is not the order-2 coordinate differential: the two differ
by q dx^i (x) dx^j D_j(D_i(.)), and the third power does not vanish on the
raw tensor algebra at all; it only vanishes modulo the compatibility ideal.
"""

from __future__ import annotations

from .scalar import q_power
from .calculus import Calculus
from .freealg import check_terms
from .tensoralg import TensorElement


def d(calc: Calculus, w: TensorElement) -> TensorElement:
    if w.n != calc.n:
        raise ValueError(f"element has {w.n} generators, calculus has {calc.n}")
    out = TensorElement(calc.n)
    for dword, r in w.terms.items():
        prefix = 0
        for pos, (grade, index) in enumerate(dword):
            if grade == 1:
                raised = dword[:pos] + ((2, index),) + dword[pos + 1:]
                out._accumulate(raised, r.scale(q_power(prefix)))
            prefix += grade
        for s, ds in calc.gradient(r):
            out._accumulate(dword + ((1, s),), ds.scale(q_power(prefix)))
    check_terms(out.size())
    return out


def d_power(calc: Calculus, w: TensorElement, times: int) -> TensorElement:
    """Iterated differential; times >= 1."""
    if times < 1:
        raise ValueError("iteration count must be >= 1")
    out = w
    for _ in range(times):
        out = d(calc, out)
    return out

