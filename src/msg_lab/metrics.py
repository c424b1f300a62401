"""Normalized bi-invariant metrics and conjugacy-class sizes.

Three metrics on finite groups, each valued in [0, 1]:

  * hamming_distance: fraction of moved points, exact Fraction;
  * projective_rank_distance: (1/n) min over nonzero scalars alpha of
    rank(g - alpha*h), exact Fraction, identifies scalar multiples;
  * conjugacy_distance: log |ccl(g h^-1)| / log |G|, a float (the double
    log of an integer is accurate to the full 53-bit mantissa).

Class sizes are exact integers: the standard cycle-type formula for S_n
with the odd-distinct splitting rule for A_n, and commutant enumeration
for matrix groups: linalg.span_invertible_counts takes one member of each
F^x orbit of the commutant and weights it by the orbit, while the budget
still counts all q^dim members.  For PSL representatives the centralizer
is counted in SL and corrected by the number of unit scalars lambda that
are realized by some SL-conjugation g x g^-1 = lambda x; this is what
brute-force class enumeration in PSL matches.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, UnsupportedCaseError
from .groups import (GL, PSL_REP, SL, AlternatingDescriptor, ClassicalElement,
                     Permutation, PSLDescriptor, gl_order, proj_equal,
                     sl_order)
from .linalg import (Matrix, commutant_basis, min_rank_shift,
                     span_invertible_counts, twisted_commutant_basis)

HAMMING = "hamming"
PRANK = "prank"
CONJ = "conj"


@dataclass(frozen=True)
class MetricValue:
    """A metric evaluation; exact Fraction for hamming/prank, float for conj."""

    value: object
    kind: str

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("metric value %r outside [0,1]" % (self.value,))

    def __float__(self):
        return float(self.value)


def hamming_distance(sigma, tau):
    """Fraction of points where the two permutations disagree."""
    if sigma.n != tau.n:
        raise ValueError("degree mismatch: %d vs %d" % (sigma.n, tau.n))
    moved = sum(1 for a, b in zip(sigma.images, tau.images) if a != b)
    return MetricValue(Fraction(moved, sigma.n), HAMMING)


def _as_matrix(g):
    return g.matrix if isinstance(g, ClassicalElement) else g


def projective_rank_distance(g, h):
    """(1/n) min_alpha rank(g - alpha h) over alpha in F^x; zero exactly
    on scalar multiples.  g and h are square matrices of one shape and
    field and h is invertible (ValueError otherwise).  Ranks are computed
    only at the eigenvalues of h^-1 g in F^x (see linalg.min_rank_shift),
    so there is no budget: every field up to gf.MAX_ORDER is served."""
    gm = _as_matrix(g)
    r = min_rank_shift(gm, _as_matrix(h)).r
    return MetricValue(Fraction(r, gm.nrows), PRANK)


def perm_centralizer_order(ct):
    """|C_{S_n}(sigma)| = prod_k k^{m_k} m_k! over the cycle type."""
    mult = {}
    for k in ct:
        mult[k] = mult.get(k, 0) + 1
    result = 1
    for k, m in mult.items():
        result *= k**m * math.factorial(m)
    return result


def cycle_type_is_even(ct):
    return sum(k - 1 for k in ct) % 2 == 0


def class_size_perm(ct, n, in_alternating=False):
    """Conjugacy-class size of a cycle type in S_n, or in A_n when flagged.

    The A_n class is half the S_n class exactly when every cycle length is
    odd and no two are equal; otherwise the S_n class stays intact.
    """
    ct = tuple(sorted(ct, reverse=True))
    if sum(ct) != n:
        raise ValueError("cycle type %r does not sum to %d" % (ct, n))
    if any(k < 1 for k in ct):
        raise ValueError("cycle lengths must be positive")
    size = math.factorial(n) // perm_centralizer_order(ct)
    if not in_alternating:
        return size
    if not cycle_type_is_even(ct):
        raise ValueError("cycle type %r is odd, not in A_%d" % (ct, n))
    splits = all(k % 2 == 1 for k in ct) and len(set(ct)) == len(ct)
    return size // 2 if splits else size


def _commutant_with_budget(x, budget):
    field = x.field
    basis = commutant_basis(x)
    if field.q ** len(basis) > budget:
        raise BudgetError(
            "commutant enumeration needs %d^%d members, budget %d"
            % (field.q, len(basis), budget))
    return basis


def _realized_unit_scalars(x, budget):
    """Count unit scalars lambda (lambda^n = 1) with g x g^-1 = lambda x
    for some g in SL, by searching the lambda-twisted commutant space."""
    field = x.field
    count = 0
    for lam in field.roots_of_unity(x.nrows):
        if lam == field.one:
            count += 1
            continue
        basis = twisted_commutant_basis(x, lam)
        if not basis:
            continue
        if field.q ** len(basis) > budget:
            raise BudgetError(
                "twisted commutant enumeration needs %d^%d members, budget %d"
                % (field.q, len(basis), budget))
        _, det1 = span_invertible_counts(basis, budget=budget)
        if det1:
            count += 1
    return count


def class_size_matrix(x, budget=10**6):
    """Exact conjugacy-class size of x in GL, SL, or PSL.

    Centralizer orders come from enumerating the commutant linear space and
    filtering the group constraint; the class size is |G| / |C_G(x)|.
    """
    if not isinstance(x, ClassicalElement):
        raise TypeError("class_size_matrix expects a ClassicalElement")
    if x.group_tag not in (GL, SL, PSL_REP):
        raise UnsupportedCaseError("class size by commutant counting needs GL/SL/PSL")
    m = x.matrix
    n = m.nrows
    q = m.field.q
    basis = _commutant_with_budget(m, budget)
    invertible, det_one = span_invertible_counts(basis, budget=budget)
    if x.group_tag == GL:
        return gl_order(n, q) // invertible
    if x.group_tag == SL:
        return sl_order(n, q) // det_one
    t = _realized_unit_scalars(m, budget)
    return sl_order(n, q) // (det_one * t)


def conjugacy_distance(g, h, group, budget=10**6):
    """log |ccl(g h^-1)| / log |G| in the given centreless group."""
    if isinstance(group, AlternatingDescriptor):
        if not (isinstance(g, Permutation) and isinstance(h, Permutation)):
            raise TypeError("A_n metric needs permutations")
        if g.n != group.n or h.n != group.n:
            raise ValueError("degree mismatch with group")
        if not (g.is_even() and h.is_even()):
            raise ValueError("elements must lie in A_n")
        x = g * h.inverse()
        if x == Permutation.identity(group.n):
            return MetricValue(0.0, CONJ)
        size = class_size_perm(x.cycle_type(), group.n, in_alternating=True)
        return MetricValue(math.log(size) / math.log(group.order()), CONJ)
    if isinstance(group, PSLDescriptor):
        gm = _as_matrix(g)
        hm = _as_matrix(h)
        if gm.nrows != group.n or gm.field.spec != group.spec:
            raise ValueError("element does not match the group descriptor")
        x = gm @ hm.inverse()
        if proj_equal(x, Matrix.identity(gm.field, gm.nrows)):
            return MetricValue(0.0, CONJ)
        size = class_size_matrix(ClassicalElement(x, PSL_REP), budget=budget)
        return MetricValue(math.log(size) / math.log(group.order()), CONJ)
    raise UnsupportedCaseError("conjugacy metric needs A_n (n >= 5) or PSL")


def length(g, kind, group=None, budget=10**6):
    """Distance to the identity under the chosen metric."""
    if kind == HAMMING:
        return hamming_distance(g, Permutation.identity(g.n))
    if kind == PRANK:
        gm = _as_matrix(g)
        return projective_rank_distance(gm, Matrix.identity(gm.field, gm.nrows))
    if kind == CONJ:
        if group is None:
            raise ValueError("conjugacy length needs a group descriptor")
        ident = group.identity()
        return conjugacy_distance(g, ident, group, budget=budget)
    raise ValueError("unknown metric kind %r" % (kind,))
