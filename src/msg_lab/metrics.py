"""Normalized bi-invariant metrics and conjugacy-class sizes.

Three metrics on finite groups, each valued in [0, 1]:

  * hamming_distance: fraction of moved points, exact Fraction;
  * projective_rank_distance: (1/n) min over nonzero scalars alpha of
    rank(g - alpha*h), exact Fraction, identifies scalar multiples;
  * conjugacy_distance: log |ccl(g h^-1)| / log |G|, an exact ClassLog.

Class sizes are exact integers: the standard cycle-type formula for S_n
with the odd-distinct splitting rule for A_n, and for matrix groups the
closed-form centralizer orders of class_size_matrix, from the Jordan
partitions at the irreducible factors of the characteristic polynomial:
no enumeration and no budget (commutant enumeration is the tests' oracle).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .errors import UnsupportedCaseError
from .groups import (GL, PSL_REP, SL, AlternatingDescriptor, ClassicalElement,
                     Permutation, PSLDescriptor, gl_order, sl_order)
from .linalg import Matrix, charpoly, evaluate_poly_at, min_rank_shift

HAMMING = "hamming"
PRANK = "prank"
CONJ = "conj"


@functools.total_ordering
@dataclass(frozen=True)
class ClassLog:
    """log size / log order as the two integers: values of one group add
    by multiplying sizes and compare by size, an int k being order**k."""

    size: int
    order: int

    def _size(self, other):
        if isinstance(other, int):
            return self.order ** other
        if not (isinstance(other, ClassLog) and other.order == self.order):
            raise ValueError("not a value of this group: %r" % (other,))
        return other.size

    def __add__(self, other):
        return ClassLog(self.size * self._size(other), self.order)

    def __eq__(self, other):
        return self.size == self._size(other)

    def __lt__(self, other):
        return self.size < self._size(other)

    def __hash__(self):  # 0 and 1 hash as the ints equal to them
        return hash(float(self))

    def __float__(self):
        return math.log(self.size) / math.log(self.order)


@dataclass(frozen=True)
class MetricValue:
    """A metric evaluation: Fraction for hamming/prank, ClassLog for conj."""

    value: object
    kind: str

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("metric value %r outside [0,1]" % (self.value,))


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


def _primary_partitions(x):
    """{P: (d, Jordan partition)} over chi = charpoly(x): the irreducible
    factors dividing chi once have partition (1), take no rank and come as
    one product P per degree d.  A repeated one f is its own P, d = deg f,
    with conjugate partition (k_j - k_(j-1)) / d, k_j = dim ker f(x)^j."""
    once, repeated = poly.pfactor_once_repeated(x.field, charpoly(x))
    out = {prod: (d, (1,)) for prod, d in once}
    for f in repeated:
        d, fx = poly.pdeg(f), evaluate_poly_at(f, x)
        power, conj, kernel = fx, [], 0
        while grown := x.nrows - power.rank() - kernel:
            conj.append(grown // d)
            kernel, power = kernel + grown, power @ fx
        out[f] = d, tuple(sum(c > i for c in conj) for i in range(conj[0]))
    return out


def gl_centralizer_structure(data):
    """(dim J, [(d, m, count), ...]) for C_GL(x) = (1 + J) semidirect
    prod GL_m(q^d)^count, from the data of _primary_partitions.  At f of
    degree d with partition lambda, J gains d (sum lambda'_i^2 - sum m_k^2),
    the commutant's dimension at f less that of its semisimple quotient
    prod M_(m_k)(q^d), m_k the number of parts of size k (Macdonald,
    Symmetric Functions, IV.2).  A product P of simple factors is one entry
    (d, 1, deg P / d).  1 + J is a p-group of order q^(dim J)."""
    dim_j, factors = 0, []
    for P, (d, part) in data.items():
        mults = [part.count(k) for k in set(part)]
        dim_j += d * (sum(sum(k > i for k in part) ** 2
                          for i in range(part[0]))
                      - sum(m * m for m in mults))
        factors += [(d, m, poly.pdeg(P) // d) for m in mults]
    return dim_j, factors


def class_size_matrix(x):
    """Exact conjugacy-class size |G| / |C_G(x)| of x in GL, SL or PSL,
    the centralizer order read off chi = charpoly(x) with no enumeration.

    |C_GL(x)| = q^(dim J) prod |GL_m(q^d)|^count over the structure of
    gl_centralizer_structure.  det C_GL(x) = (F^x)^g, g the gcd of
    all parts, gives |C_SL(x)|.  PSL multiplies it by the number of
    lambda^n = 1 whose twist P -> lambda^deg P P(T / lambda), which is to
    lambda x what P is to x, keeps the partitions (lambda x ~ x).  An SL
    conjugator exists then: one built on a cyclic decomposition has det
    lambda^(sum n_i (n_i - 1) / 2), n_i the invariant-factor degrees; the
    roots of each invariant factor, g at a time, are closed under lambda,
    so ord lambda | n_i / g, and that det is 1 or (-1)^g, a det in C_GL(x).
    """
    if not isinstance(x, ClassicalElement):
        raise TypeError("class_size_matrix expects a ClassicalElement")
    if x.group_tag not in (GL, SL, PSL_REP):
        raise UnsupportedCaseError("class size by centralizer order needs GL/SL/PSL")
    m, field, n, q = x.matrix, x.field, x.n, x.field.q
    data = _primary_partitions(m)
    dim_j, factors = gl_centralizer_structure(data)
    gl_cent = q ** dim_j * math.prod(gl_order(mult, q**d) ** count
                                     for d, mult, count in factors)
    if x.group_tag == GL:
        return gl_order(n, q) // gl_cent
    g = math.gcd(q - 1, *(k for _, part in data.values() for k in part))
    sl_cent = gl_cent * g // (q - 1)
    if x.group_tag == SL:
        return sl_order(n, q) // sl_cent
    mul = field.kernel().mul

    def twist(lam):  # coefficient k of P times lam^(deg P - k)
        powers = [field.one]
        for _ in range(n):
            powers.append(mul(powers[-1], lam))
        return {tuple(mul(c, powers[len(P) - 1 - k])
                      for k, c in enumerate(P)): v for P, v in data.items()}

    t = 1 + sum(twist(lam) == data
                for lam in field.roots_of_unity(n) if lam != field.one)
    return sl_order(n, q) // (sl_cent * t)


def conjugacy_distance(g, h, group):
    """ClassLog(|ccl(g h^-1)|, |G|) in the given centreless group."""
    if isinstance(group, AlternatingDescriptor):
        if not (isinstance(g, Permutation) and isinstance(h, Permutation)):
            raise TypeError("A_n metric needs permutations")
        if g.n != group.n or h.n != group.n:
            raise ValueError("degree mismatch with group")
        if not (g.is_even() and h.is_even()):
            raise ValueError("elements must lie in A_n")
        x = g * h.inverse()
        size = class_size_perm(x.cycle_type(), group.n, in_alternating=True)
    elif isinstance(group, PSLDescriptor):
        gm, hm = _as_matrix(g), _as_matrix(h)
        if gm.nrows != group.n or gm.field != group.field:
            raise ValueError("element does not match the group descriptor")
        size = class_size_matrix(ClassicalElement(gm @ hm.inverse(), PSL_REP))
    else:
        raise UnsupportedCaseError("conjugacy metric needs A_n (n >= 5) or PSL")
    return MetricValue(ClassLog(size, group.order()), CONJ)


def length(g, kind, group=None):
    """Distance to the identity under the chosen metric."""
    if kind == HAMMING:
        return hamming_distance(g, Permutation.identity(g.n))
    if kind == PRANK:
        gm = _as_matrix(g)
        return projective_rank_distance(gm, Matrix.identity(gm.field, gm.nrows))
    if kind == CONJ:
        if group is None:
            raise ValueError("conjugacy length needs a group descriptor")
        return conjugacy_distance(g, group.identity(), group)
    raise ValueError("unknown metric kind %r" % (kind,))
