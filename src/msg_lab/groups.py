"""Group element carriers: permutations and tagged matrix-group elements.

Permutations act on {0, ..., n-1} and store their image tuple.  Composition
follows the usual function convention: (sigma * tau)(i) = sigma(tau(i)).

Matrix-group elements wrap an invertible Matrix together with a group tag
(GL, SL, SP, PSL_REP) and, for the symplectic case, the alternating form
that the matrix is required to preserve.  Membership checks are exact and
run at construction time.

Random sampling helpers take a seed or a random.Random instance; they are
deterministic for a fixed seed.  random_sp draws products of symplectic
transvections, which is enough for property testing but is not claimed to
be uniform on Sp.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import UnsupportedCaseError
from .gf import Field
from .linalg import Matrix

GL = "GL"
SL = "SL"
SP = "SP"
PSL_REP = "PSL_REP"

GROUP_TAGS = (GL, SL, SP, PSL_REP)


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError("images must be a bijection of {0..n-1}")
        object.__setattr__(self, "images", images)

    @property
    def n(self):
        return len(self.images)

    @staticmethod
    def identity(n):
        return Permutation(range(n))

    @staticmethod
    def from_cycles(n, cycles):
        """Build a permutation from disjoint cycles given as point sequences."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            cyc = [int(c) for c in cyc]
            for c in cyc:
                if not 0 <= c < n:
                    raise ValueError("cycle point %d out of range" % c)
                if c in seen:
                    raise ValueError("cycles are not disjoint at point %d" % c)
                seen.add(c)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)

    @staticmethod
    def transposition(n, a, b):
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return Permutation(images)

    def __mul__(self, other):
        return perm_compose(self, other)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(("Permutation", self.images))

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its smallest point, sorted.

        Fixed points are omitted unless include_fixed is set.
        """
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths, fixed points included, sorted descending."""
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def support(self):
        return frozenset(i for i, j in enumerate(self.images) if i != j)

    def sign(self):
        """+1 for even permutations, -1 for odd."""
        transpositions = sum(len(c) - 1 for c in self.cycles())
        return -1 if transpositions % 2 else 1

    def is_even(self):
        return self.sign() == 1

    def order(self):
        result = 1
        for c in self.cycles(include_fixed=True):
            result = result * len(c) // math.gcd(result, len(c))
        return result


def perm_compose(sigma, tau):
    """Composition sigma after tau: i -> sigma(tau(i))."""
    if sigma.n != tau.n:
        raise ValueError("degree mismatch: %d vs %d" % (sigma.n, tau.n))
    return Permutation(tuple(sigma.images[t] for t in tau.images))


def _as_rng(seed):
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_perm(n, seed):
    """Uniform permutation of degree n via Fisher-Yates."""
    rng = _as_rng(seed)
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(images)


def random_even_perm(n, seed):
    """Uniform element of A_n: uniform on S_n, then fix parity.

    An odd draw is composed with the transposition (0 1), which maps the
    odd cosets bijectively onto A_n, so the result stays uniform.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    sigma = random_perm(n, seed)
    if not sigma.is_even():
        sigma = sigma * Permutation.transposition(n, 0, 1)
    return sigma


@dataclass(frozen=True)
class ClassicalElement:
    """An invertible matrix tagged with its ambient group.

    form is required exactly when group_tag is SP and must be an invertible
    alternating matrix preserved by the element.  Membership is verified at
    construction and never probabilistically.
    """

    matrix: Matrix
    group_tag: str
    form: Matrix = None

    def __post_init__(self):
        if self.group_tag not in GROUP_TAGS:
            raise ValueError("unknown group tag %r" % (self.group_tag,))
        m = self.matrix
        if m.nrows != m.ncols:
            raise ValueError("group elements must be square")
        det = m.det()
        if det == m.field.zero:
            raise ValueError("matrix is singular")
        if self.group_tag in (SL, PSL_REP):
            if det != m.field.one:
                raise ValueError("det must be 1 for tag %s" % self.group_tag)
            if self.form is not None:
                raise ValueError("form only applies to SP")
        elif self.group_tag == SP:
            if self.form is None:
                raise ValueError("SP requires an alternating form")
            _check_alternating(self.form)
            j = self.form
            if m.transpose() @ j @ m != j:
                raise ValueError("matrix does not preserve the form")
        elif self.form is not None:
            raise ValueError("form only applies to SP")

    @property
    def field(self):
        return self.matrix.field

    @property
    def n(self):
        return self.matrix.nrows

    def inverse(self):
        return ClassicalElement(self.matrix.inverse(), self.group_tag, self.form)

    def __mul__(self, other):
        if self.group_tag != other.group_tag:
            raise ValueError("group tag mismatch")
        if self.group_tag == SP and self.form != other.form:
            raise ValueError("form mismatch")
        return ClassicalElement(self.matrix @ other.matrix, self.group_tag, self.form)


def _check_alternating(j):
    """Require j invertible with j^T = -j and zero diagonal."""
    if j.nrows != j.ncols:
        raise ValueError("form must be square")
    if j.transpose() != -j:
        raise ValueError("form is not alternating (j^T != -j)")
    field = j.field
    for i in range(j.nrows):
        if j.entry(i, i) != field.zero:
            raise ValueError("form has a nonzero diagonal entry")
    if not j.is_invertible():
        raise ValueError("form is degenerate")


def proj_equal(a, b):
    """True when b = alpha * a for some nonzero scalar alpha."""
    if a.field != b.field or a.shape != b.shape:
        return False
    field = a.field
    alpha = None
    for pa, pb in zip(a.key()[1], b.key()[1]):
        if pa != 0 or pb != 0:
            if pa == 0 or pb == 0:
                return False
            alpha = field.mul(pb, field.inv(pa))
            break
    if alpha is None:
        return True
    return b == a.scale(alpha)


def standard_symplectic_form(field, n2):
    """The block form [[0, I], [-I, 0]] on F^n2 (n2 even)."""
    if n2 % 2:
        raise ValueError("symplectic dimension must be even")
    n = n2 // 2
    eye = Matrix.identity(field, n)
    zero = Matrix.zeros(field, n, n)
    return Matrix.block2(zero, eye, -eye, zero)


def symplectic_transvection(j, v, lam):
    """The transvection x -> x + lam * <x, v> * v with <x, v> = x^T j v.

    As a matrix this is I + lam * v (v^T j^T); it preserves j for every v
    and lam, and is unipotent, hence has determinant 1.
    """
    field = j.field
    n = j.nrows
    col = Matrix.from_packed(field, [[x] for x in v])
    row = col.transpose() @ j.transpose()
    return Matrix.identity(field, n) + (col @ row).scale(lam)


def random_invertible(n, field, seed):
    """Uniform invertible matrix by rejection on singularity."""
    rng = _as_rng(seed)
    q = field.q
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_packed(field, rows)
        if m.is_invertible():
            return m


def random_sl(n, field, seed):
    """Random determinant-1 matrix: draw invertible, rescale column 0."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = random_invertible(n, field, seed)
    column0 = Matrix.diagonal(field, [field.inv(m.det())] + [1] * (n - 1))
    return ClassicalElement(m @ column0, SL)


def random_sp(n2, field, seed):
    """Random symplectic matrix: a product of 3*n2 random transvections."""
    rng = _as_rng(seed)
    j = standard_symplectic_form(field, n2)
    q = field.q
    m = Matrix.identity(field, n2)
    for _ in range(3 * n2):
        while True:
            v = [rng.randrange(q) for _ in range(n2)]
            if any(v):
                break
        lam = rng.randrange(1, q)
        m = symplectic_transvection(j, v, lam) @ m
    return ClassicalElement(m, SP, j)


def enumerate_alternating(n):
    """All elements of A_n as Permutation objects (n <= 9 is practical)."""
    return [Permutation(p) for p in itertools.permutations(range(n))
            if Permutation(p).is_even()]


def enumerate_gl2(field):
    """All of GL_2(q) by scanning the q^4 candidate matrices."""
    q = field.q
    out = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    det = field.sub(field.mul(a, d), field.mul(b, c))
                    if det != field.zero:
                        out.append(Matrix.from_packed(field, [[a, b], [c, d]]))
    return out


def enumerate_sl2(field):
    """All of SL_2(q)."""
    return [m for m in enumerate_gl2(field) if m.det() == field.one]


def psl_canonical(m):
    """Canonical coset representative of m modulo the centre of SL_n.

    Picks the minimum of {alpha * m : alpha^n = 1} under the flattened
    packed-entry ordering (row by row, as the rows have equal length), so
    representatives are comparable with ==.
    """
    best = None
    for alpha in m.field.roots_of_unity(m.nrows):
        cand = m.scale(alpha)
        if best is None or cand.rows < best.rows:
            best = cand
    return best


def enumerate_psl2(field):
    """Canonical representatives of PSL_2(q), one per centre coset."""
    seen = set()
    out = []
    for m in enumerate_sl2(field):
        rep = psl_canonical(m)
        key = rep.key()
        if key not in seen:
            seen.add(key)
            out.append(rep)
    return out


@functools.lru_cache(maxsize=None)
def gl_order(n, q):
    """|GL_n(q)| = q^(n(n - 1)/2) prod_(j <= n) (q^j - 1), kept per (n, q)."""
    return q ** (n * (n - 1) // 2) * math.prod(q**j - 1 for j in range(1, n + 1))


def sl_order(n, q):
    return gl_order(n, q) // (q - 1)


@dataclass(frozen=True)
class AlternatingDescriptor:
    """The group A_n inside S_n, elements given as even permutations."""

    n: int

    def __post_init__(self):
        if self.n < 5:
            raise UnsupportedCaseError(
                "conjugacy-metric families need A_n with n >= 5 (trivial centre, simple)")

    def order(self):
        result = 1
        for k in range(3, self.n + 1):
            result *= k
        return result

    def identity(self):
        return Permutation.identity(self.n)


@dataclass(frozen=True)
class PSLDescriptor:
    """The group PSL_n(q), elements given as determinant-1 representatives."""

    n: int
    field: Field

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedCaseError("PSL needs n >= 2")
        q = self.field.q
        if self.n == 2 and q <= 3:
            raise UnsupportedCaseError("PSL_2(2) and PSL_2(3) are not simple")

    def order(self):
        q = self.field.q
        return sl_order(self.n, q) // math.gcd(self.n, q - 1)

    def identity(self):
        return ClassicalElement(Matrix.identity(self.field, self.n), PSL_REP)
