"""Rank-bounded constructions in matrix groups over finite fields.

Four builders live here.

  * prepare_near_root: given invertible y and (k, alpha) with k coprime to
    the characteristic, produce x agreeing with y on L = ker(y^k - alpha I)
    and the identity on a complement S, so that (x|_L)^k = alpha, x|_S = 1,
    and max(dim S, rank(x - y)) <= rank(y^k - alpha I).

    In the split that the rref of y^k - alpha I gives, S is the standard
    vectors at its pivots and L is the identity at the other rows, the free
    rows.  So T, the identity's rows at the free columns, gives the L
    coordinates in the basis [L | S], and x - 1 = U T for U = x L - L.
    check_split_condition validates x with no elimination: once x L = L C
    for C = T x L, x - 1 = U T holds exactly when x S = S.  After that
    check, approx_centralize takes its products with x through U and T, at
    O(n^2 dim L) cost each, and every product with T is a selection.

  * approx_centralize: move an invertible phi to an invertible psi that
    commutes with x exactly, with rank(phi - psi) <= 2 k^2 r + 3 dim S
    where r = rank(x phi - phi x).  x is semisimple (T^k - alpha and T - 1
    are squarefree away from the characteristic), so it is block diagonal
    in one basis Q of its primary components: those of T^k - alpha inside
    W = im(x - 1), then S' = ker(x - 1).  The algorithm keeps only the
    diagonal blocks of Q^-1 phi Q (the W/S' blocks cost <= 2r, since x - 1
    is invertible on W; averaging would clear the blocks between components
    of W anyway), averages each W block over conjugation by x (cost <=
    k(k-1)r/2), and repairs invertibility block by block inside the
    commutant by a correction whose rank equals the block's nullity.
    Total cost <= (k^2 - k + 4) r, so the contractual bound can never
    trip; it is still asserted, and a violation raises BoundViolationError
    with a reproducer payload.

  * build_niceblock: the order-p element [[I, I], [0, I]] of SL_2n or Sp_2n
    whose projective rank length is exactly 1/2, together with generators
    of the abelian normal subgroup A = {[[I, B], [0, I]]} of its
    centralizer, block-diagonal generators H commuting with it, and
    witnesses: an element of A of length 1/2, an element of H of length
    (n-1)/n, and a commutator [u, h] of length at least (1/3)(1 - 2/n).

  * project_to_sl / commutator_witness: determinant-one projection moving
    a single column (rank cost <= 1), and exhaustive commutator witnesses
    in small enumerated groups.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundViolationError, BudgetError
from .groups import (SL, SP, ClassicalElement, Permutation,
                     standard_symplectic_form)
from .linalg import Matrix, primary_blocks
from .metrics import PRANK, length

COMMUTATOR_BUDGET = 10**4  # elements in a commutator witness enumeration


@dataclass(frozen=True)
class SplitDecomposition:
    """A splitting V = L + S with the exponent data (k, alpha).

    Each subspace is one matrix, in split form: S (n x dim S) is the
    standard vectors at ascending pivot rows, and L (n x dim L) is the
    identity at the other rows, the free rows, kept in `free`.  k is
    coprime to the characteristic and alpha is a nonzero packed element.
    """

    L: Matrix
    S: Matrix
    k: int
    alpha: int

    def __post_init__(self):
        if self.L.field != self.S.field or self.L.nrows != self.S.nrows:
            raise ValueError("L and S must share the field and the row count")
        if not self.n:
            raise ValueError("empty decomposition")
        object.__setattr__(self, "k", _integer("k", self.k))
        if self.k < 1:
            raise ValueError("k must be positive")
        if math.gcd(self.k, self.field.p) != 1:
            raise ValueError("k must be coprime to the characteristic")
        object.__setattr__(self, "alpha", _check_alpha(self.field, self.alpha))
        if self.dim_L + self.dim_S != self.n:
            raise ValueError("L and S do not fill the space")
        units = Matrix.identity(self.field, self.n).rows
        pivots = [units.index(c) for c in self.S.transpose().rows
                  if c in units]
        object.__setattr__(self, "free", tuple(
            [r for r in range(self.n) if r not in pivots]))
        if (pivots != sorted(set(pivots)) or len(pivots) != self.dim_S or
                self.take_free_rows(self.L)
                != Matrix.identity(self.field, self.dim_L)):
            raise ValueError("L and S are not in split form: S standard "
                             "vectors at ascending pivots and L the "
                             "identity at the other rows")

    @property
    def field(self):
        return self.L.field

    @property
    def n(self):
        return self.L.nrows

    @property
    def dim_L(self):
        return self.L.ncols

    @property
    def dim_S(self):
        return self.S.ncols

    def take_free_rows(self, m):
        """T m, T the identity's rows at the free columns: m's free rows."""
        return m._new([m.rows[r] for r in self.free])

    def put_free_columns(self, u):
        """u T: column j of u at column free[j], zero columns elsewhere."""
        cols = dict(zip(self.free, u.transpose().rows))
        zero = (0,) * u.nrows
        return u._new(zip(*[cols.get(c, zero) for c in range(self.n)]), self.n)


def _integer(name, value):
    """value as an int; ValueError, not TypeError, when it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None


def _check_alpha(field, alpha):
    """alpha as an int; it must be a nonzero packed element of the field."""
    alpha = _integer("alpha", alpha)
    if not 0 <= alpha < field.q:
        raise ValueError("alpha = %d is outside [0, %d), the packed "
                         "elements of %r" % (alpha, field.q, field))
    if alpha == field.zero:
        raise ValueError("alpha must be nonzero")
    return alpha


def _greedy_orbits(candidates, start=None, x=None, deg=1):
    """Greedy extension of a span, lowest index first.

    Walks the columns of `candidates` in order and picks each one outside
    the span of `start` and the earlier picks; a pick v brings its x-orbit
    v, x v, ..., x^(deg-1) v into the span, and the orbit must be
    independent of it (true for a simple module that meets the span
    trivially).  Returns the picked orbits side by side, an m x (deg *
    picks) matrix: a subspace is one matrix, and so is `start`.

    Precondition when deg > 1: span(start) is x-invariant.  The three
    calls in _repair_block meet it: im a_f with a_f commuting with x_f,
    the orbit span kdom, and no start.  Then the span of the start and
    the orbits picked so far is invariant and holds the orbit of every
    candidate it holds, so one rref of [start | orbits of every
    candidate], column deg j + i of the orbits holding x^i c_j, makes the
    walk: the picks are the candidates whose own column is a pivot, and a
    pick's whole orbit must be pivots.
    """
    field = candidates.field
    m = candidates.nrows
    if start is None:
        start = Matrix.zeros(field, m, 0)
    powers = [candidates]
    for _ in range(deg - 1):
        powers.append(x @ powers[-1])
    orbits = candidates._new(([v for vs in zip(*rows) for v in vs]
                              for rows in zip(*[p.rows for p in powers])),
                             deg * candidates.ncols)
    _, pivots = Matrix.hstack([start, orbits]).rref()
    pivots = {c - start.ncols for c in pivots}
    picked = []
    for c in range(0, orbits.ncols, deg):
        if c in pivots:
            orbit = range(c, c + deg)
            if not pivots.issuperset(orbit):
                raise AssertionError("an orbit meets the span")
            picked.extend(orbit)
    return orbits.take_columns(picked)


def prepare_near_root(y, k, alpha):
    """Adjust y on the kernel complement of y^k - alpha I.

    Returns (x, dec) with x = y on L = ker(y^k - alpha I), x = 1 on the
    complement S completed from standard basis vectors; all the stated
    rank bounds follow because x - y vanishes on L and dim S equals
    rank(y^k - alpha I) exactly.

    One elimination gives all: the kernel vector of free column c is 1 at
    c, 0 at the other free columns (so c is its last nonzero entry), and
    S is the standard vectors at the pivot columns, the ones a greedy
    completion picks.  That is the split form, so x = I + (y L - L) T:
    column j of y L - L added to column free[j] of I.
    """
    field = y.field
    n = y.nrows
    if y.ncols != n:
        raise ValueError("y must be square")
    if not y.is_invertible():
        raise ValueError("y must be invertible")
    k = _integer("k", k)
    if k < 1 or math.gcd(k, field.p) != 1:
        raise ValueError("k must be positive and coprime to the characteristic")
    alpha = _check_alpha(field, alpha)

    defect = y.matpow(k) - Matrix.scalar(field, n, alpha)
    reduced, pivots = defect.rref()
    L = reduced.rref_kernel_basis(pivots)
    ident = Matrix.identity(field, n)
    dec = SplitDecomposition(L, ident.take_columns(pivots), k, alpha)
    x = ident + dec.put_free_columns(y @ L - L)

    # exact postconditions; cheap at these sizes
    assert (x - y).rank() <= len(pivots)
    check_split_condition(x, dec)
    return x, dec


def check_split_condition(x, dec):
    """Raise ValueError unless x preserves L, is the identity on S, and
    satisfies (x restricted to L)^k = alpha * identity.

    Returns x|L, the dim L x dim L matrix C = T x L of x in the basis L,
    and x preserves L exactly when x L = L C.  Then, with U = x L - L, x - 1
    and U T agree on L (T L = 1) and U T is 0 on S (T S = 0), so x is the
    identity on S exactly when x - 1 = U T.  No elimination, and the only
    products are x L, L C and those of C^k."""
    field = x.field
    n = x.nrows
    if dec.n != n or dec.field != field:
        raise ValueError("decomposition does not match the matrix")
    L = dec.L
    xL = x @ L
    C = dec.take_free_rows(xL)
    if xL != L @ C:
        raise ValueError("x does not preserve L")
    if x - Matrix.identity(field, n) != dec.put_free_columns(xL - L):
        raise ValueError("x is not the identity on S")
    dl = dec.dim_L
    if dl and C.matpow(dec.k) != Matrix.scalar(field, dl, dec.alpha):
        raise ValueError("x restricted to L is not a k-th root of alpha")
    return C


def _repair_block(x_f, a_f, deg):
    """Rank-nullity correction R commuting with x_f making a_f + R
    invertible, inside one primary component (x_f has squarefree minimal
    polynomial equal to a single irreducible of degree deg)."""
    field = a_f.field
    m = a_f.nrows
    ker = a_f.kernel_basis()
    if not ker.ncols:
        return Matrix.zeros(field, m, m)
    ident = Matrix.identity(field, m)
    # an invariant complement of the image (target of the correction)
    compl_of_image = _greedy_orbits(ident, a_f, x_f, deg)
    # the kernel as concatenated orbits of greedy generators
    kdom = _greedy_orbits(ker, None, x_f, deg)
    assert kdom.ncols == ker.ncols == compl_of_image.ncols
    # send the i-th kernel orbit onto the i-th complement orbit and kill an
    # invariant complement of the kernel
    rest = _greedy_orbits(ident, kdom, x_f, deg)
    domain = Matrix.hstack([kdom, rest])
    image = Matrix.hstack([compl_of_image,
                           Matrix.zeros(field, m, rest.ncols)])
    R = image @ domain.inverse()
    assert R.rank() == kdom.ncols
    assert R @ x_f == x_f @ R
    return R


def approx_centralize(x, dec, phi):
    """Nearest-by-construction invertible psi with x psi = psi x.

    One change of basis Q, to the primary components of x on W = im(x - 1)
    followed by S' = ker(x - 1), makes x block diagonal; psi is Q times the
    averaged and repaired diagonal blocks of Q^-1 phi Q times Q^-1.  See
    the module docstring for the accounting that keeps rank(phi - psi)
    within 2 k^2 r + 3 dim S.
    """
    field = x.field
    n = x.nrows
    check_split_condition(x, dec)
    if phi.shape != (n, n) or phi.field != field:
        raise ValueError("phi does not match x")
    if not phi.is_invertible():
        raise ValueError("phi must be invertible")
    k = dec.k
    # b = x - 1 = U T (check_split_condition), so x phi - phi x is
    # U (T phi) - (phi U) T, at O(n^2 dim L); U is b's free columns
    b = x - Matrix.identity(field, n)
    U = b.take_columns(dec.free)
    commutator_rank = (U @ dec.take_free_rows(phi)
                       - dec.put_free_columns(phi @ U)).rank()
    if commutator_rank == 0:
        return phi

    # W = im(x - 1) on the pivot columns of b and S' = ker(x - 1); b =
    # w_cols reduced[:m], so x w_cols = w_cols (I + reduced[:m] w_cols)
    reduced, pivots = b.rref()
    m = len(pivots)
    w_cols = b.take_columns(pivots)
    x_w = Matrix.identity(field, m) + reduced.block(0, m, 0, n) @ w_cols
    blocks = [(f, w_cols @ basis)
              for f, basis in primary_blocks(x_w, k, dec.alpha)]
    t_minus_1 = (field.neg(field.one), field.one)
    blocks.append((t_minus_1, reduced.rref_kernel_basis(pivots)))
    Q = Matrix.hstack([basis for _, basis in blocks])
    Qinv = Q.inverse()
    cx = Matrix.identity(field, n) + (Qinv @ U) @ dec.take_free_rows(Q)
    cphi = Qinv @ phi @ Q

    # (a) keep only the diagonal blocks of cphi: x - 1 is invertible on W,
    # so the W/S' blocks cost at most 2r, and averaging would clear the
    # blocks between primary components of W anyway
    inv_k = field.inv(k % field.p)
    x_blocks = []
    repaired = []
    offset = 0
    for f, basis in blocks:
        end = offset + basis.ncols
        x_f = cx.block(offset, end, offset, end)
        a_f = cphi.block(offset, end, offset, end)
        offset = end
        if f != t_minus_1:
            # (b) average over conjugation by x_f (order divides k); on S'
            # x_f = 1 and there is nothing to average
            x_f_inv = x_f.inverse()
            term = a_f
            for _ in range(k - 1):
                term = x_f_inv @ term @ x_f
                a_f = a_f + term
            a_f = a_f.scale(inv_k)
            assert a_f @ x_f == x_f @ a_f
        # (c) repair invertibility inside the commutant of x_f (a
        # module-level correction, rank = nullity)
        x_blocks.append(x_f)
        repaired.append(a_f + _repair_block(x_f, a_f, len(f) - 1))
    assert cx == _block_diagonal(field, x_blocks)
    psi = Q @ _block_diagonal(field, repaired) @ Qinv

    if not psi.is_invertible():
        raise AssertionError("repair failed to restore invertibility")
    if U @ dec.take_free_rows(psi) != dec.put_free_columns(psi @ U):
        raise AssertionError("psi does not commute after averaging")
    achieved = (phi - psi).rank()
    bound = 2 * k * k * commutator_rank + 3 * dec.dim_S
    if achieved > bound:
        raise BoundViolationError(
            "rank(phi - psi) = %d exceeds 2k^2 r + 3 dim S = %d"
            % (achieved, bound),
            payload={
                "field": field,
                "x": x.packed().tolist(),
                "phi": phi.packed().tolist(),
                "k": k,
                "alpha": dec.alpha,
                "dim_S": dec.dim_S,
                "commutator_rank": commutator_rank,
                "achieved": achieved,
                "bound": bound,
            },
        )
    return psi


def _block_diagonal(field, mats):
    total = sum(b.nrows for b in mats)
    rows = []
    at = 0
    for b in mats:
        for row in b.rows:
            rows.append((0,) * at + row + (0,) * (total - at - b.ncols))
        at += b.ncols
    return Matrix(field, tuple(rows), total)


# -- the order-p upper block element ---------------------------------------


@dataclass(frozen=True)
class NiceblockCertificate:
    """The block element with its centralizer generators and witnesses."""

    x: ClassicalElement
    A_generators: tuple
    H_generators: tuple
    witness_u: ClassicalElement
    witness_h: ClassicalElement
    commutator_u: ClassicalElement
    commutator_h: ClassicalElement
    commutator_length: Fraction

    @property
    def half_size(self):
        return self.x.n // 2


def _upper_block(field, b, tag, form):
    n = b.nrows
    m = Matrix.block2(Matrix.identity(field, n), b,
                      Matrix.zeros(field, n, n), Matrix.identity(field, n))
    return ClassicalElement(m, tag, form)


def _double_block(field, p_mat, tag, form):
    n = p_mat.nrows
    m = Matrix.block2(p_mat, Matrix.zeros(field, n, n),
                      Matrix.zeros(field, n, n), p_mat)
    return ClassicalElement(m, tag, form)


def _perm_matrix(field, images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i][j] = 1
    return Matrix.from_packed(field, rows)


def _shift_matrix(field, n):
    return _perm_matrix(field, [(j + 1) % n for j in range(n)])


def _unit_matrix(field, n, i, j, value=1):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = value
    return Matrix.from_packed(field, rows)


def build_niceblock(n, field, group):
    """Certificate for x = [[I_n, I_n], [0, I_n]] in SL_2n or Sp_2n.

    The A-generators span the full abelian group {[[I, B], [0, I]]} with B
    arbitrary (SL) or symmetric (Sp).  The H-generators are block-doubled
    transvections plus the cyclic shift (SL), or block-doubled signed
    permutations (Sp, orthogonal so the double is symplectic).  The default
    commutator pair uses B = diag(0, 1, ..., n-1 mod q) against the shift:
    the commutator differs from a scalar in rank at least n - 1, so its
    length is at least (n - 1)/(2n), above the (1/3)(1 - 2/n) target.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if group not in (SL, SP):
        raise ValueError("group must be SL or SP")
    form = standard_symplectic_form(field, 2 * n) if group == SP else None

    x = _upper_block(field, Matrix.identity(field, n), group, form)

    a_gens = []
    if group == SL:
        for i in range(n):
            for j in range(n):
                a_gens.append(_upper_block(field, _unit_matrix(field, n, i, j),
                                           group, form))
    else:
        for i in range(n):
            a_gens.append(_upper_block(field, _unit_matrix(field, n, i, i),
                                       group, form))
        for i in range(n):
            for j in range(i + 1, n):
                sym = _unit_matrix(field, n, i, j) + _unit_matrix(field, n, j, i)
                a_gens.append(_upper_block(field, sym, group, form))

    shift = _shift_matrix(field, n)
    h_gens = []
    if group == SL:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for lam in field.nonzero_elements():
                    t = Matrix.identity(field, n) + _unit_matrix(field, n, i, j, lam)
                    h_gens.append(_double_block(field, t, group, form))
        h_gens.append(_double_block(field, shift, group, form))
    else:
        for i in range(n - 1):
            images = list(range(n))
            images[i], images[i + 1] = images[i + 1], images[i]
            h_gens.append(_double_block(field, _perm_matrix(field, images),
                                        group, form))
        if field.p != 2:
            minus = field.neg(field.one)
            for i in range(n):
                d = [field.one] * n
                d[i] = minus
                h_gens.append(_double_block(field, Matrix.diagonal(field, d),
                                            group, form))

    witness_u = x
    witness_h = _double_block(field, shift, group, form)

    comm_u, comm_h, comm_len = _commutator_pair(field, n, group, form, shift)
    assert comm_len >= Fraction(1, 3) * (1 - Fraction(2, n))

    cert = NiceblockCertificate(
        x=x,
        A_generators=tuple(a_gens),
        H_generators=tuple(h_gens),
        witness_u=witness_u,
        witness_h=witness_h,
        commutator_u=comm_u,
        commutator_h=comm_h,
        commutator_length=comm_len,
    )
    _validate_niceblock(cert, field)
    return cert


def _commutator_pair(field, n, group, form, p_mat):
    diag = [(i % field.q) for i in range(n)]
    b = Matrix.diagonal(field, diag)
    u = _upper_block(field, b, group, form)
    h = _double_block(field, p_mat, group, form)
    comm = (u.inverse() * h.inverse() * u * h).matrix
    return u, h, length(comm, PRANK).value


def _validate_niceblock(cert, field):
    x = cert.x.matrix
    p = field.p
    n2 = x.nrows
    ident = Matrix.identity(field, n2)
    assert x.matpow(p) == ident
    assert length(x, PRANK).value == Fraction(1, 2)
    for g in cert.A_generators:
        assert g.matrix @ x == x @ g.matrix
        assert g.matrix.matpow(p) == ident
    for h in cert.H_generators:
        assert h.matrix @ x == x @ h.matrix
    for a, b in zip(cert.A_generators[:3], cert.A_generators[1:4]):
        assert a.matrix @ b.matrix == b.matrix @ a.matrix


# -- determinant-one projection and commutator witnesses -------------------


def project_to_sl(g):
    """Scale the first column by det(g)^-1: the result has determinant one
    and differs from g in rank at most one."""
    m = g.matrix if isinstance(g, ClassicalElement) else g
    field = m.field
    d = m.det()
    if d == field.zero:
        raise ValueError("input must be invertible")
    if d == field.one:
        return ClassicalElement(m, SL)
    fixed = m @ Matrix.diagonal(field, [field.inv(d)] + [1] * (m.nrows - 1))
    assert (fixed - m).rank() <= 1
    return ClassicalElement(fixed, SL)


def _element_ops(sample):
    if isinstance(sample, Permutation):
        return (lambda a, b: a * b,
                lambda a: a.inverse(),
                lambda a: a.images)
    if isinstance(sample, Matrix):
        return (lambda a, b: a @ b,
                lambda a: a.inverse(),
                lambda a: a.key())
    raise TypeError("unsupported element type %r" % type(sample))


def check_commutator_budget(order):
    """Raise BudgetError when an enumeration of `order` elements is too
    large for the quadratic commutator table."""
    if order > COMMUTATOR_BUDGET:
        raise BudgetError("enumeration of %d elements exceeds the 10^4 budget"
                          % order)


def _commutators(elements, key_fn):
    """(key of a^-1 b^-1 a b, a, b) for every pair, a-major in the order
    of the enumeration."""
    mul, inv, key = _element_ops(elements[0])
    if key_fn is not None:
        key = key_fn
    inverses = [inv(a) for a in elements]
    for a, ai in zip(elements, inverses):
        for b, bi in zip(elements, inverses):
            yield key(mul(mul(ai, bi), mul(a, b))), a, b


def commutator_witness_table(elements, key_fn=None):
    """First witness pair (a, b) with a^-1 b^-1 a b = g, for every value g
    realized as a commutator over the enumeration.  Exhaustive."""
    check_commutator_budget(len(elements))
    table = {}
    for gk, a, b in _commutators(elements, key_fn):
        if gk not in table:
            table[gk] = (a, b)
    return table


def commutator_witness(g, elements, key_fn=None):
    """An exact witness (a, b) with g = a^-1 b^-1 a b, or None after an
    exhaustive scan of the enumeration.  The pairs are scanned in the
    table's order up to the first hit, so the witness is the one
    commutator_witness_table records (a caller holding that table reads
    table.get(key) instead)."""
    _, _, key = _element_ops(g)
    if key_fn is not None:
        key = key_fn
    target = key(g)
    check_commutator_budget(len(elements))
    return next(((a, b) for gk, a, b in _commutators(elements, key_fn)
                 if gk == target), None)
