"""Exact dense linear algebra over GF(p^e).

Matrices are immutable values: every operation returns a fresh Matrix.
Entries are packed field elements, the integer encoding of gf, held as a
tuple of row tuples of Python ints, with their arithmetic on the kernel
of the field (gf.Field.kernel), one call per matrix operation or pivot.
Rank, rref, det, inverse, solve, kernel_basis and the commutant bases all
ride one Gauss-Jordan routine with first-nonzero pivot selection, so
pivot choice is deterministic; rank and det clear only below the pivots.
A subspace is one n x d Matrix whose columns are a basis of it: kernels,
primary components and the halves of a split all come in that form.
charpoly reduces to Hessenberg form with the kernel's axpy, and takes the
scalar products of the reduction and of the recurrence from the kernel's
mul.  min_rank_shift computes ranks only at the repeated roots of the
characteristic polynomial in F^x; a simple root alpha has a one-dimensional
eigenspace, so rank n - 1 without elimination.  The roots come from
poly.proots: a scan of every element at q <= gf._PAIR_TABLE_MAX, and above
it gcd with T^(q-1) - 1 and equal-degree splitting, whose cost grows with
log q, not q.  It takes the ranks on the Hessenberg form H, which is
similar to h^-1 g and leaves one row to clear per column.
primary_blocks tries only the factors that divide the characteristic
polynomial.  span_invertible_counts enumerates one member per F^x orbit of
a span, (q^dim - 1)/(q - 1) in all, as outer sums: a low table of the
span of the first basis matrices, at most _SPAN_CHUNK rows, plus one
representative of the span of the rest, one add per entry.  It takes
their determinants by one batched elimination on int64 arrays (the only
numpy code here besides Matrix.packed()) and weights each invertible one
by the q - 1 members of its orbit; its budget, SPAN_BUDGET, still
counts all q^dim members.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import poly
from .errors import BudgetError, UnsupportedCaseError
from .gf import Field, power

def _element(field: Field, a) -> int:
    """a as a packed element of field; ValueError outside [0, q)."""
    a = operator.index(a)
    if not 0 <= a < field.q:
        raise ValueError(f"packed scalar {a} outside [0, {field.q}) in {field!r}")
    return a


class Matrix:
    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field: Field, rows, ncols: int):
        """Trusted constructor: rows is a tuple of ncols-tuples of packed
        entries already in range.  Outside data goes through from_packed."""
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    def _new(self, rows, ncols=None) -> "Matrix":
        """Same field; rows is an iterable of row lists or tuples.  Every
        tuple is built from a sized list: tuple() of an iterator allocates
        a guess and resizes it, which fills CPython's per-size tuple free
        lists with memory the process then keeps."""
        return Matrix(self.field, tuple([tuple(row) for row in rows]),
                      self.ncols if ncols is None else ncols)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_packed(field: Field, rows) -> "Matrix":
        """Matrix from a 2-d sequence or array of packed entries, each of
        which must lie in [0, q)."""
        try:
            out = tuple([tuple([operator.index(v) for v in row]) for row in rows])
        except TypeError:
            raise ValueError("expected a 2-d array of packed entries") from None
        ncols = len(out[0]) if out else 0
        if any(len(row) != ncols for row in out):
            raise ValueError("rows of unequal length")
        bad = [v for row in out for v in row if not 0 <= v < field.q]
        if bad:
            _element(field, bad[0])
        return Matrix(field, out, ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.scalar(field, n, field.one)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, ((0,) * cols,) * rows, cols)

    @staticmethod
    def diagonal(field: Field, packed_entries: Sequence[int]) -> "Matrix":
        entries = [_element(field, a) for a in packed_entries]
        n = len(entries)
        rows = tuple([(0,) * i + (a,) + (0,) * (n - 1 - i)
                      for i, a in enumerate(entries)])
        return Matrix(field, rows, n)

    @staticmethod
    def scalar(field: Field, n: int, packed: int) -> "Matrix":
        a = _element(field, packed)
        return Matrix(field, tuple([(0,) * i + (a,) + (0,) * (n - 1 - i)
                                    for i in range(n)]), n)

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if any(m.nrows != mats[0].nrows for m in mats):
            raise ValueError("hstack needs equal row counts")
        rows = [[v for part in parts for v in part]
                for parts in zip(*[m.rows for m in mats])]
        return mats[0]._new(rows, sum(m.ncols for m in mats))

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        if any(m.ncols != mats[0].ncols for m in mats):
            raise ValueError("vstack needs equal column counts")
        return mats[0]._new([row for m in mats for row in m.rows])

    @staticmethod
    def block2(a: "Matrix", b: "Matrix", c: "Matrix", d: "Matrix") -> "Matrix":
        top = Matrix.hstack([a, b])
        bottom = Matrix.hstack([c, d])
        return Matrix.vstack([top, bottom])

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def packed(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.shape)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def key(self) -> tuple:
        """Hashable identity, suitable for dict/set membership."""
        return (self.shape, tuple([v for row in self.rows for v in row]))

    def take_columns(self, idx: Sequence[int]) -> "Matrix":
        idx = list(idx)
        return self._new(([row[j] for j in idx] for row in self.rows), len(idx))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return self._new((row[c0:c1] for row in self.rows[r0:r1]),
                         len(range(self.ncols)[c0:c1]))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field,) + self.key())

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(row) for row in self.rows]})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        rows = self.field.kernel().add(self.rows, other.rows)
        return Matrix(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        rows = self.field.kernel().sub(self.rows, other.rows)
        return Matrix(self.field, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix.zeros(self.field, *self.shape) - self

    def scale(self, packed_scalar: int) -> "Matrix":
        f = self.field
        rows = f.kernel().scale(_element(f, packed_scalar), self.rows)
        return Matrix(f, rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        return Matrix(f, f.kernel().matmul(self.rows, other.rows, other.ncols),
                      other.ncols)

    def matpow(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("matpow needs a square matrix")
        if k < 0:
            return self.inverse().matpow(-k)
        if k == 0:
            return Matrix.identity(self.field, self.nrows)
        # left to right over the bits below the top one: a squaring for
        # each, a product with self for each set one
        result = self
        for bit in bin(k)[3:]:
            result = result @ result
            if bit == "1":
                result = result @ self
        return result

    def transpose(self) -> "Matrix":
        return self._new(zip(*self.rows) if self.rows else [()] * self.ncols,
                         self.nrows)

    def _check_same(self, other: "Matrix"):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("incompatible matrices")

    # -- elimination-backed operations -------------------------------------

    def _gauss_jordan(self, track_det: bool = False, reduce_up: bool = True):
        """Reduced row echelon form with first-nonzero pivots.

        Returns (R as a list of row lists, pivot column tuple, det_packed)
        where det_packed is the determinant when square and track_det is
        set (0 when singular), else None.  Each pivot is one kernel pivot
        step.  With reduce_up false only rows below a pivot are cleared: R
        is then not reduced, but the pivots and det are the same.
        """
        f = self.field
        pivot = f.kernel().pivot
        R = [list(row) for row in self.rows]
        rows, cols = self.shape
        pivots = []
        det = f.one if track_det else None
        r = 0
        for c in range(cols):
            if r == rows:
                break
            i = next((i for i in range(r, rows) if R[i][c]), None)
            if i is None:
                continue
            if i != r:
                R[r], R[i] = R[i], R[r]
                if track_det:
                    det = f.neg(det)
            if track_det:
                det = f.mul(det, R[r][c])
            pivot(R, r, c, reduce_up)
            pivots.append(c)
            r += 1
        if track_det:
            if rows != cols:
                raise ValueError("determinant needs a square matrix")
            if len(pivots) < rows:
                det = f.zero
        return R, tuple(pivots), det

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        R, pivots, _ = self._gauss_jordan()
        return self._new(R), pivots

    def rank(self) -> int:
        return len(self._gauss_jordan(reduce_up=False)[1])

    def det(self) -> int:
        return self._gauss_jordan(track_det=True, reduce_up=False)[2]

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse needs a square matrix")
        n = self.nrows
        aug = Matrix.hstack([self, Matrix.identity(self.field, n)])
        R, pivots, _ = aug._gauss_jordan()
        if tuple(pivots) != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return self._new(row[n:] for row in R)

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """One solution X of self @ X = rhs (free variables set to zero),
        or None when the system is inconsistent."""
        if self.field != rhs.field or self.nrows != rhs.nrows:
            raise ValueError("incompatible system")
        cols = self.ncols
        aug = Matrix.hstack([self, rhs])
        R, pivots, _ = aug._gauss_jordan()
        if any(c >= cols for c in pivots):
            return None
        out = [[0] * rhs.ncols for _ in range(cols)]
        for row_idx, c in enumerate(pivots):
            out[c] = R[row_idx][cols:]
        return rhs._new(out)

    def kernel_basis(self) -> "Matrix":
        """The right null space as one ncols x nullity matrix, a column per
        free column in ascending order (ncols x 0 when it is trivial)."""
        R, pivots, _ = self._gauss_jordan()
        return self._new(R).rref_kernel_basis(pivots)

    def rref_kernel_basis(self, pivots: Sequence[int]) -> "Matrix":
        """kernel_basis of a matrix already in reduced row echelon form
        with pivot columns `pivots`, as rref returns them: the column of
        free column c is 1 at c, minus column c of the reduced rows at the
        pivots, 0 elsewhere.  No elimination."""
        f = self.field
        neg = f.kernel().neg
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        out = [[0] * len(free) for _ in range(self.ncols)]
        for j, c in enumerate(free):
            out[c][j] = f.one
        for row, pc in zip(self.rows, pivots):
            out[pc] = [neg(row[c]) for c in free]
        return self._new(out, len(free))


# -- derived operations ----------------------------------------------------


def evaluate_poly_at(f_poly: poly.Poly, x: Matrix) -> Matrix:
    """f(x) by Horner's rule from the leading coefficient, deg f products;
    coefficients are packed field elements."""
    field, n = x.field, x.nrows
    acc = Matrix.scalar(field, n, f_poly[-1] if f_poly else field.zero)
    for c in reversed(f_poly[:-1]):
        acc = acc @ x
        if c != field.zero:
            acc = acc + Matrix.scalar(field, n, c)
    return acc


def commutant_basis(x: Matrix) -> list[Matrix]:
    """Basis of the linear space {M : x M = M x}."""
    return twisted_commutant_basis(x, x.field.one)


def twisted_commutant_basis(x: Matrix, lam: int) -> list[Matrix]:
    """Basis of {M : M x = lam * (x M)}: lam = 1 is the ordinary
    commutant, and an invertible member M has M x M^-1 = lam x."""
    field = x.field
    n = x.nrows
    if x.ncols != n:
        raise ValueError("commutant needs a square matrix")
    # unknown M[c][d] sits at index c n + d; equation (a, b) reads
    # (M x)[a][b] - lam (x M)[a][b] = 0: column b of x at the indices
    # a n + d, row a of -lam x at c n + b, the two meeting at a n + b
    minus_lam_x = x.scale(field.neg(lam)).rows
    cols = list(zip(*x.rows))
    system = []
    for a in range(n):
        for b in range(n):
            eq = [0] * (n * n)
            eq[b::n] = minus_lam_x[a]
            eq[a * n:(a + 1) * n] = cols[b]
            eq[a * n + b] = field.add(cols[b][b], minus_lam_x[a][a])
            system.append(eq)
    kernel = x._new(system, n * n).kernel_basis()
    return [x._new(vec[i * n:(i + 1) * n] for i in range(n))
            for vec in zip(*kernel.rows)]


def charpoly(m: Matrix) -> poly.Poly:
    """det(T I - m), monic of degree n, constant term first.

    Hessenberg reduction by elementary similarities, then the recurrence
    for the characteristic polynomials of the leading blocks of the
    Hessenberg form (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9): O(n^3) field operations.
    """
    return _charpoly_hessenberg(m)[0]


def _charpoly_hessenberg(m: Matrix) -> tuple[poly.Poly, Matrix]:
    """(charpoly(m), H) for the upper Hessenberg H similar to m that the
    reduction leaves."""
    f = m.field
    n = m.nrows
    if m.ncols != n:
        raise ValueError("charpoly needs a square matrix")
    kernel = f.kernel()
    axpy, neg, mul = kernel.axpy, kernel.neg, kernel.mul
    H = [list(row) for row in m.rows]
    for c in range(n - 2):
        # clear column c below the subdiagonal with pivot row k
        k = c + 1
        i = next((i for i in range(k, n) if H[i][c]), None)
        if i is None:
            continue
        if i != k:
            H[k], H[i] = H[i], H[k]
            for row in H:
                row[k], row[i] = row[i], row[k]
        inv = f.inv(H[k][c])
        for i in range(k + 1, n):
            if H[i][c]:
                # row i -= u row k, then column k += u column i
                u = mul(H[i][c], inv)
                H[i] = axpy(H[i], neg(u), H[k])
                col = axpy([row[k] for row in H], u, [row[i] for row in H])
                for row, v in zip(H, col):
                    row[k] = v
    # chars[j] = det(T I - H[:j, :j]); chars[j + 1] = (T - H[j][j]) chars[j]
    # - sum over i < j of H[i+1][i] ... H[j][j-1] H[i][j] chars[i]
    chars = [[f.one]]
    for j in range(n):
        prev = chars[j]
        nxt = axpy([0] + prev, neg(H[j][j]), prev + [0])
        t = f.one
        for i in range(j - 1, -1, -1):
            t = mul(t, H[i + 1][i])
            if not t:
                break
            nxt = axpy(nxt, neg(mul(t, H[i][j])), chars[i]) + nxt[i + 1:]
        chars.append(nxt)
    return tuple(chars[n]), m._new(H)


@dataclass(frozen=True)
class MinRankShift:
    """r = min rank(g - alpha h); argmins holds the minimizing alpha in
    ascending packed order, range(1, q) when r is n."""

    r: int
    argmins: Sequence[int]


def min_rank_shift(g: Matrix, h: Matrix) -> MinRankShift:
    """min over alpha in F^x of rank(g - alpha h), with every minimizing
    alpha in ascending packed order; h must be invertible (ValueError
    otherwise).

    rank(g - alpha h) = rank(m - alpha I) for m = h^-1 g, which is below n
    exactly when alpha is an eigenvalue of m: a nonzero root of
    charpoly(m), from poly.proots.  At q <= gf._PAIR_TABLE_MAX that
    evaluates charpoly(m) at every element at once, n array steps; above
    it the roots are the linear factors of gcd(charpoly(m), T^(q-1) - 1),
    which equal-degree splitting separates, at a cost that grows with
    log q, not q.  A rank is computed at the repeated roots alone, those
    with chi'(alpha) = 0: at a simple root the eigenspace is a line, since
    its dimension is at least 1 and at most the multiplicity, so the rank
    is n - 1 with no elimination.  With no root every alpha gives rank n
    and argmins is range(1, q).
    """
    if g.field != h.field or g.shape != h.shape or g.nrows != g.ncols:
        raise ValueError("need square matrices of equal shape over one field")
    field = g.field
    n = g.nrows
    # the rref of [h | g] is [I | h^-1 g] exactly when h is invertible
    reduced, pivots = Matrix.hstack([h, g]).rref()
    if pivots != tuple(range(n)):
        raise ValueError("second element must be invertible")
    chi, H = _charpoly_hessenberg(reduced.block(0, n, n, 2 * n))
    dchi = poly.pderiv(field, chi)
    ranks = {alpha: (H - Matrix.scalar(field, n, alpha)).rank()
             if poly.peval(field, dchi, alpha) == field.zero else n - 1
             for alpha in poly.proots(field, chi) if alpha}
    if not ranks:
        return MinRankShift(n, range(1, field.q))
    r = min(ranks.values())
    return MinRankShift(r, tuple(a for a, v in ranks.items() if v == r))


def primary_blocks(x: Matrix, k: int, alpha: int) -> list[tuple[poly.Poly, Matrix]]:
    """Primary decomposition of the space under x, for x satisfying
    (T^k - alpha)(T - 1) = 0: pairs (irreducible factor f, ker f(x) as
    one n x dim matrix), sorted by (degree, coefficients).  An irreducible
    f has ker f(x) != 0 exactly when f divides chi = charpoly(x), so only
    the factors of gcd(T^k - alpha, chi) are tried, and T - 1 (the
    identity on the complement block) when chi(1) = 0."""
    field = x.field
    n = x.nrows
    target = (field.neg(alpha),) + (field.zero,) * (k - 1) + (field.one,)
    chi = charpoly(x)
    factors = set(poly.pfactor_distinct(field, poly.pgcd(field, target, chi)))
    if poly.peval(field, chi, field.one) == field.zero:
        factors.add((field.neg(field.one), field.one))
    blocks = []
    total = 0
    for f in sorted(factors, key=lambda t: (len(t), t)):
        basis = evaluate_poly_at(f, x).kernel_basis()
        if basis.ncols:
            blocks.append((f, basis))
            total += basis.ncols
    if total != n:
        raise UnsupportedCaseError(
            f"matrix does not satisfy (T^{k} - alpha)(T - 1) = 0; "
            f"primary blocks cover {total} of {n} dimensions"
        )
    return blocks


# -- batched enumeration kernel --------------------------------------------

SPAN_BUDGET = 10**6  # members of a span that span_invertible_counts enumerates
_SPAN_CHUNK = 2**14  # rows per batched elimination and in the low table


def _batched_dets(field: Field, mats: np.ndarray) -> np.ndarray:
    """Determinants of a (B, n, n) int64 array of packed matrices, 0 for
    the singular ones, by one Gaussian elimination over the whole batch
    with the first nonzero pivot of each column.  mats is overwritten."""
    mul, fma, inv = field.kernel().arrays()
    minus_one = field.neg(field.one)
    count, n = mats.shape[0], mats.shape[1]
    det = np.ones(count, dtype=np.int64)
    members = np.arange(count)
    for j in range(n):
        rows = j + (mats[:, j:, j] != 0).argmax(axis=1)
        swap = members[rows != j]
        if swap.size:
            top = mats[swap, j].copy()
            mats[swap, j] = mats[swap, rows[swap]]
            mats[swap, rows[swap]] = top
            det[swap] = mul(det[swap], minus_one)
        pivot = mats[:, j, j]
        # a column with no nonzero entry leaves the pivot, and det, zero
        det = mul(det, pivot)
        if j + 1 < n:
            neg_inv = inv(mul(np.where(pivot != 0, pivot, 1), minus_one))
            factor = mul(mats[:, j + 1:, j], neg_inv[:, None])
            mats[:, j + 1:, j + 1:] = fma(mats[:, j + 1:, j + 1:],
                                          factor[:, :, None],
                                          mats[:, j, None, j + 1:])
    return det


def _span_table(fma, flat: np.ndarray, q: int) -> np.ndarray:
    """span(flat) as a (q^d, n^2) array, d = len(flat), whose row
    c_0 + c_1 q + ... + c_(d-1) q^(d-1) is the member sum c_i flat[i]:
    built one basis row at a time, each step one broadcast fma over the
    table so far.  So span(flat[:k]) is its first q^k rows, and rows
    [q^k, 2 q^k) are flat[k] + span(flat[:k])."""
    table = np.zeros((1, flat.shape[1]), dtype=np.int64)
    coeffs = np.arange(q, dtype=np.int64)[:, None, None]
    for b in flat:
        table = fma(table[None], coeffs, b).reshape(-1, flat.shape[1])
    return table


def _representatives(fma, flat: np.ndarray, q: int) -> np.ndarray:
    """The members of span(flat) whose last nonzero coefficient is 1,
    level k being flat[k] + span(flat[:k]): slices of the table of
    flat[:-1], which is not expanded by the last row, plus that row."""
    if len(flat) == 1:
        return flat
    table = _span_table(fma, flat[:-1], q)
    return np.concatenate([table[q**k:2 * q**k] for k in range(len(flat) - 1)]
                          + [fma(table, 1, flat[-1])])


def _outer_batches(fma, low: np.ndarray, head: list, high: np.ndarray):
    """The outer sums low + h over the rows h of high, one add per entry,
    as fresh arrays of at most _SPAN_CHUNK rows: as many rows of high per
    array as fit, and the row blocks in head joined to the first array
    with room for them, or last on their own."""
    step = _SPAN_CHUNK // len(low)
    for i in range(0, len(high), step):
        mats = fma(low, 1, high[i:i + step, None]).reshape(-1, low.shape[1])
        if head and sum(map(len, head)) + len(mats) <= _SPAN_CHUNK:
            mats, head = np.concatenate(head + [mats]), []
        yield mats
    if head:
        yield np.concatenate(head)


def span_invertible_counts(basis: Sequence[Matrix]) -> tuple[int, int]:
    """(number of invertible members, number with determinant one) of the
    linear span of `basis`, counted over coefficient vectors, so a
    dependent basis counts a matrix once per vector that reaches it.

    The span is closed under F^x and det(c M) = c^n det(M), so only one
    member per F^x orbit is enumerated: the one whose last nonzero
    coefficient is 1, (q^dim - 1)/(q - 1) of them.  An invertible
    representative of determinant delta stands for q - 1 invertible
    members, g = gcd(n, q - 1) of them of determinant one if delta is an
    n-th power (delta^((q-1)/g) = 1) and none otherwise.  The budget still
    counts all members: BudgetError when q^dim exceeds SPAN_BUDGET.

    The members are outer sums: a low table of span(basis[:kl]), the
    largest kl < dim with q^kl <= _SPAN_CHUNK, holds the levels below kl
    as slices, and every higher representative is the low table plus one
    representative of span(basis[kl:]), one add per entry."""
    if not basis:
        return (0, 0)
    field = basis[0].field
    q = field.q
    d = len(basis)
    if q**d > SPAN_BUDGET:
        raise BudgetError(f"span has {q}^{d} members, budget {SPAN_BUDGET}")
    n = basis[0].nrows
    mul, fma, _ = field.kernel().arrays()
    g = math.gcd(n, q - 1)
    flat = np.array([b.rows for b in basis], dtype=np.int64).reshape(d, n * n)
    kl = 0
    while kl < d - 1 and q ** (kl + 1) <= _SPAN_CHUNK:
        kl += 1
    low = _span_table(fma, flat[:kl], q)
    head = [low[q**k:2 * q**k] for k in range(kl)]
    high = _representatives(fma, flat[kl:], q)
    invertible = nth_powers = 0  # among the representatives
    for mats in _outer_batches(fma, low, head, high):
        dets = _batched_dets(field, mats.reshape(-1, n, n))
        dets = dets[dets != 0]
        invertible += dets.size
        powered = power(mul, dets, (q - 1) // g)
        nth_powers += int((powered == field.one).sum())
    return (q - 1) * invertible, g * nth_powers
