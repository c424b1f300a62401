import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msg_lab import gf
from msg_lab import linalg as L
from msg_lab import poly
from msg_lab.constructions import check_split_condition, prepare_near_root
from msg_lab.errors import UnsupportedCaseError
from msg_lab.gf import GF
from msg_lab.groups import random_invertible
from msg_lab.linalg import (Matrix, commutant_basis, min_rank_shift,
                            primary_blocks, span_invertible_counts)

from conftest import FIELDS, near_root_input, primary_blocks_unfiltered


def _rand_matrix(field, rows, cols, rng):
    return Matrix.from_packed(
        field, [[rng.randrange(field.q) for _ in range(cols)]
                for _ in range(rows)])


def _in_span(basis, target):
    """Membership of vec(target) in the row space spanned by vec(b)."""
    field = target.field
    rows = [b.packed().reshape(-1) for b in basis]
    stack = Matrix.from_packed(field, np.stack(rows))
    with_t = Matrix.from_packed(
        field, np.stack(rows + [target.packed().reshape(-1)]))
    return stack.rank() == with_t.rank()


def test_ring_laws(rng):
    for field in FIELDS:
        for _ in range(60):
            n = rng.randint(1, 5)
            a = _rand_matrix(field, n, n, rng)
            b = _rand_matrix(field, n, n, rng)
            c = _rand_matrix(field, n, n, rng)
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ (b + c) == a @ b + a @ c
            assert (a + b).transpose() == a.transpose() + b.transpose()
            assert (a @ b).transpose() == b.transpose() @ a.transpose()
            assert a + b == b + a
            ident = Matrix.identity(field, n)
            assert a @ ident == a and ident @ a == a


def _dot_product(a, b):
    """a @ b over GF(p) in the dot-product form, as row tuples."""
    p = a.field.p
    cols = list(zip(*b.rows)) or [()] * b.ncols
    return tuple([tuple([sum(x * y for x, y in zip(row, col)) % p
                         for col in cols]) for row in a.rows])


def test_packed_row_product_matches_dot_products(rng):
    """The packed-row product equals the dot-product form: every prime
    field of FIELDS on shapes with 0 rows, columns or inner dimension, 1 x n,
    n x 1 and n x n up to 12, and right factors of 1, 2 and 3 columns on
    both sides of the switch to the dot form below 3 columns, where
    gf._packed_row_product itself is checked too; and GF(2^31 - 1) with
    inner dimension 1 to 6, random and all entries p - 1, where (p - 1)^2
    times the inner dimension is below 2^64 up to 4 and above it from 5.
    Matrix products and the kernel's matmul give the same rows."""
    big = GF(2**31 - 1)
    cases = []
    for field in [f for f in FIELDS if f.e == 1]:
        shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)]
        shapes += [(1, n, n) for n in range(1, 13)]
        shapes += [(n, n, 1) for n in range(1, 13)]
        shapes += [(n, n, n) for n in range(1, 13)]
        narrow = [(r, k, c) for r in (1, 5) for k in (1, 4, 12)
                  for c in (1, 2, 3)]
        for r, k, c in narrow:
            a = _rand_matrix(field, r, k, rng)
            b = _rand_matrix(field, k, c, rng)
            assert gf._packed_row_product(a.rows, b.rows, c, field.p) == \
                _dot_product(a, b)
        shapes += narrow
        for r, k, c in shapes:
            # from_packed reads the column count off the first row
            cases.append((_rand_matrix(field, r, k, rng) if r
                          else Matrix.zeros(field, 0, k),
                          _rand_matrix(field, k, c, rng) if k
                          else Matrix.zeros(field, 0, c)))
        top = field.p - 1
        cases.append((Matrix.scalar(field, 12, top), Matrix.scalar(field, 12, top)))
    for k in range(1, 7):
        cases.append((_rand_matrix(big, 3, k, rng), _rand_matrix(big, k, 4, rng)))
        top = [[big.p - 1] * k] * 3
        cases.append((Matrix.from_packed(big, top),
                      Matrix.from_packed(big, [[big.p - 1] * 4] * k)))
    for a, b in cases:
        product = a @ b
        assert product.shape == (a.nrows, b.ncols)
        assert product.rows == _dot_product(a, b)
        assert a.field.kernel().matmul(a.rows, b.rows, b.ncols) == product.rows
    assert (Matrix.from_packed(big, [[big.p - 1] * 5]) @
            Matrix.from_packed(big, [[big.p - 1]] * 5)).rows == ((5,),)


def test_matpow_matches_repeated_products(rng, monkeypatch):
    """y^k is the k-fold product for k in -3..9 (of y^-1 when k < 0), and
    for k >= 1 it costs bit_length - 1 squarings and popcount - 1 further
    products: none with the identity, none past the top bit."""
    products = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for field in FIELDS:
        y = random_invertible(3, field, rng)
        y_inv = y.inverse()
        for k in range(-3, 10):
            expected = Matrix.identity(field, 3)
            for _ in range(abs(k)):
                expected = expected @ (y if k > 0 else y_inv)
            before = len(products)
            assert y.matpow(k) == expected
            if k >= 1:
                assert len(products) - before == \
                    k.bit_length() - 1 + bin(k).count("1") - 1


def test_matrix_hash_agrees_with_equality(rng):
    """Equal matrices hash equal, so they serve as set members and dict
    keys; the same packed entries over GF(7) and GF(9) are different
    matrices."""
    for field in [GF(7), GF(3, 2)]:
        a = _rand_matrix(field, 3, 3, rng)
        b = Matrix.from_packed(field, [list(row) for row in a.rows])
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, a.transpose().transpose()}) == 1
        assert {a: "value"}[b] == "value"
    rows = [[1, 2], [3, 6]]
    seven = Matrix.from_packed(GF(7), rows)
    nine = Matrix.from_packed(GF(3, 2), rows)
    assert seven != nine and len({seven, nine}) == 2


def test_det_multiplicative(rng):
    for field in FIELDS:
        for _ in range(80):
            n = rng.randint(1, 4)
            a = _rand_matrix(field, n, n, rng)
            b = _rand_matrix(field, n, n, rng)
            assert (a @ b).det() == field.mul(a.det(), b.det())


def test_det_2x2_formula(rng):
    for field in FIELDS:
        for _ in range(60):
            a = _rand_matrix(field, 2, 2, rng)
            p = a.packed()
            expect = field.sub(field.mul(int(p[0, 0]), int(p[1, 1])),
                               field.mul(int(p[0, 1]), int(p[1, 0])))
            assert a.det() == expect


def test_rank_inequalities(rng):
    """rank(AB) <= min(rank A, rank B); rank(A+B) <= rank A + rank B."""
    checked = 0
    while checked < 1000:
        field = FIELDS[checked % len(FIELDS)]
        n = rng.randint(1, 6)
        a = _rand_matrix(field, n, n, rng)
        b = _rand_matrix(field, n, n, rng)
        assert (a @ b).rank() <= min(a.rank(), b.rank())
        assert (a + b).rank() <= a.rank() + b.rank()
        checked += 1


def test_rank_nullity(rng):
    for field in FIELDS:
        for _ in range(80):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = _rand_matrix(field, rows, cols, rng)
            kernel = m.kernel_basis()
            assert kernel.nrows == cols
            assert m.rank() + kernel.ncols == cols
            assert kernel.rank() == kernel.ncols
            assert (m @ kernel).rank() == 0


def test_rref_idempotent(rng):
    for field in FIELDS:
        for _ in range(40):
            m = _rand_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            r, pivots = m.rref()
            again, again_pivots = r.rref()
            assert again == r and again_pivots == pivots
            assert len(pivots) == m.rank()


def test_solve_and_inverse(rng):
    for field in FIELDS:
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_invertible(n, field, rng)
            b = _rand_matrix(field, n, 1, rng)
            sol = m.solve(b)
            assert sol is not None and m @ sol == b
            inv = m.inverse()
            assert m @ inv == Matrix.identity(field, n)
            # singular matrices must refuse inversion
            row = m.packed().tolist()
            row[n - 1] = row[0]
            singular = Matrix.from_packed(field, row)
            if n > 1:
                assert not singular.is_invertible()
                with pytest.raises(Exception):
                    singular.inverse()


def test_commutant_contains_identity_and_x(rng):
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 4)
            x = _rand_matrix(field, n, n, rng)
            basis = commutant_basis(x)
            for b in basis:
                assert x @ b == b @ x
            assert _in_span(basis, Matrix.identity(field, n))
            assert _in_span(basis, x)


def test_commutant_dimension_diagonal_distinct():
    """Distinct eigenvalues leave only the diagonal matrices."""
    field = GF(7)
    x = Matrix.diagonal(field, [1, 2, 3])
    assert len(commutant_basis(x)) == 3


def test_min_rank_shift_bi_invariance(rng):
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 4)
            g = _rand_matrix(field, n, n, rng)
            h = random_invertible(n, field, rng)
            u = random_invertible(n, field, rng)
            v = random_invertible(n, field, rng)
            r = min_rank_shift(g, h).r
            assert min_rank_shift(u @ g, u @ h).r == r
            assert min_rank_shift(g @ v, h @ v).r == r


def test_min_rank_shift_known_case():
    field = GF(5)
    g = Matrix.diagonal(field, [2, 2, 1])
    shift = min_rank_shift(g, Matrix.identity(field, 3))
    assert shift.r == 1
    assert 2 in shift.argmins or 3 in shift.argmins


def _scan_min_rank_shift(g, h):
    """The exhaustive oracle: a rank for every alpha in F^x."""
    ranks = {a: (g - h.scale(a)).rank() for a in g.field.nonzero_elements()}
    r = min(ranks.values())
    return r, tuple(a for a in sorted(ranks) if ranks[a] == r)


# prime and extension fields on both sides of gf._PAIR_TABLE_MAX, where
# poly.proots switches from a scan of F to gcd and equal-degree splitting:
# up to q = 1021 below it, GF(1031) and GF(2^11) above; GF(2^10) itself is
# left out because building its pair tables alone takes about a second
_ORACLE_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2),
                  GF(2, 4), GF(5, 2), GF(2, 6), GF(3, 4), GF(251), GF(5, 4),
                  GF(1021), GF(1031), GF(2, 11)]


def _shift_case(field, n, kind, rng):
    """(g, h) with h invertible and g random, a scalar multiple of h,
    h times a diagonalizable matrix, or h times a scaled unipotent one."""
    h = random_invertible(n, field, rng)
    if kind == "random":
        return _rand_matrix(field, n, n, rng), h
    if kind == "scalar":
        return h.scale(rng.randrange(field.q)), h
    if kind == "diagonalizable":
        p = random_invertible(n, field, rng)
        d = Matrix.diagonal(field, [rng.randrange(field.q) for _ in range(n)])
        return h @ p @ d @ p.inverse(), h
    unipotent = Matrix.from_packed(field, [
        [rng.randrange(field.q) if j > i else int(i == j) for j in range(n)]
        for i in range(n)])
    return h @ unipotent.scale(rng.randrange(1, field.q)), h


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_ORACLE_FIELDS), n=st.integers(1, 5),
       kind=st.sampled_from(["random", "scalar", "diagonalizable",
                             "unipotent"]),
       seed=st.integers(0, 2**32 - 1))
def test_min_rank_shift_matches_exhaustive_scan(field, n, kind, seed):
    g, h = _shift_case(field, n, kind, random.Random(seed))
    shift = min_rank_shift(g, h)
    assert (shift.r, tuple(shift.argmins)) == _scan_min_rank_shift(g, h)


def test_charpoly_is_det_of_shift(rng):
    """chi is monic of degree n and chi(alpha) = det(alpha I - m) at every
    alpha, for q <= 9."""
    for field in [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]:
        for _ in range(25):
            n = rng.randint(1, 6)
            m = _rand_matrix(field, n, n, rng)
            chi = L.charpoly(m)
            assert len(chi) == n + 1 and chi[-1] == field.one
            for a in field.elements():
                shifted = Matrix.scalar(field, n, a) - m
                assert poly.peval(field, chi, a) == shifted.det()


def test_hessenberg_ranks_match_ranks_of_m(rng):
    """The H that charpoly reduces m to is upper Hessenberg, has the same
    characteristic polynomial, and rank(H - alpha I) = rank(m - alpha I)
    at every alpha, over the charpoly fields and n <= 6."""
    for field in [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]:
        for _ in range(15):
            n = rng.randint(1, 6)
            m = _rand_matrix(field, n, n, rng)
            chi, H = L._charpoly_hessenberg(m)
            assert chi == L.charpoly(m) == L.charpoly(H)
            assert all(H.entry(i, j) == 0 for i in range(n)
                       for j in range(i - 1))
            for a in field.elements():
                shift = Matrix.scalar(field, n, a)
                assert (H - shift).rank() == (m - shift).rank()


def test_min_rank_shift_eliminates_once_and_ranks_each_repeated_root(
        rng, monkeypatch):
    """min_rank_shift makes one elimination, of [h | g], then one rank per
    repeated eigenvalue of m = h^-1 g in F^x, those alpha with
    (T - alpha)^2 | charpoly(m), here rank (m - alpha I)^n <= n - 2; each
    is of an n x n upper Hessenberg matrix (H - alpha I).  A simple
    eigenvalue takes no elimination, and no polynomial is factored in
    full."""
    eliminations = []
    gauss_jordan = Matrix._gauss_jordan

    def counted(self, *args, **kwargs):
        hessenberg = all(self.entry(i, j) == 0 for i in range(self.nrows)
                         for j in range(i - 1))
        eliminations.append(self.shape + (hessenberg,))
        return gauss_jordan(self, *args, **kwargs)

    def refused(*args):
        raise AssertionError("pfactor_distinct called")

    monkeypatch.setattr(poly, "pfactor_distinct", refused)
    simple = repeated = 0
    for field in [GF(2), GF(7), GF(3, 2), GF(2, 6), GF(251)]:
        for n in (1, 2, 4, 6):
            for kind in ("random", "scalar", "diagonalizable", "unipotent"):
                g, h = _shift_case(field, n, kind, rng)
                m = h.inverse() @ g
                roots = [a for a in field.nonzero_elements()
                         if (g - h.scale(a)).rank() < n]
                twice = [a for a in roots if (m - Matrix.scalar(field, n, a))
                         .matpow(n).rank() <= n - 2]
                simple += len(roots) - len(twice)
                repeated += len(twice)
                monkeypatch.setattr(Matrix, "_gauss_jordan", counted)
                del eliminations[:]
                min_rank_shift(g, h)
                monkeypatch.setattr(Matrix, "_gauss_jordan", gauss_jordan)
                assert eliminations[1:] == [(n, n, True)] * len(twice)
                assert eliminations[0][:2] == (n, 2 * n)
    assert simple and repeated


def test_min_rank_shift_reach_word_size_field(rng):
    """Over GF(2^31 - 1), where a scan would take 2^31 - 2 ranks: a
    planted g = h p (alpha I + N) p^-1 with N nilpotent of rank 2 has the
    single argmin alpha and rank 2; the companion matrix of an irreducible
    quadratic has no eigenvalue in F, so r = n and every scalar is an
    argmin."""
    field = GF(2**31 - 1)
    n = 4
    h = random_invertible(n, field, rng)
    p = random_invertible(n, field, rng)
    alpha = rng.randrange(1, field.q)
    nilpotent = Matrix.from_packed(field, [[int(j == i + 1 and i < 2)
                                            for j in range(n)]
                                           for i in range(n)])
    planted = Matrix.scalar(field, n, alpha) + nilpotent
    g = h @ p @ planted @ p.inverse()
    shift = min_rank_shift(g, h)
    assert shift.r == 2 and tuple(shift.argmins) == (alpha,)
    # T^2 - 7 is irreducible: 7 is a non-residue mod 2^31 - 1
    assert pow(7, (field.q - 1) // 2, field.q) == field.q - 1
    companion = Matrix.from_packed(field, [[0, 7], [1, 0]])
    shift = min_rank_shift(companion, Matrix.identity(field, 2))
    assert shift.r == 2 and shift.argmins == range(1, field.q)
    assert len(shift.argmins) == field.q - 1


def test_min_rank_shift_rejects_singular_h():
    field = GF(5)
    g = Matrix.identity(field, 2)
    with pytest.raises(ValueError):
        min_rank_shift(g, Matrix.from_packed(field, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        min_rank_shift(g, Matrix.zeros(field, 2, 2))


def test_primary_blocks_diagonal_example():
    """x = diag(1,1,-1) over GF(7), T^2 - 1: kernel blocks of dim 2 and 1
    that jointly span, each annihilated by its factor."""
    from msg_lab.linalg import evaluate_poly_at
    field = GF(7)
    x = Matrix.diagonal(field, [1, 1, 6])
    blocks = primary_blocks(x, 2, field.one)
    dims = sorted(basis.ncols for _, basis in blocks)
    assert dims == [1, 2]
    for f, basis in blocks:
        image = evaluate_poly_at(f, x) @ basis
        assert image == Matrix.zeros(field, 3, basis.ncols)
    joint = Matrix.hstack([basis for _, basis in blocks])
    assert joint.rank() == 3


def test_primary_blocks_filtered_matches_unfiltered(rng):
    """Trying only the factors that divide chi gives the same blocks, in
    the same order, as evaluating every factor of (T^k - alpha)(T - 1):
    on near-roots x, on their L blocks (0 x 0 and 1 x 1 included), and on
    random x, where both raise UnsupportedCaseError when the blocks do not
    cover the space."""
    for field in FIELDS:
        for n in range(1, 7):
            for dim_l in range(n + 1):
                case = near_root_input(field, n, dim_l, rng)
                if case is None:
                    continue
                x, dec = prepare_near_root(*case)
                for m in (x, check_split_condition(x, dec)):
                    assert primary_blocks(m, dec.k, dec.alpha) == \
                        primary_blocks_unfiltered(m, dec.k, dec.alpha)
            m = _rand_matrix(field, n, n, rng)
            k = rng.choice([k for k in range(1, 7) if k % field.p])
            alpha = rng.randrange(1, field.q)
            try:
                expect = primary_blocks_unfiltered(m, k, alpha)
            except UnsupportedCaseError:
                with pytest.raises(UnsupportedCaseError):
                    primary_blocks(m, k, alpha)
            else:
                assert primary_blocks(m, k, alpha) == expect


def _leibniz_det(m):
    """Sum over permutations of sign times the product of entries."""
    field = m.field
    n = m.nrows
    total = field.zero
    for perm in itertools.permutations(range(n)):
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, m.entry(i, j))
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def _rank_at_most(field, rows, cols, r, rng):
    """A random rows x cols product of rank at most r."""
    if not r:
        return Matrix.zeros(field, rows, cols)
    return _rand_matrix(field, rows, r, rng) @ _rand_matrix(field, r, cols, rng)


def test_forward_rank_det_match_rref_and_leibniz(rng):
    """rank and det eliminate only below the pivots: rank is the pivot
    count of the reduced form, and det the Leibniz sum, for n <= 4 and
    every rank, and is_invertible agrees with both."""
    for field in FIELDS:
        for n in range(5):
            for r in range(n + 1):
                for _ in range(4):
                    m = _rank_at_most(field, n, n, r, rng)
                    wide = _rank_at_most(field, n, rng.randint(1, 5), r, rng)
                    assert m.rank() == len(m.rref()[1])
                    assert wide.rank() == len(wide.rref()[1])
                    assert m.det() == _leibniz_det(m)
                    assert m.is_invertible() == (m.det() != field.zero) == \
                        (len(m.rref()[1]) == n)


def test_span_invertible_counts_tiny():
    """Span of diag(1,0) and diag(0,1) over GF(3): 9 matrices diag(a, b)
    of det ab, 4 invertible (ab != 0), 2 with det one (ab = 1)."""
    field = GF(3)
    basis = [Matrix.diagonal(field, [1, 0]), Matrix.diagonal(field, [0, 1])]
    invertible, det1 = span_invertible_counts(basis)
    assert invertible == 4
    assert det1 == 2  # diag(1,1) and diag(2,2)


def test_span_invertible_counts_commutant_oracle():
    """Invertible members of the commutant of diag(1,1,-1) over GF(7):
    |GL_2(7)| * |GL_1(7)| = 2016 * 6."""
    field = GF(7)
    x = Matrix.diagonal(field, [1, 1, 6])
    invertible, _ = span_invertible_counts(commutant_basis(x))
    assert invertible == 12096


# the batched determinant kernel reads mod-p arithmetic (e == 1), the packed
# pair tables (e > 1, q <= 2^10) or the scalar field ops (above that cap),
# and pivot inverses from the inverse table up to q = 2^16
KERNEL_FIELDS = FIELDS + [GF(509), GF(521), GF(2, 6), GF(3, 4)]


def _singular_copy(m):
    rows = m.packed().tolist()
    rows[-1] = rows[0]
    return Matrix.from_packed(m.field, rows)


def test_batched_dets_match_scalar_path(rng):
    for field in KERNEL_FIELDS + [GF(2, 11), GF(65537), GF(2**31 - 1)]:
        for n in (1, 2, 3, 4):
            mats = [_rand_matrix(field, n, n, rng) for _ in range(12)]
            mats += [_singular_copy(m) for m in mats[:4] if n > 1]
            dets = L._batched_dets(field, np.array([m.packed() for m in mats]))
            for m, d in zip(mats, dets):
                assert (int(d) != 0) == m.is_invertible()
                assert int(d) == m.det()


def _member_counts(basis):
    """(invertible, det one) over the span, member by member."""
    field = basis[0].field
    n = basis[0].nrows
    invertible = det_one = 0
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        m = Matrix.zeros(field, n, n)
        for c, b in zip(combo, basis):
            m = m + b.scale(c)
        d = m.det()
        invertible += d != 0
        det_one += d == 1
    return invertible, det_one


def _roots_of_unity(field, n):
    return [lam for lam in field.nonzero_elements()
            if lam != field.one and field.pow(lam, n) == field.one]


def test_span_invertible_counts_match_member_oracle(rng):
    for field in KERNEL_FIELDS:
        dim = max(d for d in (1, 2, 3) if field.q**d <= 5000)
        for n in (2, 3):
            basis = [_rand_matrix(field, n, n, rng) for _ in range(dim)]
            assert span_invertible_counts(basis) == _member_counts(basis)
        basis = commutant_basis(_rand_matrix(field, 2, 2, rng))
        if field.q ** len(basis) <= 5000:
            assert span_invertible_counts(basis) == _member_counts(basis)
    # the orbit count where it can go wrong: g = gcd(n, q - 1) > 1 (only
    # n-th power determinants reach det one), q - 1 = 1, dependent bases,
    # and twisted commutants
    cases = [(GF(3), 2), (GF(5), 2), (GF(7), 2), (GF(3, 2), 2),
             (GF(2, 2), 3), (GF(7), 3), (GF(2), 2), (GF(2), 3)]
    for field, n in cases:
        dim = max(d for d in (1, 2, 3) if field.q**(d + 1) <= 5000)
        for _ in range(3):
            basis = [_rand_matrix(field, n, n, rng) for _ in range(dim)]
            assert span_invertible_counts(basis) == _member_counts(basis)
            for extra in (basis[0], Matrix.zeros(field, n, n)):
                dependent = basis + [extra]
                assert span_invertible_counts(dependent) == \
                    _member_counts(dependent)
        # x = diag(1, lam, ..., lam^(n-1)) for a primitive n-th root lam is
        # moved to lam x by a cyclic shift, so each twisted commutant holds
        # invertible members; a random x usually has none
        roots = _roots_of_unity(field, n)
        xs = [(_rand_matrix(field, n, n, rng), False)]
        if len(roots) == n - 1:
            powers = [field.pow(roots[0], i) for i in range(n)]
            xs.append((Matrix.diagonal(field, powers), True))
        for x, conjugate in xs:
            for lam in roots:
                basis = L.twisted_commutant_basis(x, lam)
                counts = span_invertible_counts(basis)
                if basis:
                    assert counts == _member_counts(basis)
                assert counts[0] > 0 or not conjugate


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_span_chunks_match_member_oracle(monkeypatch, rng, chunk):
    """With _SPAN_CHUNK at 1, 4 and 16 the member-oracle sizes run the
    outer sums of the low table with several high representatives and
    join small blocks into one batch.  The counts still match the member
    oracle, on dependent bases, with q - 1 = 1 and on twisted commutants;
    every batch holds at most _SPAN_CHUNK rows, the low table (the first
    table built) too, and the batches hold each representative once."""
    monkeypatch.setattr(L, "_SPAN_CHUNK", chunk)
    batches, tables = [], []
    batched_dets, span_table = L._batched_dets, L._span_table

    def recording_dets(field, mats):
        batches.append(len(mats))
        return batched_dets(field, mats)

    def recording_table(fma, flat, q):
        tables.append(span_table(fma, flat, q))
        return tables[-1]

    monkeypatch.setattr(L, "_batched_dets", recording_dets)
    monkeypatch.setattr(L, "_span_table", recording_table)

    def check(basis):
        batches.clear()
        tables.clear()
        assert span_invertible_counts(basis) == _member_counts(basis)
        q = basis[0].field.q
        assert max(batches) <= chunk and len(tables[0]) <= chunk
        assert sum(batches) == (q ** len(basis) - 1) // (q - 1)

    for field, n in [(GF(2), 2), (GF(2), 3), (GF(3), 2), (GF(2, 2), 2),
                     (GF(3, 2), 2), (GF(7), 2)]:
        dim = max(d for d in (1, 2, 3, 4, 5) if field.q**(d + 1) <= 2000)
        basis = [_rand_matrix(field, n, n, rng) for _ in range(dim)]
        check(basis)
        check(basis + [basis[0]])
        check(basis + [Matrix.zeros(field, n, n)])
        roots = _roots_of_unity(field, n)
        if len(roots) == n - 1:
            x = Matrix.diagonal(field, [field.pow(roots[0], i) for i in range(n)])
            for lam in roots:
                check(L.twisted_commutant_basis(x, lam))


def test_span_invertible_counts_one_dim_above_table_cap(rng):
    """GF(2^11) has no pair tables: the span of one invertible matrix B
    has q - 1 invertible members, and c B has det one iff c^3 det B = 1."""
    field = GF(2, 11)
    b = random_invertible(3, field, rng)
    invertible, det1 = span_invertible_counts([b])
    assert invertible == field.q - 1
    d = b.det()
    assert det1 == sum(field.mul(field.pow(c, 3), d) == field.one
                       for c in field.nonzero_elements())
