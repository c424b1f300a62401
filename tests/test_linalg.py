import itertools
import random

import numpy as np
import pytest

from msg_lab import linalg as L
from msg_lab.gf import GF
from msg_lab.groups import random_invertible
from msg_lab.linalg import (Matrix, commutant_basis, min_rank_shift,
                            primary_blocks, span_invertible_counts)

from conftest import FIELDS


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
            assert m.rank() + len(kernel) == cols
            for v in kernel:
                assert (m @ v).rank() == 0


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
            m = random_invertible(n, field.spec, rng)
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
            h = _rand_matrix(field, n, n, rng)
            u = random_invertible(n, field.spec, rng)
            v = random_invertible(n, field.spec, rng)
            r = min_rank_shift(g, h).r
            assert min_rank_shift(u @ g, u @ h).r == r
            assert min_rank_shift(g @ v, h @ v).r == r


def test_min_rank_shift_known_case():
    field = GF(5)
    g = Matrix.diagonal(field, [2, 2, 1])
    shift = min_rank_shift(g, Matrix.identity(field, 3))
    assert shift.r == 1
    assert 2 in shift.argmins or 3 in shift.argmins


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


def test_span_invertible_counts_tiny():
    """Span of diag(1,0) and diag(0,1) over GF(3): 9 matrices, 4
    invertible, 1 with det one... det(diag(a,b)) = ab, so three."""
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


def test_span_invertible_counts_match_member_oracle(rng):
    for field in KERNEL_FIELDS:
        dim = max(d for d in (1, 2, 3) if field.q**d <= 5000)
        for n in (2, 3):
            basis = [_rand_matrix(field, n, n, rng) for _ in range(dim)]
            assert span_invertible_counts(basis) == _member_counts(basis)
        basis = commutant_basis(_rand_matrix(field, 2, 2, rng))
        if field.q ** len(basis) <= 5000:
            assert span_invertible_counts(basis) == _member_counts(basis)


def test_span_invertible_counts_one_dim_above_table_cap(rng):
    """GF(2^11) has no pair tables: the span of one invertible matrix B
    has q - 1 invertible members, and c B has det one iff c^3 det B = 1."""
    field = GF(2, 11)
    b = random_invertible(3, field.spec, rng)
    invertible, det1 = span_invertible_counts([b])
    assert invertible == field.q - 1
    d = b.det()
    assert det1 == sum(field.mul(field.pow(c, 3), d) == field.one
                       for c in field.nonzero_elements())
