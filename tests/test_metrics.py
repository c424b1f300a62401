import math
from fractions import Fraction

import pytest

from msg_lab.errors import BudgetError
from msg_lab.gf import GF
from msg_lab.groups import (GL, PSL_REP, SL, AlternatingDescriptor,
                            ClassicalElement, Permutation, PSLDescriptor,
                            enumerate_psl2, enumerate_sl2, gl_order,
                            psl_canonical, random_perm, random_sl, sl_order)
from msg_lab.linalg import (Matrix, commutant_basis, span_invertible_counts,
                            twisted_commutant_basis)
from msg_lab.metrics import (CONJ, HAMMING, PRANK, MetricValue,
                             class_size_matrix, class_size_perm,
                             conjugacy_distance, hamming_distance, length,
                             perm_centralizer_order,
                             projective_rank_distance)


def test_hamming_known_values():
    ident = Permutation.identity(10)
    assert hamming_distance(ident, ident).value == 0
    swap = Permutation.transposition(10, 3, 7)
    assert hamming_distance(ident, swap).value == Fraction(2, 10)
    ten_cycle = Permutation(tuple(list(range(1, 10)) + [0]))
    assert hamming_distance(ident, ten_cycle).value == 1
    assert isinstance(hamming_distance(ident, swap).value, Fraction)
    assert hamming_distance(swap, ten_cycle).kind == HAMMING


def test_prank_known_values():
    field = GF(5)
    ident = Matrix.identity(field, 2)
    assert projective_rank_distance(ident, ident).value == 0
    g = Matrix.diagonal(field, [2, 3])
    # 3 * diag(2,3) = diag(1,4) differs from I in one entry
    assert projective_rank_distance(g, ident).value == Fraction(1, 2)
    transvection = Matrix.from_packed(field, [[1, 1], [0, 1]])
    assert length(transvection, PRANK).value == Fraction(1, 2)


def test_prank_scalar_invariance_exhaustive():
    field = GF(5)
    g = Matrix.from_packed(field, [[1, 2], [3, 4]])
    h = Matrix.from_packed(field, [[0, 1], [2, 0]])
    base = projective_rank_distance(g, h).value
    for lam in field.nonzero_elements():
        assert projective_rank_distance(g.scale(lam), h).value == base
        assert projective_rank_distance(g, h.scale(lam)).value == base


def _partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_class_size_perm_brute_small():
    """Sizes against explicit orbit counts in S_n and A_n, n <= 6."""
    import itertools
    for n in range(2, 7):
        perms = [Permutation(p) for p in itertools.permutations(range(n))]
        by_type = {}
        for g in perms:
            by_type.setdefault(g.cycle_type(), []).append(g)
        for ct, members in by_type.items():
            assert len(members) == class_size_perm(ct, n)
            evens = [g for g in members if g.is_even()]
            if evens:
                rep = evens[0]
                orbit = {(h.inverse() * rep * h).images
                         for h in perms if h.is_even()}
                assert len(orbit) == class_size_perm(ct, n,
                                                     in_alternating=True)


def test_class_size_partition_sums():
    """Class sizes partition S_n and A_n for every n up to 12.  A type
    with all parts odd and distinct splits into two A_n classes, so it
    contributes twice."""
    for n in range(2, 13):
        total_s = 0
        total_a = 0
        for part in _partitions(n):
            size = class_size_perm(part, n)
            total_s += size
            parity = sum(k - 1 for k in part) % 2
            if parity == 0:
                splits = all(k % 2 == 1 for k in part) and \
                    len(set(part)) == len(part)
                size_a = class_size_perm(part, n, in_alternating=True)
                total_a += size_a * (2 if splits else 1)
        assert total_s == math.factorial(n)
        assert total_a == math.factorial(n) // 2


def test_a5_five_cycles_split():
    assert class_size_perm((5,), 5) == 24
    assert class_size_perm((5,), 5, in_alternating=True) == 12
    assert class_size_perm((3, 1, 1), 5, in_alternating=True) == 20


def test_orbit_stabilizer(rng):
    for _ in range(200):
        n = rng.randint(2, 12)
        ct = random_perm(n, rng).cycle_type()
        assert class_size_perm(ct, n) * perm_centralizer_order(ct) == \
            math.factorial(n)


def test_group_orders():
    assert gl_order(2, 3) == 48
    assert sl_order(2, 3) == 24
    assert gl_order(3, 2) == 168
    assert PSLDescriptor(2, GF(7).spec).order() == 168
    assert PSLDescriptor(2, GF(5).spec).order() == 60
    assert PSLDescriptor(2, GF(3, 2).spec).order() == 360
    assert AlternatingDescriptor(5).order() == 60
    assert AlternatingDescriptor(9).order() == math.factorial(9) // 2


def _brute_classes(elements, conj_key):
    """Partition a full enumeration into conjugacy classes."""
    seen = set()
    classes = []
    for x in elements:
        k = conj_key(x, None)
        if k in seen:
            continue
        orbit = {conj_key(x, h) for h in elements}
        seen |= orbit
        classes.append((x, len(orbit)))
    return classes


def test_class_size_matrix_sl_brute():
    """Oracle: explicit conjugation orbits in SL_2(2), SL_2(3), SL_2(5)."""
    for p in (2, 3, 5):
        field = GF(p)
        elements = enumerate_sl2(field.spec)

        def conj_key(x, h):
            if h is None:
                return x.key()
            return (h.inverse() @ x @ h).key()

        classes = _brute_classes(elements, conj_key)
        assert sum(size for _, size in classes) == sl_order(2, p)
        for rep, size in classes:
            assert class_size_matrix(ClassicalElement(rep, SL)) == size


def test_class_size_matrix_psl2_brute():
    """Oracle: explicit conjugation orbits in PSL_2(q), q in {4, 5, 7, 8, 9},
    with centre cosets taken to their canonical representatives."""
    for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        field = GF(p, e)
        elements = enumerate_psl2(field.spec)

        def conj_key(x, h):
            if h is None:
                return psl_canonical(x).key()
            return psl_canonical(h.inverse() @ x @ h).key()

        classes = _brute_classes(elements, conj_key)
        assert sum(size for _, size in classes) == PSLDescriptor(2, field.spec).order()
        for rep, size in classes:
            assert class_size_matrix(ClassicalElement(rep, PSL_REP)) == size


def _unit_scalars_scan(x):
    """The unit-scalar count class_size_matrix used to make: every lambda
    in F^x tested for lambda^n = 1, then for an invertible det-1 member
    of the lambda-twisted commutant."""
    field = x.field
    count = 0
    for lam in field.nonzero_elements():
        if field.pow(lam, x.nrows) != field.one:
            continue
        if lam == field.one:
            count += 1
            continue
        basis = twisted_commutant_basis(x, lam)
        if basis and span_invertible_counts(basis)[1]:
            count += 1
    return count


def test_class_size_matrix_matches_unit_scalar_scan(rng):
    """PSL class sizes against the scan over all of F^x, for random and
    scalar-twisted elements of SL_n(q), n <= 3, q <= 9, including every
    field with gcd(n, q - 1) = 2 or 3."""
    gcds = set()
    twisted = 0
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        field = GF(p, e)
        q = field.q
        for n in (2, 3):
            minus = field.neg(field.one)
            # x ~ lambda x for a unit scalar lambda != 1 when lambda exists
            special = {2: [[0, 1], [minus, 0]],
                       3: [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}[n]
            elements = [Matrix.from_packed(field, special)]
            elements += [random_sl(n, field.spec, rng).matrix
                         for _ in range(6)]
            for m in elements:
                t = _unit_scalars_scan(m)
                det_one = span_invertible_counts(commutant_basis(m))[1]
                expected = sl_order(n, q) // (det_one * t)
                assert class_size_matrix(ClassicalElement(m, PSL_REP)) == \
                    expected
                gcds.add(math.gcd(n, q - 1))
                twisted += t > 1
    assert {2, 3} <= gcds and twisted


def test_class_size_matrix_gl_identity():
    field = GF(3)
    x = ClassicalElement(Matrix.identity(field, 2), GL)
    assert class_size_matrix(x) == 1


def test_conjugacy_distance_values():
    group = AlternatingDescriptor(9)
    ident = Permutation.identity(9)
    three_cycle = Permutation.from_cycles(9, [(0, 1, 2)])
    d = conjugacy_distance(three_cycle, ident, group)
    # 3-cycles in A_9: choose 3 of 9, two cyclic orders: 168 of them
    expect = math.log(168) / math.log(math.factorial(9) // 2)
    assert abs(d.value - expect) < 1e-12
    assert conjugacy_distance(three_cycle, three_cycle, group).value == 0
    assert d.kind == CONJ


def test_conjugacy_distance_psl():
    group = PSLDescriptor(2, GF(7).spec)
    field = GF(7)
    x = Matrix.from_packed(field, [[1, 1], [0, 1]])
    ident = Matrix.identity(field, 2)
    d = conjugacy_distance(x, ident, group)
    # transvection class in PSL_2(7) has 24 members
    assert abs(d.value - math.log(24) / math.log(168)) < 1e-12


def test_conjugacy_rejects_odd():
    group = AlternatingDescriptor(9)
    odd = Permutation.transposition(9, 0, 1)
    with pytest.raises(ValueError):
        conjugacy_distance(odd, Permutation.identity(9), group)


def test_length_identity_zero():
    assert length(Permutation.identity(6), HAMMING).value == 0
    field = GF(5)
    assert length(Matrix.identity(field, 3), PRANK).value == 0
    group = AlternatingDescriptor(7)
    assert length(Permutation.identity(7), CONJ, group=group).value == 0


def test_metric_value_range():
    with pytest.raises(ValueError):
        MetricValue(Fraction(3, 2), HAMMING)
    with pytest.raises(ValueError):
        MetricValue(-0.25, CONJ)


def test_budget_error_surfaces():
    field = GF(2, 2)
    group = PSLDescriptor(5, field.spec)
    g = ClassicalElement(Matrix.identity(field, 5), SL)
    h = ClassicalElement(
        Matrix.from_packed(field, [[1, 1, 0, 0, 0],
                                   [0, 1, 0, 0, 0],
                                   [0, 0, 1, 0, 0],
                                   [0, 0, 0, 1, 0],
                                   [0, 0, 0, 0, 1]]), SL)
    with pytest.raises(BudgetError):
        conjugacy_distance(g, h, group, budget=10)
