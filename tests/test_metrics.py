import math
from fractions import Fraction

import pytest

from msg_lab import linalg
from msg_lab.errors import BudgetError, UnsupportedCaseError
from msg_lab.gf import GF
from msg_lab.groups import (GL, PSL_REP, SL, SP, AlternatingDescriptor,
                            ClassicalElement, Permutation, PSLDescriptor,
                            enumerate_psl2, enumerate_sl2, gl_order,
                            psl_canonical, random_invertible, random_perm,
                            random_sl, sl_order, standard_symplectic_form)
from msg_lab.linalg import (SPAN_BUDGET, Matrix, charpoly, commutant_basis,
                            span_invertible_counts, twisted_commutant_basis)
from msg_lab.metrics import (CONJ, HAMMING, PRANK, ClassLog, MetricValue,
                             _primary_partitions, class_size_matrix,
                             class_size_perm, gl_centralizer_structure,
                             conjugacy_distance, hamming_distance, length,
                             perm_centralizer_order,
                             projective_rank_distance)
from msg_lab.textio import format_value


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
    assert PSLDescriptor(2, GF(7)).order() == 168
    assert PSLDescriptor(2, GF(5)).order() == 60
    assert PSLDescriptor(2, GF(3, 2)).order() == 360
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
        elements = enumerate_sl2(field)

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
        elements = enumerate_psl2(field)

        def conj_key(x, h):
            if h is None:
                return psl_canonical(x).key()
            return psl_canonical(h.inverse() @ x @ h).key()

        classes = _brute_classes(elements, conj_key)
        assert sum(size for _, size in classes) == PSLDescriptor(2, field).order()
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
            elements += [random_sl(n, field, rng).matrix
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
    """3-cycles in A_9: choose 3 of 9, two cyclic orders, 168 of them.  The
    distance carries that size and |A_9| exactly, and prints as
    log 168 / log |A_9|."""
    group = AlternatingDescriptor(9)
    ident = Permutation.identity(9)
    three_cycle = Permutation.from_cycles(9, [(0, 1, 2)])
    d = conjugacy_distance(three_cycle, ident, group)
    order = math.factorial(9) // 2
    assert (d.value.size, d.value.order) == (168, order)
    assert float(d.value) == math.log(168) / math.log(order)
    assert format_value(d) == "0.423164527649"
    same = conjugacy_distance(three_cycle, three_cycle, group).value
    assert (same.size, same.order) == (1, order) and same == 0
    assert d.kind == CONJ


def test_conjugacy_distance_psl():
    """The transvection class of PSL_2(7) has 24 of its 168 members; the
    central -1 is the identity of PSL_2(7), a class of size 1."""
    group = PSLDescriptor(2, GF(7))
    field = GF(7)
    x = Matrix.from_packed(field, [[1, 1], [0, 1]])
    ident = Matrix.identity(field, 2)
    d = conjugacy_distance(x, ident, group)
    assert (d.value.size, d.value.order) == (24, 168)
    assert float(d.value) == math.log(24) / math.log(168)
    assert format_value(d) == "%.12g" % (math.log(24) / math.log(168))
    central = conjugacy_distance(ident.scale(6), ident, group).value
    assert (central.size, central.order) == (1, 168) and central == 0


def test_class_log_adds_and_compares_class_sizes_exactly():
    """Values of one group add by multiplying sizes and compare by size,
    with no rounding: log 2 + log 28 = log 56, though the floats of the
    three ratios over log 168 put the sum below, and sizes |A_50| - 1 and
    |A_50| differ, though their floats do not.  An int k stands for
    order**k, and 0 and 1 hash as the values equal to them; a value of
    another group is refused."""
    two, twenty_eight, fifty_six = (ClassLog(s, 168) for s in (2, 28, 56))
    assert float(two) + float(twenty_eight) < float(fifty_six)
    assert two + twenty_eight == fifty_six
    order = math.factorial(50) // 2
    near = ClassLog(order - 1, order)
    assert float(near) == 1.0 and near < 1 and near != ClassLog(order, order)
    assert not two + twenty_eight < fifty_six
    assert two + twenty_eight <= fifty_six <= two + twenty_eight
    assert two < twenty_eight and fifty_six > twenty_eight >= two
    assert two + twenty_eight != ClassLog(57, 168) > fifty_six
    assert ClassLog(1, 168) == 0 and ClassLog(168, 168) == 1
    assert 0 < two <= 1 and two != 0 and two + 1 == ClassLog(336, 168)
    assert {fifty_six: "x"}[two + twenty_eight] == "x"
    assert {0: "zero", 1: "one"}[ClassLog(1, 168)] == "zero"
    assert {0: "zero", 1: "one"}[ClassLog(168, 168)] == "one"
    assert MetricValue(fifty_six, CONJ) == MetricValue(two + twenty_eight,
                                                       CONJ)
    for bad in (lambda: two < ClassLog(2, 60), lambda: two + ClassLog(2, 60),
                lambda: two == ClassLog(2, 60), lambda: two < 0.5):
        with pytest.raises(ValueError, match="not a value of this group"):
            bad()


def test_metric_contract_raises():
    """Each check of the metric functions on input outside their
    contract, with its message."""
    f5 = GF(5)
    ident = Matrix.identity(f5, 2)
    sp = ClassicalElement(ident, SP, standard_symplectic_form(f5, 2))
    a5 = AlternatingDescriptor(5)
    cycle = Permutation.from_cycles(5, [(0, 1, 2)])
    cases = [
        (ValueError, "degree mismatch: 5 vs 4",
         lambda: hamming_distance(cycle, Permutation.identity(4))),
        (ValueError, r"cycle type \(3, 1\) does not sum to 5",
         lambda: class_size_perm((1, 3), 5)),
        (ValueError, "cycle lengths must be positive",
         lambda: class_size_perm((5, 0), 5)),
        (ValueError, r"cycle type \(2, 1, 1, 1\) is odd, not in A_5",
         lambda: class_size_perm((2, 1, 1, 1), 5, in_alternating=True)),
        (TypeError, "class_size_matrix expects a ClassicalElement",
         lambda: class_size_matrix(ident)),
        (UnsupportedCaseError, "needs GL/SL/PSL",
         lambda: class_size_matrix(sp)),
        (TypeError, "A_n metric needs permutations",
         lambda: conjugacy_distance(ident, cycle, a5)),
        (ValueError, "degree mismatch with group",
         lambda: conjugacy_distance(Permutation.identity(6), cycle, a5)),
        (UnsupportedCaseError, r"conjugacy metric needs A_n \(n >= 5\) or PSL",
         lambda: conjugacy_distance(cycle, cycle, "A:5")),
        (ValueError, "conjugacy length needs a group descriptor",
         lambda: length(cycle, CONJ)),
        (ValueError, "unknown metric kind 'taxicab'",
         lambda: length(cycle, "taxicab")),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=message):
            call()


def test_conjugacy_rejects_elements_off_the_descriptor():
    """A PSL descriptor takes only n x n matrices over its own field: the
    same transvection over GF(5), or at size 3, is refused."""
    group = PSLDescriptor(2, GF(7))
    for field, n in ((GF(5), 2), (GF(7), 3)):
        x = Matrix.identity(field, n) + Matrix.from_packed(
            field, [[int(i == 0 and j == 1) for j in range(n)]
                    for i in range(n)])
        with pytest.raises(ValueError, match="does not match the group"):
            conjugacy_distance(x, Matrix.identity(field, n), group)


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


def test_budget_error_surfaces(monkeypatch):
    """The enumeration oracle keeps its budget: the commutant of the 5 x 5
    identity over GF(4) has 4^25 > SPAN_BUDGET members and is refused
    before any work (the span table builder is made to fail).  The
    conjugacy metric has none."""
    field = GF(2, 2)
    basis = commutant_basis(Matrix.identity(field, 5))
    assert field.q ** len(basis) > SPAN_BUDGET
    monkeypatch.setattr(linalg, "_span_table", None)
    with pytest.raises(BudgetError, match="4\\^25 members"):
        span_invertible_counts(basis)
    h = Matrix.from_packed(field, [[1, 1, 0, 0, 0],
                                   [0, 1, 0, 0, 0],
                                   [0, 0, 1, 0, 0],
                                   [0, 0, 0, 1, 0],
                                   [0, 0, 0, 0, 1]])
    group = PSLDescriptor(5, field)
    assert 0 < conjugacy_distance(Matrix.identity(field, 5), h, group).value < 1


def _enumerated_sizes(m):
    """(GL, SL, PSL) class sizes of m by the enumeration oracle: commutant
    spans counted by span_invertible_counts, and _unit_scalars_scan; SL and
    PSL only when det m = 1."""
    n, q = m.nrows, m.field.q
    invertible, det_one = span_invertible_counts(commutant_basis(m))
    sizes = [gl_order(n, q) // invertible]
    if m.det() == m.field.one:
        sizes += [sl_order(n, q) // det_one,
                  sl_order(n, q) // (det_one * _unit_scalars_scan(m))]
    return sizes


def _closed_form_sizes(m):
    tags = (GL, SL, PSL_REP) if m.det() == m.field.one else (GL,)
    return [class_size_matrix(ClassicalElement(m, tag)) for tag in tags]


SMALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def test_class_sizes_match_enumeration_on_all_of_sl2():
    """GL, SL and PSL sizes of every element of SL_2(q), q <= 9."""
    for p, e in SMALL_FIELDS:
        for m in enumerate_sl2(GF(p, e)):
            assert _closed_form_sizes(m) == _enumerated_sizes(m)


def test_class_sizes_match_enumeration_on_random_elements(rng):
    """Random GL and SL elements for n <= 4 wherever the commutant has at
    most 10^6 members."""
    checked = 0
    for p, e in SMALL_FIELDS:
        field = GF(p, e)
        for n in (2, 3, 4):
            for _ in range(3):
                for m in (random_invertible(n, field, rng),
                          random_sl(n, field, rng).matrix):
                    if field.q ** len(commutant_basis(m)) > 10**6:
                        continue
                    assert _closed_form_sizes(m) == _enumerated_sizes(m)
                    checked += 1
    assert checked > 100


def _jordan_sum(field, blocks):
    """diag(J_k(a) ...) for the (k, a) in blocks."""
    n = sum(k for k, _ in blocks)
    rows = [[0] * n for _ in range(n)]
    i = 0
    for k, a in blocks:
        for j in range(k):
            rows[i + j][i + j] = a
            if j + 1 < k:
                rows[i + j][i + j + 1] = field.one
        i += k
    return Matrix.from_packed(field, rows)


def _conjugated(m, rng):
    """P m P^-1 for a random P."""
    P = random_invertible(m.nrows, m.field, rng)
    return P @ m @ P.inverse()


def _jordan_twisted(field, blocks, rng):
    """P diag(J_k(a) ...) P^-1 for the (k, a) in blocks and a random P."""
    return _conjugated(_jordan_sum(field, blocks), rng)


def _twist_invariant_elements(rng):
    """Non-squarefree elements with lambda x ~ x for a unit lambda != 1:
    diag(J_2(a), J_2(-a)) of det 1 over GF(5) and GF(7), and diag(J_2(1),
    J_2(2), J_2(4)) over GF(7), whose twist by 2 permutes the blocks."""
    for p, a in ((5, 2), (5, 3), (7, 1)):
        field = GF(p)
        yield _jordan_twisted(field, [(2, a), (2, field.neg(a))], rng)
    yield _jordan_twisted(GF(7), [(2, 1), (2, 2), (2, 4)], rng)


def test_class_sizes_match_enumeration_on_twist_invariant_elements(rng):
    for m in _twist_invariant_elements(rng):
        sizes = _enumerated_sizes(m)
        assert sizes[2] < sizes[1]  # the PSL class is a proper merge
        assert _closed_form_sizes(m) == sizes


def test_conjugator_determinant_formula(rng):
    """A conjugator y with y x y^-1 = lambda x, found in the lambda-twisted
    commutant, has det in lambda^e (F^x)^g, e = sum n_i (n_i - 1) / 2 over
    the invariant-factor degrees n_i and g the gcd of all parts; and
    lambda^e is itself in (F^x)^g, so an SL conjugator exists whenever a
    GL one does, which is why class_size_matrix tests only the twist.
    diag(J_3(2), J_3(-2)) over GF(13) has odd g = 3 and lambda^e = -1."""
    elements = list(_twist_invariant_elements(rng))
    elements.append(_jordan_twisted(GF(13), [(3, 2), (3, 11)], rng))
    checked = 0
    for m in elements:
        field = m.field
        q = field.q
        data = _primary_partitions(m)
        g = math.gcd(q - 1, *(k for _, part in data.values() for k in part))
        degrees = [0] * max(len(part) for _, part in data.values())
        for f, (_, part) in data.items():
            for i, k in enumerate(part):
                degrees[i] += (len(f) - 1) * k
        lam_power = lambda lam: field.pow(lam, sum(d * (d - 1) // 2
                                                   for d in degrees))
        in_gth_powers = lambda a: field.pow(a, (q - 1) // g) == field.one
        for lam in field.roots_of_unity(m.nrows):
            basis = twisted_commutant_basis(m, lam)
            for _ in range(200):
                conj = Matrix.zeros(field, m.nrows, m.nrows)
                for b in basis:
                    conj = conj + b.scale(rng.randrange(q))
                if conj.is_invertible():
                    break
            else:
                continue
            assert conj @ m @ conj.inverse() == m.scale(lam)
            det = conj.det()
            assert in_gth_powers(field.mul(det, field.inv(lam_power(lam))))
            assert in_gth_powers(lam_power(lam)) and in_gth_powers(det)
            checked += 1
    assert checked >= 10
    # the last element, over GF(13), takes the odd-g branch
    assert lam_power(field.neg(field.one)) == field.neg(field.one) and g == 3


def test_class_size_matrix_makes_no_enumeration(monkeypatch, rng):
    """The closed form solves no commutant system, enumerates no span and
    scans no scalar shift, on every path: squarefree, repeated factors,
    and twisted PSL classes."""
    import msg_lab.linalg as linalg
    import msg_lab.metrics as metrics

    def refuse(*args, **kwargs):
        raise AssertionError("class_size_matrix enumerated")

    elements = list(_twist_invariant_elements(rng))
    elements += [random_sl(3, GF(7), rng).matrix,
                 Matrix.identity(GF(3, 2), 3),
                 _jordan_twisted(GF(2, 2), [(3, 1)], rng)]
    for name in ("commutant_basis", "twisted_commutant_basis",
                 "span_invertible_counts", "min_rank_shift"):
        monkeypatch.setattr(linalg, name, refuse)
        monkeypatch.setattr(metrics, name, refuse, raising=False)
    for m in elements:
        assert len(_closed_form_sizes(m)) == 3


def test_class_size_matrix_takes_no_gcd_at_a_scan_settled_charpoly(
        monkeypatch, rng):
    """Over GF(81) at n = 2 and GF(16) at n = 3 the root scan settles a
    squarefree charpoly, whose rootless part has degree <= 3: every class
    size of a PSL element with one is computed with psquarefree_part
    refused, and equals the size when no scan is made (the gcd path above
    the scan cap)."""
    from msg_lab import poly

    elements = []
    for n, field in ((2, GF(3, 4)), (3, GF(2, 4))):
        while sum(m.field == field for m in elements) < 12:
            m = random_sl(n, field, rng).matrix
            chi = charpoly(m)
            if poly.psquarefree_part(field, chi) == chi:
                elements.append(m)
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_scan_roots", lambda K, f: None)
        expected = [class_size_matrix(ClassicalElement(m, PSL_REP))
                    for m in elements]

    def refused(*args):
        raise AssertionError("psquarefree_part called")

    monkeypatch.setattr(poly, "psquarefree_part", refused)
    assert [class_size_matrix(ClassicalElement(m, PSL_REP))
            for m in elements] == expected


def test_class_size_matrix_serves_word_size_fields():
    """PSL_3(257), PSL_3(125), PSL_2(1031) and PSL_2(65537), each refused
    by the enumeration budget, are served.  [[0, 1], [-1, 1]] has order 6
    and an irreducible charpoly when q = 5 mod 6, so its centralizer in
    SL_2(q) is the torus of order q + 1; the 3-cycle has charpoly (T - 1)
    (T^2 + T + 1), irreducible when q = 2 mod 3, so its SL_3(q)
    centralizer has order q^2 - 1.  No twist applies: gcd(n, q - 1) = 1,
    or lambda = -1 sends T^2 - T + 1 to T^2 + T + 1."""
    cases = ((3, (257, 1), lambda q: q**3 * (q**3 - 1)),
             (3, (5, 3), lambda q: q**3 * (q**3 - 1)),
             (2, (1031, 1), lambda q: q * (q - 1)),
             (2, (65537, 1), lambda q: q * (q - 1)))
    for n, (p, e), expected in cases:
        field = GF(p, e)
        if n == 2:
            m = Matrix.from_packed(field, [[0, 1], [field.neg(1), 1]])
        else:
            m = Matrix.from_packed(field, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert class_size_matrix(ClassicalElement(m, PSL_REP)) == \
            expected(field.q)


def _macdonald_centralizer_order(part, q):
    """|C_GL(x)| for x primary with Jordan partition `part` (descending)
    over GF(q): q^(sum (2i - 1) part_i - sum m (m + 1) / 2) prod_(j <= m)
    (q^j - 1) over the part multiplicities m (Macdonald, Symmetric
    Functions, IV.2)."""
    mults = [part.count(k) for k in set(part)]
    return q ** (sum((2 * i + 1) * k for i, k in enumerate(part))
                 - sum(m * (m + 1) // 2 for m in mults)) * \
        math.prod(q**j - 1 for m in mults for j in range(1, m + 1))


def _partitions(n, cap=None):
    """The partitions of n with parts at most cap, descending."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _structure_order(q, structure):
    dim_j, factors = structure
    return q ** dim_j * math.prod(gl_order(m, q**d) ** count
                                  for d, m, count in factors)


def test_centralizer_structure_matches_macdonald_closed_form():
    """q^(dim J) prod |GL_m(q^d)|^count equals Macdonald's a_lambda(q^d)
    for every partition of n <= 8 at a factor of degree d = 1, 2, and a
    product of c simple factors of degree d gives (q^d - 1)^c."""
    checked = 0
    for q in (2, 3, 4, 5, 7, 9, 16):
        for d, P in ((1, (0, 1)), (2, (1, 0, 1))):
            for n in range(1, 9):
                for part in _partitions(n):
                    structure = gl_centralizer_structure({P: (d, part)})
                    assert _structure_order(q, structure) == \
                        _macdonald_centralizer_order(part, q**d)
                    checked += 1
            lumped = gl_centralizer_structure({(0,) * (3 * d) + (1,): (d, (1,))})
            assert lumped == (0, [(d, 1, 3)])
            assert _structure_order(q, lumped) == (q**d - 1) ** 3
        assert gl_order(8, q) == _macdonald_centralizer_order((1,) * 8, q)
    assert checked == 7 * 2 * 66


def _outside_the_constructors(rng):
    """(x, dim J or None) for elements no constructor of the package
    builds: transvections I + E_(0, n-1) (dim J = 2n - 3), the block
    element [[I_h, I_h], [0, I_h]] (dim J = h^2), direct sums of Jordan
    blocks, and [[C, I], [0, C]] (+ C) for the companion matrix C of an
    irreducible quadratic (dim J = 2, 6), each conjugated by a random P;
    and random elements."""
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        field = GF(p, e)
        one = field.one
        c0, c1 = next((c0, c1) for c0 in field.elements()
                      for c1 in field.elements()
                      if all(field.add(field.mul(t, field.add(t, c1)), c0)
                             for t in field.elements()))
        comp = Matrix.from_packed(field, [[0, field.neg(c0)],
                                          [1, field.neg(c1)]])
        block = Matrix.block2(comp, Matrix.identity(field, 2),
                              Matrix.zeros(field, 2, 2), comp)
        yield _conjugated(block, rng), 2
        yield _conjugated(Matrix.block2(block, Matrix.zeros(field, 4, 2),
                                        Matrix.zeros(field, 2, 4), comp),
                          rng), 6
        for n in range(2, 7):
            blocks = [(2, one)] + [(1, one)] * (n - 2)
            yield _jordan_twisted(field, blocks, rng), 2 * n - 3
        for h in (1, 2, 3):
            yield _jordan_twisted(field, [(2, one)] * h, rng), h * h
        a = field.neg(one) if p > 2 else one
        for blocks in ([(3, one), (1, one)], [(2, one), (2, a), (1, a)],
                       [(3, a), (2, a), (1, one)], [(4, one), (2, one)]):
            yield _jordan_twisted(field, blocks, rng), None
        for n in (2, 3, 4, 5):
            yield random_invertible(n, field, rng), None


def test_centralizer_structure_matches_the_commutant(rng):
    """dim J + sum d m^2 count is dim of the commutant from the n^2 x n^2
    solve, which reads no Jordan data; where q^dim fits SPAN_BUDGET the
    order q^(dim J) prod |GL_m(q^d)|^count is the number of invertible
    members of the commutant."""
    counted = 0
    for x, expect_j in _outside_the_constructors(rng):
        q = x.field.q
        structure = gl_centralizer_structure(_primary_partitions(x))
        dim_j, factors = structure
        if expect_j is not None:
            assert dim_j == expect_j
        basis = commutant_basis(x)
        assert dim_j + sum(d * m * m * count for d, m, count in factors) \
            == len(basis)
        if q ** len(basis) <= SPAN_BUDGET:
            assert _structure_order(q, structure) == \
                span_invertible_counts(basis)[0]
            counted += 1
    assert counted >= 40
