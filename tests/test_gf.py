import random
import time

import numpy as np
import pytest

from msg_lab import gf, poly
from msg_lab.gf import GF, Field, find_irreducible

from conftest import FIELDS

SMALL = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2), GF(5, 2), GF(2, 5)]


def test_axioms_exhaustive_small_fields():
    """Associativity, distributivity, inverses for every triple, q <= 49."""
    for field in SMALL:
        if field.q > 49:
            continue
        elems = list(field.elements())
        assert len(elems) == field.q
        for a in elems:
            assert field.add(a, field.zero) == a
            assert field.mul(a, field.one) == a
            assert field.add(a, field.neg(a)) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
            for b in elems:
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                assert field.sub(a, b) == field.add(a, field.neg(b))
                for c in elems:
                    assert field.add(field.add(a, b), c) == \
                        field.add(a, field.add(b, c))
                    assert field.mul(field.mul(a, b), c) == \
                        field.mul(a, field.mul(b, c))
                    assert field.mul(a, field.add(b, c)) == \
                        field.add(field.mul(a, b), field.mul(a, c))


def test_axioms_randomized_larger_field():
    field = GF(2, 6)
    rng = random.Random(11)
    for _ in range(10**4):
        a = rng.randrange(field.q)
        b = rng.randrange(field.q)
        c = rng.randrange(field.q)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_frobenius_additive():
    for field in SMALL:
        if field.q > 49:
            continue
        for a in field.elements():
            for b in field.elements():
                left = field.pow(field.add(a, b), field.p)
                right = field.add(field.pow(a, field.p), field.pow(b, field.p))
                assert left == right


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_multiplicative_group_cyclic():
    """A generator of order exactly q - 1 exists; checked independently of
    the library's own generator search, on both sides of _TABLE_MAX."""
    for field in [GF(2), GF(7), GF(101), GF(2, 4), GF(3, 4), GF(2, 10),
                  GF(3, 7), GF(65537), GF(2, 17)]:
        n = field.q - 1
        assert len(list(field.nonzero_elements())) == n
        g = field.multiplicative_generator()
        assert field.pow(g, n) == field.one
        for r in _prime_divisors(n):
            assert field.pow(g, n // r) != field.one
        if field.q <= 2**10:
            # the smallest one: no smaller element has order q - 1
            for h in range(1, g):
                assert any(field.pow(h, n // r) == field.one
                           for r in _prime_divisors(n))


def test_find_irreducible_known_values():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)


def test_worked_arithmetic_examples():
    f5 = GF(5)
    assert f5.add(2, 4) == 1
    f7 = GF(7)
    assert f7.inv(3) == 5
    f4 = GF(2, 2, modulus=(1, 1, 1))
    t = f4.from_coeffs((0, 1))
    assert f4.mul(t, t) == f4.from_coeffs((1, 1))


def test_field_validation():
    """Each check of the Field constructor, with its message; the cap
    check does not form p^e for a huge e.  GF runs the same checks."""
    cases = [((4, 1, (0, 1)), "characteristic 4 is not prime"),
             ((2, 0, (1,)), "extension degree 0 < 1"),
             ((2, -1, ()), "extension degree -1 < 1"),
             ((2, 31, (1,) * 32), r"field order 2\^31 exceeds cap"),
             ((2, 10**12, (1,)), r"field order 2\^1000000000000 exceeds"),
             ((3, 2, (1, 1)), r"modulus length 2 != e \+ 1 = 3"),
             ((3, 2, (1, 3, 1)), r"coefficients must lie in \[0, p\)"),
             ((3, 2, (1, 0, 2)), "modulus must be monic"),
             ((3, 2, (2, 0, 1)), "reducible over GF"),
             ((2, 2, (0, 0, 1)), "reducible over GF")]  # t^2
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            Field(*args)
    with pytest.raises(ValueError, match="reducible over GF"):
        GF(5, 2, modulus=(4, 0, 1))  # t^2 - 1 = (t-1)(t+1)
    field = Field(3, 2, (1, 0, 1))
    assert (field.p, field.e, field.q, field.modulus) == (3, 2, 9, (1, 0, 1))
    # GF returns one Field per (p, e, modulus); a Field built directly is
    # equal to it, with the same hash
    assert GF(3, 2, modulus=(1, 0, 1)) is GF(3, 2, modulus=[1, 0, 1])
    assert field == GF(3, 2, modulus=(1, 0, 1))
    assert hash(field) == hash((3, 2, (1, 0, 1)))
    assert field != Field(3, 2, (2, 2, 1))


def test_gf_checks_the_order_before_the_search(monkeypatch):
    """GF refuses e < 1 and orders at or past the cap with ValueError
    before find_irreducible searches, within 1 s each."""
    def fail(*args):
        raise AssertionError("modulus search ran")

    monkeypatch.setattr(poly, "pirreducible", fail)
    for args in ((2, 400), (2, 0), (2, -1), (3, 20), (2147483659, 2)):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            GF(*args)
        assert time.perf_counter() - start < 1.0


def test_repeated_gf_is_a_lookup(monkeypatch):
    """A repeated GF(3, 2) returns the same Field without checking its
    modulus again, also when the modulus comes as a list; input that fails
    validation raises ValueError on every call."""
    field = GF(3, 2)
    modulus = list(field.modulus)

    def fail(*args):
        raise AssertionError("modulus checked again")

    monkeypatch.setattr(poly, "pirreducible", fail)
    assert GF(3, 2) is field
    assert GF(3, 2, modulus=modulus) is field
    monkeypatch.undo()
    for _ in range(2):
        with pytest.raises(ValueError):
            GF(5, 2, modulus=[4, 0, 1])
        with pytest.raises(ValueError):
            GF(4)


def test_modulus_check_matches_root_scan_in_degrees_2_and_3():
    """A monic polynomial of degree 2 or 3 is reducible exactly when it
    has a root: the Field constructor, which asks Rabin's test (poly.pirreducible),
    accepts every such modulus over GF(2), GF(3), GF(5), GF(7) and GF(11)
    exactly when a scan over the p values finds no root."""
    import itertools

    for p in (2, 3, 5, 7, 11):
        for e in (2, 3):
            accepted = 0
            for low in itertools.product(range(p), repeat=e):
                modulus = low + (1,)
                has_root = any(
                    sum(c * a**i for i, c in enumerate(modulus)) % p == 0
                    for a in range(p))
                if has_root:
                    with pytest.raises(ValueError, match="reducible"):
                        Field(p, e, modulus)
                else:
                    assert Field(p, e, modulus).q == p**e
                    accepted += 1
            # the number of monic irreducibles: (p^2 - p)/2, (p^3 - p)/3
            assert accepted == (p**e - p) // e


def test_coeffs_round_trip():
    for field in FIELDS:
        for a in field.elements():
            cs = field.coeffs(a)
            assert len(cs) == field.e
            assert all(0 <= c < field.p for c in cs)
            assert field.from_coeffs(cs) == a


def test_inv_table():
    for field in [GF(7), GF(3, 2), GF(2, 4)]:
        table = field.inv_table()
        for a in field.nonzero_elements():
            assert field.mul(a, int(table[a])) == field.one


def test_packed_tables_match_scalar_ops():
    for field in [GF(5), GF(3, 2), GF(2, 3)]:
        add_t, mul_t = field.packed_tables()
        for a in field.elements():
            for b in field.elements():
                assert int(add_t[a, b]) == field.add(a, b)
                assert int(mul_t[a, b]) == field.mul(a, b)
    for big in (GF(2, 11), GF(3, 7)):
        for tables in (big.pair_tables, big.packed_tables):
            with pytest.raises(ValueError):
                tables()


def _digit_add(field, a, b, sign=1):
    """a + sign b, coefficient by coefficient mod p."""
    return field.from_coeffs((x + sign * y) % field.p
                             for x, y in zip(field.coeffs(a), field.coeffs(b)))


def _check_add_neg_sub(field, a, b):
    assert field.add(a, b) == _digit_add(field, a, b)
    assert field.sub(a, b) == _digit_add(field, a, b, sign=-1)
    assert field.neg(a) == _digit_add(field, field.zero, a, sign=-1)


def test_char2_add_neg_sub_match_digit_arithmetic():
    for e in range(1, 7):
        field = GF(2, e)
        for a in field.elements():
            for b in field.elements():
                _check_add_neg_sub(field, a, b)
    big = GF(2, 20)
    rng = random.Random(2020)
    for _ in range(2000):
        _check_add_neg_sub(big, rng.randrange(big.q), rng.randrange(big.q))


def test_pow_agrees_with_repeated_mul():
    field = GF(3, 2)
    for a in field.elements():
        acc = field.one
        for k in range(9):
            assert field.pow(a, k) == acc
            acc = field.mul(acc, a)


def test_pow_negative_exponent_inverts(rng):
    """a^-k a^k = 1, and a^-(q-1) = 1, over GF(7), GF(3^2) and GF(2^17),
    the last above the exp/log table cap."""
    for field in (GF(7), GF(3, 2), GF(2, 17)):
        samples = [1, field.q - 1] + [rng.randrange(1, field.q)
                                      for _ in range(20)]
        for a in samples:
            for k in (1, 2, 5, field.q - 2):
                assert field.mul(field.pow(a, -k), field.pow(a, k)) == field.one
            assert field.pow(a, 1 - field.q) == field.one


def test_inv_above_table_cap_extension_field(rng):
    """Above _TABLE_MAX with e > 1, inv is a^(q-2) by _mul_direct: a inv(a)
    = 1 on sampled a in GF(2^17)."""
    field = GF(2, 17)
    assert field.q > gf._TABLE_MAX
    for a in [1, 2, field.q - 1] + [rng.randrange(1, field.q)
                                    for _ in range(50)]:
        assert field.mul(a, field.inv(a)) == field.one


def test_roots_of_unity_match_full_scan():
    """The n-th roots of unity are the lambda in F^x with lambda^n = 1, in
    ascending order, and there are gcd(n, q - 1) of them, also above the
    exp/log table cap."""
    for field in FIELDS + [GF(2, 3), GF(13), GF(2, 4)]:
        for n in range(1, 13):
            scan = [a for a in field.nonzero_elements()
                    if field.pow(a, n) == field.one]
            assert field.roots_of_unity(n) == scan
    big = GF(2**31 - 1)
    assert big.roots_of_unity(2) == [1, big.q - 1]
    cube = big.roots_of_unity(3)
    assert len(set(cube)) == 3 and cube == sorted(cube)
    assert all(big.pow(a, 3) == 1 for a in cube)


def test_generator_searched_once_per_field(monkeypatch):
    """multiplicative_generator keeps its result on the Field, above the
    exp/log table cap too: repeated generator and roots_of_unity calls on
    a fresh GF(2^31 - 1) search once, and the values are the ones the
    search gave on every call before (q = 65537 read exp[1] of the tables).
    roots_of_unity computes once per order g = gcd(n, q - 1), n = 7 and
    n = 35 sharing g = 7, and a caller that changes the list it got leaves
    the next call's list as it was."""
    searches = []
    search = Field._generator_search

    def counted(self):
        searches.append(self.q)
        return search(self)

    monkeypatch.setattr(Field, "_generator_search", counted)
    big = Field(2**31 - 1, 1, (0, 1))
    seventh = [1, 894255406, 1205362885, 1537170743, 1599590586, 1600955193,
               1752599774]
    for _ in range(3):
        assert big.multiplicative_generator() == 7
        assert big.roots_of_unity(2) == [1, big.q - 1]
        assert big.roots_of_unity(3) == [1, 634005911, 1513477735]
        assert big.roots_of_unity(7) == seventh
        assert big.roots_of_unity(35) == seventh
    assert searches == [big.q]
    mid = Field(65537, 1, (0, 1))
    for _ in range(3):
        assert mid.multiplicative_generator() == 3 == mid._tables()[0][1]
        assert mid.roots_of_unity(2) == [1, 65536]
        assert mid.roots_of_unity(3) == [1]
    assert searches == [big.q, mid.q]

    powers = []

    def counted_pow(self, a, k):
        powers.append(k)
        return gf.power(self.mul, a, k)

    monkeypatch.setattr(Field, "pow", counted_pow)
    small = Field(7, 1, (0, 1))
    for n in (3, 6, 9, 2, 4):
        small.roots_of_unity(n)
    # g = 3 once (n = 3, 9), g = 6 once, g = 2 once (n = 2, 4): one power
    # of the generator and g powers of zeta each time
    assert len(powers) == (1 + 3) + (1 + 6) + (1 + 2)
    got = small.roots_of_unity(3)
    got.append(5)
    got[0] = 0
    assert small.roots_of_unity(3) == [1, 2, 4]


def test_zero_inverse_rejected():
    for field in FIELDS:
        with pytest.raises(Exception):
            field.inv(field.zero)


# Field.kernel() against the scalar Field operations.  Every element (and
# pair, and triple for fma) of the small fields, random rows over the
# larger ones: inline mod p (GF(2), GF(7), GF(2^31 - 1)), the pair tables
# (GF(4), GF(9), GF(3^4)) and the scalar operations (GF(2^11), GF(3^7)).
KERNEL_EXHAUSTIVE = [GF(2), GF(7), GF(2, 2), GF(3, 2)]
KERNEL_RANDOM = [GF(3, 4), GF(2, 11), GF(3, 7), GF(2**31 - 1)]


def _ref_matmul(field, A, B, ncols):
    out = []
    for row in A:
        sums = []
        for j in range(ncols):
            acc = field.zero
            for a, brow in zip(row, B):
                acc = field.add(acc, field.mul(a, brow[j]))
            sums.append(acc)
        out.append(tuple(sums))
    return tuple(out)


def _ref_pivot(field, R, r, c, reduce_up):
    inv = field.inv(R[r][c])
    top = [field.mul(inv, v) for v in R[r]]
    out = []
    for i, row in enumerate(R):
        if i == r:
            out.append(top)
        elif reduce_up or i > r:
            out.append([field.sub(v, field.mul(row[c], t))
                        for v, t in zip(row, top)])
        else:
            out.append(list(row))
    return out


def _pivot_input(field, rows, cols, r, c, value, rng):
    """A rows x cols list of row lists, zero left of column c from row r
    down, with value at (r, c) and random entries elsewhere."""
    R = [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]
    for row in R[r:]:
        row[:c] = [0] * c
    R[r][c] = value
    return R


def _check_kernel_rows(field, ys, xs, scalars, rng):
    """axpy, add, sub, scale, neg, mul and arrays on the rows ys and xs of
    equal length, at every scalar in scalars."""
    k = field.kernel()
    width = int(len(ys) ** 0.5) or 1
    A = [tuple(ys[i:i + width]) for i in range(0, len(ys), width)]
    B = [tuple(xs[i:i + width]) for i in range(0, len(xs), width)]
    assert k.add(A, B) == tuple(tuple(map(field.add, a, b)) for a, b in zip(A, B))
    assert k.sub(A, B) == tuple(tuple(map(field.sub, a, b)) for a, b in zip(A, B))
    assert [k.neg(y) for y in ys] == [field.neg(y) for y in ys]
    assert list(map(k.mul, ys, xs)) == list(map(field.mul, ys, xs))
    for c in scalars:
        assert k.axpy(ys, c, xs) == [field.add(y, field.mul(c, x))
                                     for y, x in zip(ys, xs)]
        assert k.axpy(ys[:3], c, xs) == k.axpy(ys, c, xs)[:3]
        assert k.scale(c, A) == tuple(tuple(field.mul(c, v) for v in row)
                                      for row in A)
    mul, fma, inv = k.arrays()
    a, b = np.array(ys, dtype=np.int64), np.array(xs, dtype=np.int64)
    assert mul(a, b).tolist() == list(map(field.mul, ys, xs))
    x = np.array([rng.randrange(field.q) for _ in ys], dtype=np.int64)
    assert fma(x, a, b).tolist() == [field.add(int(v), field.mul(y, w))
                                     for v, y, w in zip(x, ys, xs)]
    nonzero = [y for y in ys if y]
    assert inv(np.array(nonzero, dtype=np.int64)).tolist() == \
        [field.inv(y) for y in nonzero]
    assert k.arrays() is k.arrays()


def _check_kernel_matrices(field, rng, values):
    """matmul on every shape up to 6 x 6 by 6 x 6, zero dimensions and
    1, 2 and 3 right-hand columns included, and pivot at every pivot
    value in values, both ways."""
    k = field.kernel()
    for rows, inner, ncols in [(0, 3, 3), (3, 0, 3), (2, 3, 0)] + [
            (rng.randrange(1, 7), rng.randrange(1, 7), ncols)
            for ncols in (1, 2, 3, 4, 6) for _ in range(4)]:
        A = [tuple(rng.randrange(field.q) for _ in range(inner))
             for _ in range(rows)]
        B = [tuple(rng.randrange(field.q) for _ in range(ncols))
             for _ in range(inner)]
        assert k.matmul(A, B, ncols) == _ref_matmul(field, A, B, ncols)
    for value in values:
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        r, c = rng.randrange(rows), rng.randrange(cols)
        for reduce_up in (True, False):
            R = _pivot_input(field, rows, cols, r, c, value, rng)
            expected = _ref_pivot(field, R, r, c, reduce_up)
            k.pivot(R, r, c, reduce_up)
            assert R == expected


def test_kernel_exhaustive_small_fields(rng):
    """Every kernel member over GF(2), GF(7), GF(4) and GF(9): axpy and
    scale at every scalar on the rows of all pairs (a, b), add, sub, neg,
    the scalar mul and the array mul, fma and inv on all of them, the q x q matrices of all
    pairs multiplied, and a pivot at every nonzero pivot value."""
    for field in KERNEL_EXHAUSTIVE:
        elems = list(field.elements())
        ys = [a for a in elems for _ in elems]
        xs = [b for _ in elems for b in elems]
        _check_kernel_rows(field, ys, xs, elems, rng)
        k = field.kernel()
        mul, fma, _ = k.arrays()
        triples = np.array(list(np.ndindex(field.q, field.q, field.q)))
        assert fma(*triples.T).tolist() == [
            field.add(int(x), field.mul(int(a), int(b))) for x, a, b in triples]
        square = [tuple(xs[i:i + field.q]) for i in range(0, len(xs), field.q)]
        assert k.matmul(square, square, field.q) == \
            _ref_matmul(field, square, square, field.q)
        _check_kernel_matrices(field, rng, list(field.nonzero_elements()) * 3)


def test_kernel_random_rows_larger_fields(rng):
    """Every kernel member on random rows over GF(3^4), GF(2^11), GF(3^7)
    and GF(2^31 - 1), and GF(2^31 - 1) products on both sides of the
    64-bit slot limit: (p - 1)^2 times an inner dimension of 4 fits, of 5
    does not."""
    for field in KERNEL_RANDOM:
        ys = [rng.randrange(field.q) for _ in range(64)] + [0, 1, field.q - 1]
        xs = [rng.randrange(field.q) for _ in range(64)] + [field.q - 1] * 3
        scalars = [0, 1, field.q - 1] + [rng.randrange(field.q) for _ in range(5)]
        _check_kernel_rows(field, ys, xs, scalars, rng)
        values = [1, field.q - 1] + [rng.randrange(1, field.q) for _ in range(10)]
        _check_kernel_matrices(field, rng, values)
    big = GF(2**31 - 1)
    top = big.q - 1
    for inner in range(1, 8):
        for A in ([(top,) * inner] * 2,
                  [tuple(rng.randrange(big.q) for _ in range(inner))] * 2):
            B = [(top,) * 4] * inner
            assert big.kernel().matmul(A, B, 4) == _ref_matmul(big, A, B, 4)


def test_kernel_built_on_first_use_and_kept():
    """A Field builds no kernel, and a kernel no array tables, until asked:
    the kernel is made on the first kernel() call and kept, the packed
    tables wait for the first arrays() call, and the inverse table for
    the first array inverse, after which it is kept."""
    for gf_field in (GF(7), GF(3, 2), GF(2, 11)):
        field = Field(gf_field.p, gf_field.e, gf_field.modulus)
        assert field._kernel is None
        k = field.kernel()
        assert field.kernel() is k
        k.matmul([(1, 1)], [(1,), (1,)], 1)
        assert field._inv_table is None and field._packed_tables is None
        _, _, inv = k.arrays()
        assert field._inv_table is None
        assert (field._packed_tables is not None) == (
            field.e > 1 and field.q <= gf._PAIR_TABLE_MAX)
        assert inv(np.array([1], dtype=np.int64)).tolist() == [1]
        table = field._inv_table
        assert table is not None
        inv(np.array([1], dtype=np.int64))
        assert field._inv_table is table
