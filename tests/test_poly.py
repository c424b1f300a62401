import itertools
import random

from msg_lab import poly
from msg_lab.gf import GF, Field
from msg_lab.linalg import Matrix, min_rank_shift

from conftest import FIELDS


def test_divmod_reconstructs(rng):
    for field in FIELDS:
        for _ in range(300):
            f = poly.pnorm([rng.randrange(field.q) for _ in range(6)])
            g = poly.pnorm([rng.randrange(field.q) for _ in range(4)])
            if poly.pdeg(g) < 0:
                continue
            q, r = poly.pdivmod(field, f, g)
            back = poly.padd(field, poly.pmul(field, q, g), r)
            assert back == poly.pnorm(f)
            assert poly.pdeg(r) < poly.pdeg(g)


def test_gcd_divides_both(rng):
    field = GF(5)
    for _ in range(300):
        f = poly.pnorm([rng.randrange(5) for _ in range(5)])
        g = poly.pnorm([rng.randrange(5) for _ in range(5)])
        d = poly.pgcd(field, f, g)
        if poly.pdeg(d) < 0:
            continue
        assert poly.pmod(field, f, d) == ()
        assert poly.pmod(field, g, d) == ()


def test_irreducibility_matches_root_search():
    """Degree <= 3 polynomials are irreducible iff they are nonconstant
    with no root (degree 1 always irreducible)."""
    field = GF(3)
    for c0 in range(3):
        for c1 in range(3):
            for c2 in range(3):
                f = poly.pnorm([c0, c1, c2, 1])
                has_root = any(poly.peval(field, f, a) == 0 for a in range(3))
                assert poly.pirreducible(field, f) == (not has_root)


def test_factor_t_cubed_minus_one_gf7():
    """T^3 - 1 over GF(7) splits as (T-1)(T-2)(T-4)."""
    field = GF(7)
    f = (6, 0, 0, 1)
    factors = poly.pfactor_distinct(field, f)
    assert sorted(factors) == [(3, 1), (5, 1), (6, 1)]


def test_factor_t_squared_minus_two_gf5_irreducible():
    field = GF(5)
    f = (3, 0, 1)  # T^2 - 2
    assert poly.pirreducible(field, f)
    assert poly.pfactor_distinct(field, f) == [(3, 0, 1)]


def test_factor_product_reassembles(rng):
    for field in [GF(2), GF(5), GF(3, 2)]:
        for k in (2, 3, 4, 5, 6):
            if k % field.p == 0:
                continue
            for _ in range(6):
                alpha = rng.randrange(1, field.q)
                f = poly.pnorm([field.neg(alpha)] + [0] * (k - 1) + [1])
                factors = poly.pfactor_distinct(field, f)
                prod = (field.one,)
                for g in factors:
                    assert poly.pirreducible(field, g)
                    prod = poly.pmul(field, prod, g)
                assert poly.pmonic(field, prod) == poly.pmonic(field, f)
                assert len(factors) <= k


def _monic_polys(field, degree):
    """Every monic polynomial of the given degree, in packed order."""
    for low in itertools.product(range(field.q), repeat=degree):
        yield tuple(low) + (field.one,)


def test_factor_distinct_matches_brute_divisors():
    """Every monic f of degree <= 4 over every field with q <= 9 against
    a sieve: degree by degree, the products of the irreducibles found so
    far are the composites, and every other monic polynomial of that
    degree is irreducible.  Each product is built once, from a multiset of
    irreducibles, whose distinct members are the expected factors.
    Multiplicities divisible by p are included: f / gcd(f, f') drops those
    factors (defect D1)."""
    for field in [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]:
        # degree -> (f, index of its last irreducible, its distinct factors),
        # multisets taken in non-decreasing index order
        built = {}
        irreducible = []
        for d in range(1, 5):
            built[d] = [(poly.pmul(field, f, g), k, factors | {g})
                        for k, g in enumerate(irreducible)
                        for f, last, factors in built[d - poly.pdeg(g)]
                        if last <= k]
            composite = {f for f, _, _ in built[d]}
            for f in _monic_polys(field, d):
                if f not in composite:
                    built[d].append((f, len(irreducible), frozenset([f])))
                    irreducible.append(f)
            assert len({f for f, _, _ in built[d]}) == len(built[d]) == field.q**d
            for f, _, factors in built[d]:
                assert poly.pfactor_distinct(field, f) == sorted(
                    factors, key=lambda g: (len(g), g))
    assert poly.pfactor_distinct(GF(2), (0, 0, 1, 1)) == [(0, 1), (1, 1)]
    assert (2, 1) in poly.pfactor_distinct(GF(2, 2), (3, 1, 2, 2, 1))


def test_factor_once_repeated_matches_multiplicities():
    """Every monic f of degree <= 5 over GF(2), GF(3) and GF(4): the
    distinct-degree blocks of pfactor_once_repeated multiply to the factors
    of multiplicity 1, each block of one degree, and the repeated list is
    the factors of multiplicity >= 2, counted by trial division; p-th
    powers (T^2 over GF(2), T^3 over GF(3)) are among them."""
    for field in [GF(2), GF(3), GF(2, 2)]:
        for d in range(1, 6):
            for f in _monic_polys(field, d):
                mult = {}
                for g in poly.pfactor_distinct(field, f):
                    rest = f
                    while not poly.pmod(field, rest, g):
                        mult[g] = mult.get(g, 0) + 1
                        rest = poly.pdivmod(field, rest, g)[0]
                once, repeated = poly.pfactor_once_repeated(field, f)
                assert repeated == [g for g in mult if mult[g] > 1]
                prod = (field.one,)
                for block, k in once:
                    assert {poly.pdeg(g) for g in
                            poly.pfactor_distinct(field, block)} == {k}
                    prod = poly.pmul(field, prod, block)
                assert poly.pfactor_distinct(field, prod) == [
                    g for g in mult if mult[g] == 1]


def test_scan_settled_factorizations_match_the_gcd_path(monkeypatch):
    """Every monic f of degree 1 to 5 over GF(2), GF(3) and GF(4):
    pfactor_distinct and pfactor_once_repeated give what they give with
    _scan_roots forced to None, where psquarefree_part's gcd(f, f') always
    runs.  With the scan, it runs for some f and not for others: the
    squarefree f whose roots are simple and whose rootless rest has degree
    <= 3 are settled by the scan alone."""
    cases = [(field, f) for field in (GF(2), GF(3), GF(2, 2))
             for d in range(1, 6) for f in _monic_polys(field, d)]

    def both(field, f):
        return (poly.pfactor_distinct(field, f),
                poly.pfactor_once_repeated(field, f))

    with monkeypatch.context() as patch:
        patch.setattr(poly, "_scan_roots", lambda K, f: None)
        expected = [both(field, f) for field, f in cases]
    calls = []
    radical = poly.psquarefree_part

    def counted(K, f):
        calls.append(f)
        return radical(K, f)

    monkeypatch.setattr(poly, "psquarefree_part", counted)
    assert [both(field, f) for field, f in cases] == expected
    assert 0 < len(calls) < 2 * len(cases)


# -- scalar-Field reference arithmetic ---------------------------------------
# pmul, pdivmod and ppowmod as they were before the row kernel: one scalar
# Field call per coefficient operation, ppowmod right to left with a full
# division per step.


def _ref_pmul(K, f, g):
    if not f or not g:
        return ()
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == K.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return poly.pnorm(out)


def _ref_pdivmod(K, f, g):
    if len(f) < len(g):
        return (), f
    rem = list(f)
    inv_lead = K.inv(g[-1])
    quot = [K.zero] * (len(f) - len(g) + 1)
    for shift in range(len(f) - len(g), -1, -1):
        c = rem[shift + len(g) - 1]
        if c == K.zero:
            continue
        factor = K.mul(c, inv_lead)
        quot[shift] = factor
        for i, b in enumerate(g):
            rem[shift + i] = K.sub(rem[shift + i], K.mul(factor, b))
    return poly.pnorm(quot), poly.pnorm(rem)


def _ref_ppowmod(K, base, exp, mod):
    result = (K.one,)
    base = _ref_pdivmod(K, base, mod)[1]
    while exp > 0:
        if exp & 1:
            result = _ref_pdivmod(K, _ref_pmul(K, result, base), mod)[1]
        base = _ref_pdivmod(K, _ref_pmul(K, base, base), mod)[1]
        exp >>= 1
    return result


def _ref_combine(op, K, f, g):
    size = max(len(f), len(g))
    f = list(f) + [K.zero] * (size - len(f))
    g = list(g) + [K.zero] * (size - len(g))
    return poly.pnorm([op(a, b) for a, b in zip(f, g)])


# prime fields inline mod p, small and word-sized; extension fields on the
# pair tables, char 2 and odd; GF(2^11) above gf._PAIR_TABLE_MAX, where the
# kernel calls the scalar operations
_KERNEL_FIELDS = [GF(2), GF(7), GF(2, 2), GF(3, 2), GF(3, 4), GF(2, 11),
                  GF(2**31 - 1)]


def _rand_poly(field, degree, rng, lead=None):
    """A polynomial of exactly this degree; lead, if given, on top."""
    if degree < 0:
        return ()
    top = lead if lead is not None else rng.randrange(1, field.q)
    return tuple(rng.randrange(field.q) for _ in range(degree)) + (top,)


# both sides of gf._PAIR_TABLE_MAX: the scan over every element below it,
# inline mod p and on the pair tables; gcd with T^(q-1) - 1 and
# equal-degree splitting above it, odd and char 2
_ROOT_FIELDS = [GF(2), GF(3, 2), GF(2, 6), GF(1021), GF(1031), GF(2, 11)]


def test_proots_match_evaluation_at_every_element(rng):
    """proots(f) lists the a in F with f(a) = 0, ascending: for random
    non-monic f of degree 0 to 6, and for f = u T^z prod (T - a_i)^(m_i)
    with u random of degree up to 2, z from 0 to 2 and m_i from 1 to 3,
    so that roots repeat and 0 is one of them."""
    for field in _ROOT_FIELDS:
        cases = [_rand_poly(field, rng.randrange(0, 7), rng) for _ in range(6)]
        for z in (0, 1, 2, 0, 1, 2):
            f = poly.pmul(field, _rand_poly(field, rng.randrange(0, 3), rng),
                          (0,) * z + (field.one,))
            for _ in range(rng.randrange(1, 5)):
                linear = (field.neg(rng.randrange(field.q)), field.one)
                for _ in range(rng.randrange(1, 4)):
                    f = poly.pmul(field, f, linear)
            cases.append(f)
        for f in cases:
            assert poly.proots(field, f) == [
                a for a in field.elements() if poly.peval(field, f, a) == 0]


def test_row_kernel_matches_scalar_reference(rng):
    """padd, psub, pmul, pdivmod and ppowmod equal the scalar-Field
    reference over every field of _KERNEL_FIELDS: zero and constant
    operands, non-monic divisors and moduli, bases of degree at least
    that of the modulus, and exponents 0, 1, q - 1 and random large."""
    for field in _KERNEL_FIELDS:
        non_monic = field.q - 1 if field.q > 2 else 1
        for trial in range(30):
            f = _rand_poly(field, rng.randrange(-1, 9), rng)
            g = _rand_poly(field, rng.randrange(0, 5), rng,
                           lead=non_monic if trial % 2 else None)
            assert poly.padd(field, f, g) == _ref_combine(field.add, field, f, g)
            assert poly.psub(field, f, g) == _ref_combine(field.sub, field, f, g)
            assert poly.pmul(field, f, g) == _ref_pmul(field, f, g)
            assert poly.pdivmod(field, f, g) == _ref_pdivmod(field, f, g)
            mod = _rand_poly(field, rng.randrange(0, 6), rng,
                             lead=non_monic if trial % 3 else None)
            base = _rand_poly(field, poly.pdeg(mod) + rng.randrange(0, 4), rng)
            for exp in (0, 1, 2, field.q - 1, field.q, rng.randrange(2**40)):
                assert (poly.ppowmod(field, base, exp, mod)
                        == _ref_ppowmod(field, base, exp, mod))
            assert poly.ppowmod(field, (0, 1), field.q - 1, mod) == \
                _ref_ppowmod(field, (0, 1), field.q - 1, mod)


def test_ppowmod_squares_and_multiplies_left_to_right(monkeypatch):
    """ppowmod makes bit_length - 1 squarings and popcount - 1 products
    with the base, and no division: x^(q - 1) mod a cubic over GF(7) and
    GF(9)."""
    calls = []
    product = poly._product

    def counted(axpy, f, g):
        calls.append("square" if f is g else "product")
        return product(axpy, f, g)

    # the fields first: validating a modulus runs Rabin's test, which divides
    cases = ((GF(7), 6), (GF(3, 2), 8), (GF(7), 2**20 + 5))
    monkeypatch.setattr(poly, "_product", counted)
    monkeypatch.setattr(poly, "pdivmod", None)
    for field, exp in cases:
        mod = (1, 2, 0, 1)
        del calls[:]
        got = poly.ppowmod(field, (0, 1), exp, mod)
        assert got == _ref_ppowmod(field, (0, 1), exp, mod)
        # one product by 1 reduces the base before the bits
        assert calls.count("square") == exp.bit_length() - 1
        assert calls.count("product") == 1 + bin(exp).count("1") - 1


def test_prime_field_builds_no_pair_tables():
    """Over a prime field the kernel is inline mod p: no pair tables,
    which would hold q^2 entries, are built by the polynomial arithmetic
    or by a projective rank over a fresh GF(1021), and no inverse table
    either, since neither reads the kernel's arrays."""
    field = Field(1021, 1, (0, 1))
    f = (5, 0, 1020, 3, 1)
    assert poly.pfactor_distinct(field, f) == poly.pfactor_distinct(GF(1021), f)
    assert poly.ppowmod(field, (0, 1), 1020, f) == \
        _ref_ppowmod(field, (0, 1), 1020, f)
    g = Matrix.from_packed(field, [[1, 2, 3], [0, 5, 6], [7, 0, 9]])
    assert min_rank_shift(g, Matrix.identity(field, 3)) == \
        min_rank_shift(Matrix.from_packed(GF(1021), g.rows),
                       Matrix.identity(GF(1021), 3))
    assert field._kernel is not None
    assert field._pair_tables is None and field._inv_table is None


def test_row_kernel_built_once_per_field(monkeypatch):
    """Field.kernel is built on first use and kept: gcds, products and
    powers over a fresh GF(9), and matrix sums, products and eliminations,
    read the pair tables once, not per call."""
    field = Field(3, 2, GF(3, 2).modulus)
    f, g = (1, 2, 0, 1), (4, 1, 1)
    expected = (poly.pgcd(GF(3, 2), f, g), poly.pmul(GF(3, 2), f, g),
                poly.ppowmod(GF(3, 2), (0, 1), 9, f))
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 0]]

    def matrix_ops(m):
        return (m @ m + m - m.scale(2)).rref()

    expected_m = matrix_ops(Matrix.from_packed(GF(3, 2), rows))
    calls = []
    tables = Field.pair_tables

    def counted(self):
        calls.append(self)
        return tables(self)

    monkeypatch.setattr(Field, "pair_tables", counted)
    m = Matrix.from_packed(field, rows)
    for _ in range(3):
        assert (poly.pgcd(field, f, g), poly.pmul(field, f, g),
                poly.ppowmod(field, (0, 1), 9, f)) == expected
        reduced, pivots = matrix_ops(m)
        assert (reduced.rows, pivots) == (expected_m[0].rows, expected_m[1])
    assert field.kernel() is field.kernel()
    assert sum(c is field for c in calls) == 1


# both sides of gf._PAIR_TABLE_MAX for the factorizations: the root scan
# gives the linear factors at GF(2), GF(9), GF(64) and GF(1021); gcd with
# T^q - T and equal-degree splitting give them at GF(1031) and GF(2^11)
_FACTOR_FIELDS = [GF(2), GF(3, 2), GF(2, 6), GF(1021), GF(1031), GF(2, 11)]


def _irreducible(field, d, rng, avoid=()):
    """A random monic irreducible of degree d not in avoid, checked by
    pirreducible (a random monic polynomial of degree d is irreducible
    with chance about 1/d)."""
    while True:
        g = _rand_poly(field, d, rng, lead=field.one)
        if g not in avoid and poly.pirreducible(field, g):
            return g


def _known_irreducibles(field, rng):
    """Distinct monic irreducibles: T, one more linear factor, and random
    ones of degree 2, 3, 3 and 4."""
    found = [(0, 1), (field.neg(rng.randrange(1, field.q)), field.one)]
    for d in (2, 3, 3, 4):
        found.append(_irreducible(field, d, rng, found))
    return found


def test_factorizations_match_known_irreducibles(rng):
    """f = prod g^m over known monic irreducibles g, T always among them,
    with multiplicities 1, 2 and 3, so p-th powers where p is 2 or 3
    (every f of an odd trial is squarefree).  pfactor_distinct returns the
    distinct g; the blocks of pfactor_once_repeated are monic, one degree
    each, and multiply to the product of the g of multiplicity 1; repeated
    lists those of multiplicity >= 2."""
    for field in _FACTOR_FIELDS:
        for trial in range(8):
            known = _known_irreducibles(field, rng)
            chosen = [g for g in known if g == (0, 1) or rng.random() < 0.6]
            mult = {g: rng.choice((1, 2, 3)) for g in chosen}
            if trial % 2:
                mult = dict.fromkeys(chosen, 1)
            f = (field.one,)
            for g, m in mult.items():
                for _ in range(m):
                    f = poly.pmul(field, f, g)
            key = lambda g: (len(g), g)
            assert poly.pfactor_distinct(field, f) == sorted(mult, key=key)
            once, repeated = poly.pfactor_once_repeated(field, f)
            assert repeated == sorted((g for g in mult if mult[g] > 1), key=key)
            prod = (field.one,)
            for block, d in once:
                assert block[-1] == field.one
                assert {poly.pdeg(g) for g in
                        poly.pfactor_distinct(field, block)} == {d}
                prod = poly.pmul(field, prod, block)
            assert len({d for _, d in once}) == len(once)
            single = (field.one,)
            for g in mult:
                if mult[g] == 1:
                    single = poly.pmul(field, single, g)
            assert prod == single


def test_squarefree_cubic_over_gf64_takes_no_power(monkeypatch, rng):
    """Over GF(64) the root scan gives the linear factors, so a squarefree
    cubic (three roots, one root and an irreducible quadratic, or
    irreducible) is factored by pfactor_distinct and pfactor_once_repeated
    with no ppowmod call."""
    field = GF(2, 6)
    linear = sorted((a, 1) for a in rng.sample(range(field.q), 3))
    quadratic, cubic = _irreducible(field, 2, rng), _irreducible(field, 3, rng)
    split = poly.pmul(field, poly.pmul(field, linear[0], linear[1]), linear[2])
    # (f, pfactor_distinct, blocks of pfactor_once_repeated)
    cases = [
        (split, linear, [(split, 1)]),
        (poly.pmul(field, linear[0], quadratic), [linear[0], quadratic],
         [(linear[0], 1), (quadratic, 2)]),
        (cubic, [cubic], [(cubic, 3)]),
    ]
    calls = []
    power = poly.ppowmod

    def counted(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(poly, "ppowmod", counted)
    for f, factors, blocks in cases:
        assert poly.pfactor_distinct(field, f) == factors
        assert poly.pfactor_once_repeated(field, f) == (blocks, [])
    assert calls == []
