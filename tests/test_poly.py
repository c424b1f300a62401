import itertools
import random

from msg_lab import poly
from msg_lab.gf import GF

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
