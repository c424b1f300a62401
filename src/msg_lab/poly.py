"""Dense univariate polynomial arithmetic over a finite field.

A polynomial is a tuple of packed field elements, index = degree, with no
trailing zeros; the zero polynomial is ().  The field argument `K` only
needs the scalar interface of gf.Field (add/sub/mul/inv/neg/pow, zero,
one, q, p, elements).  Sizes here are tiny (degree <= a few dozen), so
everything is plain Python.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Poly = Tuple[int, ...]


def pnorm(coeffs: Sequence[int]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(f: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def padd(K, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = K.add(out[i], c)
    return pnorm(out)


def pneg(K, f: Poly) -> Poly:
    return tuple(K.neg(c) for c in f)


def psub(K, f: Poly, g: Poly) -> Poly:
    return padd(K, f, pneg(K, g))


def pscale(K, f: Poly, s: int) -> Poly:
    if s == K.zero:
        return ()
    return pnorm([K.mul(c, s) for c in f])


def pmul(K, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == K.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return pnorm(out)


def pmonic(K, f: Poly) -> Poly:
    if not f:
        return ()
    lead = f[-1]
    if lead == K.one:
        return f
    return pscale(K, f, K.inv(lead))


def pdivmod(K, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
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
    return pnorm(quot), pnorm(rem)


def pmod(K, f: Poly, g: Poly) -> Poly:
    return pdivmod(K, f, g)[1]


def pgcd(K, f: Poly, g: Poly) -> Poly:
    """Monic gcd."""
    while g:
        f, g = g, pmod(K, f, g)
    return pmonic(K, f)


def ppowmod(K, base: Poly, exp: int, mod: Poly) -> Poly:
    result: Poly = (K.one,)
    base = pmod(K, base, mod)
    while exp > 0:
        if exp & 1:
            result = pmod(K, pmul(K, result, base), mod)
        base = pmod(K, pmul(K, base, base), mod)
        exp >>= 1
    return result


def peval(K, f: Poly, a: int) -> int:
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, a), c)
    return acc


def pderiv(K, f: Poly) -> Poly:
    out = []
    for i in range(1, len(f)):
        s = i % K.p
        c = f[i]
        acc = K.zero
        for _ in range(s):
            acc = K.add(acc, c)
        out.append(acc)
    return pnorm(out)


_X: Poly = (0, 1)


def pirreducible(K, f: Poly) -> bool:
    """Rabin's test: x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1
    for every prime r dividing d."""
    d = pdeg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == K.zero:  # divisible by x
        return False
    q = K.q
    powers = [pnorm((0, 1))]  # powers[i] = x^(q^i) mod f
    for _ in range(d):
        powers.append(ppowmod(K, powers[-1], q, f))
    if psub(K, powers[d], powers[0]):
        return False
    for r in _prime_divisors(d):
        g = pgcd(K, psub(K, powers[d // r], powers[0]), f)
        if pdeg(g) != 0:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
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


def _ddf(K, f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree factorization of a squarefree monic f: list of
    (product of all irreducible factors of degree d, d)."""
    out = []
    h = pnorm((0, 1))
    rem = f
    d = 0
    while pdeg(rem) >= 2 * (d + 1):
        d += 1
        h = ppowmod(K, h, K.q, rem)
        g = pgcd(K, psub(K, h, _X), rem)
        if pdeg(g) > 0:
            out.append((g, d))
            rem = pdivmod(K, rem, g)[0]
            h = pmod(K, h, rem)
    if pdeg(rem) > 0:
        out.append((rem, pdeg(rem)))
    return out


def _edf(K, f: Poly, d: int) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles.
    Deterministic: trial elements in packed order, so output order is
    reproducible."""
    if pdeg(f) == d:
        return [pmonic(K, f)]
    q = K.q
    if K.p != 2:
        m = (q**d - 1) // 2
        for c in K.elements():
            t = ppowmod(K, pnorm((c, 1)), m, f)
            g = pgcd(K, psub(K, t, (K.one,)), f)
            if 0 < pdeg(g) < pdeg(f):
                return _edf(K, g, d) + _edf(K, pdivmod(K, f, g)[0], d)
        raise AssertionError("equal-degree splitting failed (odd q)")
    # char 2: additive trace map over the F2-structure
    bits = d * (q.bit_length() - 1)  # q = 2^e, so q^d = 2^bits
    for j in range(1, pdeg(f)):
        for c in K.elements():
            if c == K.zero:
                continue
            u = pnorm([K.zero] * j + [c])  # c * x^j
            tr: Poly = ()
            term = pmod(K, u, f)
            for _ in range(bits):
                tr = padd(K, tr, term)
                term = pmod(K, pmul(K, term, term), f)
            g = pgcd(K, tr, f)
            if 0 < pdeg(g) < pdeg(f):
                return _edf(K, g, d) + _edf(K, pdivmod(K, f, g)[0], d)
    raise AssertionError("equal-degree splitting failed (char 2)")


def psquarefree_part(K, f: Poly) -> Poly:
    """The radical of f: the product of its distinct monic irreducible
    factors.

    In characteristic p, f / gcd(f, f') keeps only the factors whose
    multiplicity p does not divide.  Once their copies are stripped from
    the gcd, what is left is a p-th power, whose p-th root goes through
    the same steps (von zur Gathen and Gerhard, Modern Computer Algebra,
    Alg. 14.21)."""
    f = pmonic(K, f)
    g = pgcd(K, f, pderiv(K, f))
    if pdeg(g) < 1:
        return f
    w = pdivmod(K, f, g)[0]
    y = pgcd(K, g, w)
    while pdeg(y) > 0:
        g = pdivmod(K, g, y)[0]
        y = pgcd(K, g, y)
    if pdeg(g) < 1:
        return w
    # g(T) = h(T)^p with h's coefficients the p-th roots c^(q/p)
    root = [K.pow(g[i], K.q // K.p) for i in range(0, len(g), K.p)]
    return pmul(K, w, psquarefree_part(K, pnorm(root)))


def pfactor_distinct(K, f: Poly) -> list[Poly]:
    """Distinct monic irreducible factors of f, sorted by (degree,
    coefficient tuple)."""
    if pdeg(f) < 1:
        return []
    sf = psquarefree_part(K, f)
    out = []
    for prod, d in _ddf(K, sf):
        out.extend(_edf(K, prod, d))
    return sorted(out, key=lambda g: (len(g), g))
