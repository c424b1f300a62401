"""Dense univariate polynomial arithmetic over a finite field.

A polynomial is a tuple of packed field elements, index = degree, with no
trailing zeros; the zero polynomial is ().  The field argument `K` is a
gf.Field.  Sums, products and remainders all run on one row kernel,
axpy(ys, c, xs) = ys + c xs (K.kernel().axpy).  K also supplies the
scalar operations (add/mul/inv/neg/pow, zero, one, p, q, elements) for
the one inverse per division and psquarefree_part's p-th roots; peval and
pderiv take their products from the kernel's scalar mul.  Sizes here are
tiny (degree <= a few dozen), so everything is plain Python except the
root scan at q <= gf._PAIR_TABLE_MAX: it evaluates f at all q elements at
once on the kernel's int64 arrays, and gives proots and every linear
factor.  Above that cap they are split out of gcd(T^(q-1) - 1, f) and
gcd(T^q - T, f).  The scan also settles squarefreeness when every root a
is simple (f'(a) != 0) and the part of f with no root in F has degree
<= 3; then pfactor_distinct and pfactor_once_repeated take no gcd(f, f'),
and psquarefree_part runs only on the other inputs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from . import gf

Poly = Tuple[int, ...]


def pnorm(coeffs: Sequence[int]) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(f: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def _combine(K, f: Poly, c: int, g: Poly) -> Poly:
    """f + c g."""
    zeros = [0] * max(len(f), len(g))
    return pnorm(K.kernel().axpy(list(f) + zeros[len(f):], c,
                              list(g) + zeros[len(g):]))


def padd(K, f: Poly, g: Poly) -> Poly:
    return _combine(K, f, K.one, g)


def psub(K, f: Poly, g: Poly) -> Poly:
    # -1 packs to p - 1: constant coefficient p - 1, the others zero
    return _combine(K, f, K.p - 1, g)


def _product(axpy, f, g) -> list:
    """f g as a list, trailing zeros kept: one axpy per nonzero entry of f."""
    out = [0] * (len(f) + len(g) - 1)
    width = len(g)
    for i, a in enumerate(f):
        if a:
            out[i:i + width] = axpy(out[i:i + width], a, g)
    return out


def pmul(K, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    return pnorm(_product(K.kernel().axpy, f, g))


def pmonic(K, f: Poly) -> Poly:
    if not f:
        return ()
    lead = f[-1]
    if lead == K.one:
        return f
    return _combine(K, (), K.inv(lead), f)


def _reduce(axpy, rem: list, neg_low: list) -> None:
    """Reduce rem in place modulo the monic T^n + low, n = len(neg_low),
    from the top down by T^n = neg_low = -low.  The remainder is then
    rem[:n] and the quotient rem[n:]: rem[d] for d >= n is the quotient
    coefficient of T^(d - n) when it is cleared, and no later step
    writes to it."""
    n = len(neg_low)
    for d in range(len(rem) - 1, n - 1, -1):
        c = rem[d]
        if c:
            rem[d - n:d] = axpy(rem[d - n:d], c, neg_low)


def pdivmod(K, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    axpy = K.kernel().axpy
    n = len(g) - 1
    inv_lead = K.inv(g[-1])
    rem = list(f)
    # divide by the monic g / lead(g), then scale the quotient back
    _reduce(axpy, rem, axpy([0] * n, K.neg(inv_lead), g))
    quot = rem[n:]
    if inv_lead != K.one:
        quot = axpy([0] * len(quot), inv_lead, quot)
    return pnorm(quot), pnorm(rem[:n])


def pmod(K, f: Poly, g: Poly) -> Poly:
    return pdivmod(K, f, g)[1]


def pgcd(K, f: Poly, g: Poly) -> Poly:
    """Monic gcd."""
    while g:
        f, g = g, pmod(K, f, g)
    return pmonic(K, f)


def _mulmod(K, mod: Poly):
    """mulmod(f, g) = f g mod `mod` as a list of at most deg mod entries,
    trailing zeros kept: the product by axpy rows, reduced in place by the
    monic form of mod (the remainder is the same), with no quotient."""
    if not mod:
        raise ZeroDivisionError("polynomial division by zero")
    axpy = K.kernel().axpy
    n = len(mod) - 1
    neg_low = axpy([0] * n, K.neg(K.inv(mod[-1])), mod)

    def mulmod(f, g):
        out = _product(axpy, f, g)
        _reduce(axpy, out, neg_low)
        del out[n:]
        return out

    return mulmod


def ppowmod(K, base: Poly, exp: int, mod: Poly) -> Poly:
    """base^exp mod `mod`, and (1,) when exp < 1.  Left to right over the
    bits of exp: a squaring for each bit below the top one and a product
    with the reduced base for each set one, pnorm only at the end."""
    mulmod = _mulmod(K, mod)
    base = pnorm(mulmod((K.one,), base))
    if exp < 1:
        return (K.one,)
    result = list(base)
    for bit in bin(exp)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(base, result)
    return pnorm(result)


def peval(K, f: Poly, a: int) -> int:
    mul = K.kernel().mul
    acc = K.zero
    for c in reversed(f):
        acc = K.add(mul(acc, a), c)
    return acc


def pderiv(K, f: Poly) -> Poly:
    """The derivative; the integer i acts as the packed element i mod p."""
    mul, p = K.kernel().mul, K.p
    return pnorm([mul(i % p, c) for i, c in enumerate(f) if i])


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


def _ddf(K, f: Poly, roots) -> list[tuple[Poly, int]]:
    """Distinct-degree factorization of a squarefree monic f: [(product of
    its degree-d irreducible factors, d)], each gcd(T^(q^d) - T, rest) (von
    zur Gathen and Gerhard, Alg. 14.3).  After roots = _scan_roots(K, f),
    degree 1 is prod (T - a), and T^q is taken only for a degree-2 step."""
    out, h, rem, d = [], _X, f, 0
    if roots is not None:
        if len(roots) == pdeg(f):  # f is 1 or splits into linear factors
            return [(f, 1)] if roots else []
        linear = (K.one,)
        for a in roots:
            linear = pmul(K, linear, (K.neg(a), K.one))
        if roots:
            out, rem = [(linear, 1)], pdivmod(K, f, linear)[0]
        d, h = 1, ppowmod(K, _X, K.q, rem) if pdeg(rem) >= 4 else _X
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
    mulmod = _mulmod(K, f)
    for j in range(1, pdeg(f)):
        for c in K.nonzero_elements():
            term = [K.zero] * j + [c]  # c * x^j, reduced since j < deg f
            tr: Poly = ()
            for _ in range(bits):
                tr = padd(K, tr, term)
                term = mulmod(term, term)
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
    Alg. 14.21).  The factorizations call it only where _scan_squarefree
    does not settle squarefreeness: above gf._PAIR_TABLE_MAX, at a
    multiple root, or with a rootless part of degree >= 4."""
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


def _scan_roots(K, f: Poly):
    """The distinct roots of the nonzero f in F, ascending, from f at every
    element by Horner's rule on one int64 array, deg f steps of the
    kernel's array fma (a Chien search); None when q > gf._PAIR_TABLE_MAX."""
    if K.q > gf._PAIR_TABLE_MAX:
        return None
    if len(f) == 2:  # a linear f needs no scan
        return [K.neg(K.mul(f[0], K.inv(f[1])))]
    _, fma, _ = K.kernel().arrays()
    xs = np.arange(K.q, dtype=np.int64)
    acc = np.full(K.q, f[-1], dtype=np.int64)
    for c in reversed(f[:-1]):
        acc = fma(c, acc, xs)
    return np.flatnonzero(acc == 0).tolist()


def proots(K, f: Poly) -> list[int]:
    """The distinct roots of the nonzero f in F, ascending: _scan_roots,
    or above its cap the roots in F^x split out of gcd(T^(q-1) - 1, f) by
    equal-degree splitting, and 0 when f(0) = 0."""
    roots = _scan_roots(K, f)
    if roots is not None:
        return roots
    roots = [0] if f[0] == 0 else []
    split = pgcd(K, psub(K, ppowmod(K, _X, K.q - 1, f), (K.one,)), f)
    if pdeg(split) > 0:
        roots += [K.neg(g[0]) for g in _edf(K, split, 1)]
    return sorted(roots)


def _scan_squarefree(K, f: Poly):
    """(roots, settled): roots = _scan_roots(K, f), and settled True when
    they show the nonzero f squarefree.  a is a multiple root exactly when
    f'(a) = 0, in any characteristic; so when every root is simple, f is
    prod (T - a) times a rootless rest of degree deg f - #roots, and a
    rootless rest of degree <= 3 is 1 or irreducible."""
    roots = _scan_roots(K, f)
    if roots is None or pdeg(f) - len(roots) > 3:
        return roots, False
    df = pderiv(K, f)
    return roots, all(peval(K, df, a) for a in roots)


def _factor_squarefree(K, sf: Poly, roots) -> list[Poly]:
    """Sorted monic irreducible factors of the squarefree monic sf, whose
    roots in F are roots = _scan_roots(K, sf); with scanned roots,
    equal-degree splitting runs for d >= 2 only."""
    factors = [(K.neg(a), K.one) for a in roots or ()]
    factors += (g for prod, d in _ddf(K, sf, roots)
                if d > 1 or roots is None for g in _edf(K, prod, d))
    return sorted(factors, key=lambda g: (len(g), g))


def pfactor_distinct(K, f: Poly) -> list[Poly]:
    """Distinct monic irreducible factors of f, sorted by (degree,
    coefficient tuple); the radical has the roots of f, from one scan."""
    if pdeg(f) < 1:
        return []
    roots, settled = _scan_squarefree(K, f)
    sf = pmonic(K, f) if settled else psquarefree_part(K, f)
    return _factor_squarefree(K, sf, roots)


def pfactor_once_repeated(K, f: Poly):
    """(once, repeated): _ddf's unsplit [(product, d)] of the factors
    dividing f once (with a root scan, no ppowmod up to degree 3) and the
    pfactor_distinct list of those dividing it twice or more; deg f >= 1.
    No gcd is taken when the root scan settles that f is squarefree."""
    f = pmonic(K, f)
    roots, settled = _scan_squarefree(K, f)
    if settled:
        return _ddf(K, f, roots), []
    sf = psquarefree_part(K, f)
    once, repeated = sf, []
    if sf != f:
        rep = pgcd(K, sf, pdivmod(K, f, sf)[0])
        once = pdivmod(K, sf, rep)[0]
        repeated = _factor_squarefree(K, rep, _scan_roots(K, rep))
    return _ddf(K, once, _scan_roots(K, once)), repeated
