"""Arithmetic in finite fields GF(p^e) with packed-integer elements.

The element with coefficient vector (c0, ..., c_{e-1}) against the power
basis 1, t, ..., t^{e-1} of GF(p)[t]/(modulus) is stored as the integer
c0 + c1*p + ... + c_{e-1}*p^(e-1).  Packing is a bijection onto
range(p**e): integer equality is coefficient-vector equality, and
ascending integer order is lexicographic order on coefficient vectors
with the constant term least significant.

Moduli are monic with coefficients listed constant-first; the default
modulus for GF(p^e) is the lexicographically smallest monic irreducible
of degree e (find_irreducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import poly

MAX_ORDER = 2**31  # cap on q = p^e
_TABLE_MAX = 2**16  # exp/log tables only below this order
_PAIR_TABLE_MAX = 2**10  # q x q pairwise tables only below this order

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed witness set is exact for
    n < 3.3e24, far above the MAX_ORDER cap."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Characteristic, extension degree, and monic modulus (constant
    coefficient first, length e + 1)."""

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.e < 1:
            raise ValueError(f"extension degree {self.e} < 1")
        if self.p**self.e >= MAX_ORDER:
            raise ValueError(f"field order {self.p}^{self.e} exceeds cap {MAX_ORDER}")
        m = self.modulus
        if len(m) != self.e + 1:
            raise ValueError(f"modulus length {len(m)} != e + 1 = {self.e + 1}")
        if any(not (0 <= c < self.p) for c in m):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if m[-1] != 1:
            raise ValueError("modulus must be monic")
        if self.e >= 2 and not _modulus_irreducible(self.p, m):
            raise ValueError(f"modulus {m} is reducible over GF({self.p})")

    @property
    def q(self) -> int:
        return self.p**self.e


def _modulus_irreducible(p: int, modulus: tuple[int, ...]) -> bool:
    base = Field(FieldSpec(p, 1, (0, 1)))
    e = len(modulus) - 1
    if e <= 3 and p <= 4096:
        # for degrees 2 and 3 reducibility forces a linear factor
        return all(poly.peval(base, modulus, a) != 0 for a in range(p))
    return poly.pirreducible(base, modulus)


@lru_cache(maxsize=None)
def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over
    GF(p), scanning packed non-leading coefficients in ascending order."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e == 1:
        return (0, 1)
    base = Field(FieldSpec(p, 1, (0, 1)))
    for packed in range(p**e):
        cand = tuple(_unpack_int(packed, p, e)) + (1,)
        if poly.pirreducible(base, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _unpack_int(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        value, c = divmod(value, p)
        out.append(c)
    return out


class Field:
    """Arithmetic bundle for GF(p^e) on packed-integer elements."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
        self.zero = 0
        self.one = 1
        self._generator = None
        self._exp = None
        self._log = None
        self._inv_table = None
        self._pair_tables = None
        self._packed_tables = None
        self._row_axpy = None

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:  # digitwise mod 2 is xor
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self.q <= _TABLE_MAX:
            exp, log = self._tables()
            return exp[(log[a] + log[b]) % (self.q - 1)]
        return self._mul_direct(a, b)

    def _mul_direct(self, a: int, b: int) -> int:
        ca = _unpack_int(a, self.p, self.e)
        cb = _unpack_int(b, self.p, self.e)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        # reduce modulo the monic modulus
        m = self.spec.modulus
        for d in range(len(prod) - 1, self.e - 1, -1):
            c = prod[d] % self.p
            prod[d] = 0
            if c:
                for i in range(self.e):
                    prod[d - self.e + i] -= c * m[i]
        packed = 0
        mult = 1
        for i in range(self.e):
            packed += (prod[i] % self.p) * mult
            mult *= self.p
        return packed

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero is not invertible in {self!r}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _TABLE_MAX:
            exp, log = self._tables()
            return exp[(self.q - 1 - log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    # -- enumeration and structure ----------------------------------------

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def nonzero_elements(self) -> Iterator[int]:
        return iter(range(1, self.q))

    def multiplicative_generator(self) -> int:
        """Smallest packed element generating the multiplicative group,
        searched once per Field and kept."""
        if self._generator is None:
            self._generator = self._generator_search()
        return self._generator

    def roots_of_unity(self, n: int) -> list[int]:
        """The lambda in F^x with lambda^n = 1, ascending: the g = gcd(n,
        q - 1) powers of gamma^((q-1)/g) for the generator gamma."""
        g = math.gcd(n, self.q - 1)
        zeta = self.pow(self.multiplicative_generator(), (self.q - 1) // g)
        return sorted(self.pow(zeta, j) for j in range(g))

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_unpack_int(a, self.p, self.e))

    def from_coeffs(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(cs)}")
        packed = 0
        mult = 1
        for c in cs:
            c = int(c)
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} outside [0, {self.p})")
            packed += c * mult
            mult *= self.p
        return packed

    # -- lookup tables -----------------------------------------------------

    def pair_tables(self):
        """(add, sub, mul) lookups over packed values, read as t[a][b].

        Up to _PAIR_TABLE_MAX they are q x q nested lists; above it each
        lookup calls the scalar operation, so callers index both the same
        way."""
        if self._pair_tables is None:
            if self.q > _PAIR_TABLE_MAX:
                self._pair_tables = (_OpTable(self.add), _OpTable(self.sub),
                                     _OpTable(self.mul))
            else:
                # entries point into elems, one int object per value, which
                # keeps the three tables at 8 bytes an entry
                elems = list(range(self.q))
                add = [[elems[self.add(a, b)] for b in elems] for a in elems]
                neg = [self.neg(b) for b in elems]
                sub = [[row[nb] for nb in neg] for row in add]
                mul = [[elems[self.mul(a, b)] for b in elems] for a in elems]
                self._pair_tables = (add, sub, mul)
        return self._pair_tables

    def row_axpy(self):
        """The row kernel axpy(ys, c, xs) = ys + c xs over the shorter of ys
        and xs, built once: inline mod p when e == 1, else the pair tables."""
        if self._row_axpy is None:
            if self.e == 1:
                p = self.p
                self._row_axpy = lambda ys, c, xs: [(y + c * x) % p
                                                    for y, x in zip(ys, xs)]
            else:
                add, _, mul = self.pair_tables()

                def axpy(ys, c, xs):
                    mc = mul[c]
                    return [add[y][mc[x]] for y, x in zip(ys, xs)]

                self._row_axpy = axpy
        return self._row_axpy

    def inv_table(self) -> np.ndarray:
        """Packed inverses for all nonzero elements (index 0 unused)."""
        if self._inv_table is None:
            if self.q > _TABLE_MAX:
                raise ValueError(f"inverse table refused for q = {self.q}")
            table = np.zeros(self.q, dtype=np.int64)
            for a in range(1, self.q):
                table[a] = self.inv(a)
            table.setflags(write=False)
            self._inv_table = table
        return self._inv_table

    def packed_tables(self):
        """The pair tables as read-only int64 arrays, for vectorized
        arithmetic at small q: (add, sub, mul, neg), add/sub/mul of shape
        (q, q) and neg of shape (q,)."""
        if self._packed_tables is None:
            if self.q > _PAIR_TABLE_MAX:
                raise ValueError(f"packed tables refused for q = {self.q}")
            add, sub, mul = (np.array(t, dtype=np.int64)
                             for t in self.pair_tables())
            neg = sub[0].copy()
            for t in (add, sub, mul, neg):
                t.setflags(write=False)
            self._packed_tables = (add, sub, mul, neg)
        return self._packed_tables

    def _tables(self):
        if self._exp is None:
            g = self.multiplicative_generator()
            exp = [0] * (self.q - 1)
            log = [0] * self.q
            acc = self.one
            for i in range(self.q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._mul_direct(acc, g)
            self._exp = exp
            self._log = log
        return self._exp, self._log

    def _generator_search(self) -> int:
        """The smallest generator, found with _mul_direct alone so that it
        can seed the tables that mul reads."""
        n = self.q - 1
        primes = poly._prime_divisors(n) if n > 1 else []

        def pow_direct(a, k):
            result = self.one
            base = a
            while k:
                if k & 1:
                    result = self._mul_direct(result, base)
                base = self._mul_direct(base, base)
                k >>= 1
            return result

        for g in range(1, self.q):
            if all(pow_direct(g, n // r) != self.one for r in primes):
                return g
        raise AssertionError("no generator found")

    # -- housekeeping -------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and self.spec == other.spec)

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class _OpTable:
    """op(a, b) behind the t[a][b] syntax of the pair tables, for fields
    too large to tabulate."""

    __slots__ = ("op", "a")

    def __init__(self, op, a=None):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        if self.a is None:
            return _OpTable(self.op, b)
        return self.op(self.a, b)


def field_arith(spec: FieldSpec) -> Field:
    """Arithmetic bundle for a validated field spec."""
    return _field_cached(spec)


@lru_cache(maxsize=None)
def _field_cached(spec: FieldSpec) -> Field:
    return Field(spec)


def GF(p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> Field:
    """GF(p^e) with the default (lexicographically smallest) modulus
    unless one is supplied."""
    if modulus is None:
        modulus = find_irreducible(p, e)
    return field_arith(FieldSpec(p, e, tuple(modulus)))
