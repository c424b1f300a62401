"""Arithmetic in finite fields GF(p^e) with packed-integer elements.

The element with coefficient vector (c0, ..., c_{e-1}) against the power
basis 1, t, ..., t^{e-1} of GF(p)[t]/(modulus) is stored as the integer
c0 + c1*p + ... + c_{e-1}*p^(e-1).  Packing is a bijection onto
range(p**e): integer equality is coefficient-vector equality, and
ascending integer order is lexicographic order on coefficient vectors
with the constant term least significant.

A Field is the one handle for a field: it carries p, e, q and the monic
modulus (coefficients listed constant-first) and is validated when it is
built.  GF returns it, one object per field, with the lexicographically
smallest monic irreducible of degree e (find_irreducible) as the default
modulus; the order is checked against MAX_ORDER before that search.

Matrices and polynomials compute through Field.kernel(), the one place
that picks their arithmetic: inline mod p when e == 1 (a product packs
the rows of its right factor into 64-bit slots, _packed_row_product); the
q x q pair tables when e > 1 and q <= _PAIR_TABLE_MAX; the scalar Field
operations above that.  The kernel's scalar mul is that regime's product
(a b mod p, a pair-table lookup, Field.mul), the one that charpoly, peval,
pderiv and the class-size twist take.  Over GF(2) its array product is
a & b and its array fma x ^ (a & b).
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import namedtuple
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


def check_field(p: int, e: int) -> None:
    """Raise ValueError unless p is prime and check_order(p, e) passes; the
    Field constructor and find_irreducible run it before any other work."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    check_order(p, e)


def check_order(p: int, e: int = 1) -> None:
    """Raise ValueError unless e >= 1 and p^e < MAX_ORDER, without forming
    p^e past the cap's bit length: cheap enough to run before any search."""
    if e < 1:
        raise ValueError(f"extension degree {e} < 1")
    if e >= MAX_ORDER.bit_length() or p**e >= MAX_ORDER:
        raise ValueError(f"field order {p}^{e} exceeds cap {MAX_ORDER}")


@lru_cache(maxsize=None)
def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over
    GF(p), scanning packed non-leading coefficients in ascending order."""
    check_field(p, e)
    if e == 1:
        return (0, 1)
    base = Field(p, 1, (0, 1))
    for packed in range(p**e):
        cand = tuple(_unpack_int(packed, p, e)) + (1,)
        if poly.pirreducible(base, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def power(mul, a, k: int):
    """a^k, k >= 0, by square and multiply with the product mul, starting
    from the integer 1; mul(1, a) = a makes it serve packed elements and,
    for k >= 1, int64 arrays of them."""
    result = 1
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


def _unpack_int(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        value, c = divmod(value, p)
        out.append(c)
    return out


class Field:
    """GF(p^e) as characteristic p, extension degree e and monic modulus
    (constant coefficient first, length e + 1), with its arithmetic on
    packed-integer elements.  The constructor validates all three."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        check_field(p, e)
        m = tuple(modulus)
        if len(m) != e + 1:
            raise ValueError(f"modulus length {len(m)} != e + 1 = {e + 1}")
        if any(not (0 <= c < p) for c in m):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if m[-1] != 1:
            raise ValueError("modulus must be monic")
        if e >= 2 and not poly.pirreducible(Field(p, 1, (0, 1)), m):
            raise ValueError(f"modulus {m} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = m
        self.zero = 0
        self.one = 1
        self._generator = None
        self._roots_of_unity = {}
        self._exp = None
        self._log = None
        self._inv_table = None
        self._pair_tables = None
        self._packed_tables = None
        self._kernel = None

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
        m = self.modulus
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
        return power(self.mul, a, k)

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
        q - 1) powers of gamma^((q-1)/g) for the generator gamma, computed
        once per g and kept; each call returns a fresh copy."""
        g = math.gcd(n, self.q - 1)
        if g not in self._roots_of_unity:
            zeta = self.pow(self.multiplicative_generator(), (self.q - 1) // g)
            self._roots_of_unity[g] = sorted(self.pow(zeta, j)
                                             for j in range(g))
        return list(self._roots_of_unity[g])

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
        """(add, sub, mul) as q x q nested lists read t[a][b]; refused
        above _PAIR_TABLE_MAX."""
        if self._pair_tables is None:
            if self.q > _PAIR_TABLE_MAX:
                raise ValueError(f"pair tables refused for q = {self.q}")
            # entries point into elems, one int object per value, which
            # keeps the three tables at 8 bytes an entry
            elems = list(range(self.q))
            add = [[elems[self.add(a, b)] for b in elems] for a in elems]
            neg = [self.neg(b) for b in elems]
            sub = [[row[nb] for nb in neg] for row in add]
            mul = [[elems[self.mul(a, b)] for b in elems] for a in elems]
            self._pair_tables = (add, sub, mul)
        return self._pair_tables

    def kernel(self) -> "Kernel":
        """The row, matrix and array arithmetic of this field, built on
        first use and kept: the one switch among the regimes."""
        if self._kernel is None:
            build = (_prime_kernel if self.e == 1 else _table_kernel
                     if self.q <= _PAIR_TABLE_MAX else _scalar_kernel)
            self._kernel = build(self)
        return self._kernel

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
        """The add and mul pair tables as read-only (q, q) int64 arrays,
        for vectorized arithmetic at small q."""
        if self._packed_tables is None:
            if self.q > _PAIR_TABLE_MAX:
                raise ValueError(f"packed tables refused for q = {self.q}")
            add, _, mul = self.pair_tables()
            self._packed_tables = tuple(np.array(t, dtype=np.int64)
                                        for t in (add, mul))
            for t in self._packed_tables:
                t.setflags(write=False)
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
        for g in range(1, self.q):
            if all(power(self._mul_direct, g, n // r) != self.one
                   for r in primes):
                return g
        raise AssertionError("no generator found")

    # -- housekeeping -------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and self.modulus == other.modulus
                                 and self.p == other.p)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


# The arithmetic of one field (Field.kernel()), as plain functions:
# axpy(ys, c, xs) = ys + c xs over the shorter row, a list; add(A, B),
# sub(A, B), scale(c, A) and matmul(A, B, ncols) on sequences of rows, B
# having ncols columns, as tuples of row tuples; pivot(R, r, c, reduce_up),
# one Gauss-Jordan step in the row lists R, zero left of column c from row
# r down: row r is scaled by Field.inv of R[r][c] != 0, then column c is
# cleared in the other rows, or only below r unless reduce_up; the scalars
# neg(a) and mul(a, b); arrays(), built on its first call: (mul, fma, inv)
# elementwise on int64 arrays, fma(x, a, b) = x + a b, over GF(2) a & b,
# x ^ (a & b) and the identity; elsewhere the inverse table waits for the
# first inv.
Kernel = namedtuple("Kernel",
                    "axpy add sub scale matmul pivot neg mul arrays")


def _prime_kernel(f: Field) -> Kernel:
    p = f.p

    def axpy(ys, c, xs):
        return [(y + c * x) % p for y, x in zip(ys, xs)]

    def add(A, B):
        return tuple([tuple([(a + b) % p for a, b in zip(ra, rb)])
                      for ra, rb in zip(A, B)])

    def sub(A, B):
        return tuple([tuple([(a - b) % p for a, b in zip(ra, rb)])
                      for ra, rb in zip(A, B)])

    def scale(c, A):
        return tuple([tuple([c * v % p for v in row]) for row in A])

    def matmul(A, B, ncols):
        # packing pays off from three columns; one or two are dot
        # products, as is any shape whose 64-bit slots could overflow
        if ncols > 2 and (p - 1) ** 2 * len(B) < 2**64:
            return _packed_row_product(A, B, ncols, p)
        cols = list(zip(*B)) or [()] * ncols
        return tuple([tuple([sum(map(operator.mul, row, col)) % p
                             for col in cols]) for row in A])

    def pivot(R, r, c, reduce_up):
        row = R[r]
        if row[c] != 1:
            inv = f.inv(row[c])
            row[c:] = [v * inv % p for v in row[c:]]
        tail = row[c:]
        for other in (R if reduce_up else R[r + 1:]):
            a = other[c]
            if a and other is not row:
                other[c:] = [(v - a * t) % p for v, t in zip(other[c:], tail)]

    @lru_cache(maxsize=None)
    def arrays():
        if p == 2:  # a product is an and, a sum an xor, 1 its own inverse
            return (operator.and_, lambda x, a, b: x ^ (a & b), lambda a: a)
        return (lambda a, b: a * b % p, lambda x, a, b: (x + a * b) % p,
                _array_inv(f))

    return Kernel(axpy, add, sub, scale, matmul, pivot, lambda a: -a % p,
                  lambda a, b: a * b % p, arrays)


def _table_kernel(f: Field) -> Kernel:
    add_t, sub_t, mul_t = f.pair_tables()

    def axpy(ys, c, xs):
        mc = mul_t[c]
        return [add_t[y][mc[x]] for y, x in zip(ys, xs)]

    def entrywise(t):  # (A, B) -> t[a][b] at each entry
        return lambda A, B: tuple([tuple([t[a][b] for a, b in zip(ra, rb)])
                                   for ra, rb in zip(A, B)])

    def scale(c, A):
        mc = mul_t[c]
        return tuple([tuple([mc[v] for v in row]) for row in A])

    def matmul(A, B, ncols):
        # row i of the product is the sum over k of A[i][k] B[k]
        out = []
        for row in A:
            acc = [0] * ncols
            for a, brow in zip(row, B):
                if a:
                    m = mul_t[a]
                    acc = [add_t[s][m[b]] for s, b in zip(acc, brow)]
            out.append(tuple(acc))
        return tuple(out)

    def pivot(R, r, c, reduce_up):
        row = R[r]
        if row[c] != 1:
            m = mul_t[f.inv(row[c])]
            row[c:] = [m[v] for v in row[c:]]
        tail = row[c:]
        for other in (R if reduce_up else R[r + 1:]):
            a = other[c]
            if a and other is not row:
                m = mul_t[a]
                other[c:] = [sub_t[v][m[t]] for v, t in zip(other[c:], tail)]

    @lru_cache(maxsize=None)
    def arrays():
        # gathers from the raveled tables: t[a * q + b] is t[a][b]
        add, mul = (t.ravel() for t in f.packed_tables())
        q = f.q
        return (lambda a, b: mul[a * q + b],
                lambda x, a, b: add[x * q + mul[a * q + b]], _array_inv(f))

    return Kernel(axpy, entrywise(add_t), entrywise(sub_t), scale, matmul,
                  pivot, sub_t[0].__getitem__, lambda a, b: mul_t[a][b],
                  arrays)


def _scalar_kernel(f: Field) -> Kernel:
    """Every entry through the scalar operations; products and pivots take
    one axpy per row."""

    def axpy(ys, c, xs):
        return [f.add(y, f.mul(c, x)) for y, x in zip(ys, xs)]

    def entrywise(op):  # (A, B) -> op(a, b) at each entry
        return lambda A, B: tuple([tuple(map(op, ra, rb))
                                   for ra, rb in zip(A, B)])

    def scale(c, A):
        return tuple([tuple([f.mul(c, v) for v in row]) for row in A])

    def matmul(A, B, ncols):
        out = []
        for row in A:
            acc = [0] * ncols
            for a, brow in zip(row, B):
                if a:
                    acc = axpy(acc, a, brow)
            out.append(tuple(acc))
        return tuple(out)

    def pivot(R, r, c, reduce_up):
        row = R[r]
        if row[c] != 1:
            inv = f.inv(row[c])
            row[c:] = [f.mul(inv, v) for v in row[c:]]
        tail = row[c:]
        for other in (R if reduce_up else R[r + 1:]):
            if other[c] and other is not row:
                other[c:] = axpy(other[c:], f.neg(other[c]), tail)

    @lru_cache(maxsize=None)
    def arrays():
        mul, add = _ufunc(f.mul, 2), _ufunc(f.add, 2)
        return (mul, lambda x, a, b: add(x, mul(a, b)), _array_inv(f))

    return Kernel(axpy, entrywise(f.add), entrywise(f.sub), scale, matmul,
                  pivot, f.neg, f.mul, arrays)


def _array_inv(f: Field):
    """Elementwise inverse: a gather from the inverse table, built on the
    first call, up to _TABLE_MAX, and the scalar Field.inv above it."""
    if f.q <= _TABLE_MAX:
        return lambda a: f.inv_table()[a]
    return _ufunc(f.inv, 1)


def _ufunc(op, nargs):
    """A scalar Field operation applied elementwise, int64 in and out."""
    ufunc = np.frompyfunc(lambda *args: op(*map(int, args)), nargs, 1)
    return lambda *arrays: ufunc(*arrays).astype(np.int64)


def _packed_row_product(rows, other_rows, ncols: int, p: int):
    """rows @ other_rows mod p as a tuple of row tuples, for (p - 1)^2
    times the inner dimension below 2^64.

    Row k of the right factor becomes one int with entry j in 64-bit slot
    j: the bytes of array('Q', row) read in native byte order.  A product
    row is then the integer sum of row[k] * packed[k] over k, whose slot j
    is the exact dot product, since no slot can carry into the next; the
    sums are cast back to unsigned 64-bit ints and reduced mod p once per
    entry (Kronecker substitution, one matrix row at a time)."""
    order = sys.byteorder
    width = 8 * ncols
    packed = [int.from_bytes(array("Q", row).tobytes(), order)
              for row in other_rows]
    sums = b"".join([sum(map(operator.mul, row, packed)).to_bytes(width, order)
                     for row in rows])
    vals = [v % p for v in memoryview(sums).cast("Q")]
    return tuple([tuple(vals[i:i + ncols]) for i in range(0, len(vals), ncols)])


def GF(p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> Field:
    """GF(p^e) with the default (lexicographically smallest) modulus
    unless one is supplied.  A repeated call is a dictionary lookup; input
    that fails validation is not cached, so it raises on every call."""
    if modulus is None:
        modulus = find_irreducible(p, e)
    return _validated_field(p, e, tuple(modulus))


@lru_cache(maxsize=None)
def _validated_field(p: int, e: int, modulus: tuple[int, ...]) -> Field:
    return Field(p, e, modulus)
