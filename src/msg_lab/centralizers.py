"""Structure of centralizers: block factorizations and growth fingerprints.

For a matrix x with the split structure of prepare_near_root, the
centralizer of x is the product of general linear groups over extension
fields, one per irreducible factor of T^k - alpha acting on L, with the
eigenvalue-1 block absorbing S.  For permutations the centralizer is a
product of wreath products C_k wr S_{m_k} over the cycle lengths.  A
matrix fingerprint's p-core is the unipotent radical 1 + J of C_GL(x), of
order q^(dim J), read off the Jordan data with its GL factors, and its
has_large_p_core is derived, p_core_order > 1.  For x of prime order p,
J != 0 exactly when p is the characteristic: a unipotent x has x - 1 as a
nonzero nilpotent central element of its commutant, and any other x is
semisimple, so J = 0.
"""

import dataclasses
import math

from .constructions import (NiceblockCertificate, SplitDecomposition,
                            check_split_condition)
from .errors import UnsupportedCaseError
from .gf import is_prime
from .groups import SL, ClassicalElement, Permutation, gl_order
from .linalg import Matrix, primary_blocks
from .metrics import _primary_partitions, gl_centralizer_structure

GL_BLOCK = "GL-block"
WREATH_BLOCK = "wreath-block"


@dataclasses.dataclass(frozen=True)
class FactorRecord:
    """One factor of a centralizer.

    GL-block: GL_dim over the extension of degree ext_degree.
    wreath-block: C_ext wr S_dim (dim = multiplicity, ext = cycle length).
    """

    kind: str
    dim: int
    ext_degree: int
    order: int

    def format_line(self):
        return "%s %d %d %d" % (self.kind, self.dim, self.ext_degree,
                                self.order)


@dataclasses.dataclass(frozen=True)
class CentralizerDescriptor:
    """A centralizer as a direct product of its factors; total_order is
    the product of the factor orders."""

    factors: tuple
    total_order: int = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "total_order",
                           math.prod(f.order for f in self.factors))

    def format_lines(self):
        return [f.format_line() for f in self.factors]


@dataclasses.dataclass(frozen=True)
class FingerprintRecord:
    """A centralizer's p-core order and reductive part; derived flag."""

    p: int
    p_core_order: int
    reductive_part: CentralizerDescriptor
    has_large_p_core: bool = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "has_large_p_core", self.p_core_order > 1)


def centralizer_factorization(x, dec):
    """Factor the centralizer of x into linear blocks.

    One GL-block per distinct irreducible factor of T^k - alpha with a
    nonzero kernel, plus the T - 1 block; when alpha = 1 the eigenvalue-1
    part of L and the complement S merge into a single block, so the
    total order always equals the brute-force count of invertible
    commuting matrices.  The factor count is at most k + 1.

    In the basis [L | S], x = diag(x|L, I): ker f(x) is ker f(x|L), plus S
    for f = T - 1, so the blocks come from the dim L x dim L matrix x|L.
    """
    x_l = check_split_condition(x, dec)
    field = x.field
    q = field.q
    dims = {f: b.ncols for f, b in primary_blocks(x_l, dec.k, dec.alpha)}
    if dec.dim_S:
        one = (field.neg(field.one), field.one)
        dims[one] = dims.get(one, 0) + dec.dim_S
    factors = []
    for f in sorted(dims, key=lambda t: (len(t), t)):
        deg = len(f) - 1
        dim = dims[f]
        if dim % deg != 0:
            raise AssertionError("primary block dimension not divisible by "
                                 "the factor degree")
        d = dim // deg
        factors.append(FactorRecord(GL_BLOCK, d, deg, gl_order(d, q ** deg)))
    if len(factors) > dec.k + 1:
        raise AssertionError("more than k + 1 centralizer factors")
    return CentralizerDescriptor(factors)


def _cycle_counts(sigma):
    """{k: number of k-cycles of sigma}, the fixed points as k = 1."""
    mult = {}
    for c in sigma.cycles(include_fixed=True):
        mult[len(c)] = mult.get(len(c), 0) + 1
    return mult


def perm_centralizer_structure(sigma):
    """Wreath-product factorization of a permutation centralizer in S_n.

    One factor C_k wr S_{m_k} per cycle length k with multiplicity m_k
    (fixed points give the k = 1 factor S_f).
    """
    if not isinstance(sigma, Permutation):
        raise TypeError("expected a Permutation")
    return CentralizerDescriptor(
        FactorRecord(WREATH_BLOCK, m, k, k ** m * math.factorial(m))
        for k, m in sorted(_cycle_counts(sigma).items()))


def characteristic_fingerprint(x, context=None):
    """p-core and reductive part of the centralizer of a prime-order element.

    Three supported shapes, selected by the context argument:

      * SplitDecomposition: x of prime order k != char built by
        prepare_near_root with alpha = 1;
      * NiceblockCertificate: the order-p block element in its own
        characteristic.  In Sp, whose centralizer needs the form, the
        p-core is the certified abelian group A (order q^dim A) and the
        reductive part the GL_n of the block-diagonal complement;
      * None with x a Permutation of prime order p: p-core is the base
        C_p^m of the wreath factor (O_p of the centralizer is larger for
        small m: D_8 at p = 2, m = 2), reductive part is the top S_m times
        the fixed-point S_f.

    The other matrices read metrics.gl_centralizer_structure: the p-core
    1 + J, of order q^(dim J), and the GL_m(q^d) factors in (d, m) order.
    has_large_p_core is p_core_order > 1.  Anything else raises
    UnsupportedCaseError.
    """
    if isinstance(context, SplitDecomposition):
        return _fingerprint_semisimple(x, context)
    if isinstance(context, NiceblockCertificate):
        return _fingerprint_niceblock(x, context)
    if context is None and isinstance(x, Permutation):
        return _fingerprint_permutation(x)
    raise UnsupportedCaseError(
        "fingerprint supports semisimple split elements, the block element "
        "with its certificate, and prime-order permutations; got context %r"
        % type(context).__name__)


def _fingerprint_matrix(x, p):
    """The record of x in GL_n(q) from the structure of C_GL(x)."""
    q = x.field.q
    dim_j, factors = gl_centralizer_structure(_primary_partitions(x))
    return FingerprintRecord(p, q ** dim_j, CentralizerDescriptor(
        FactorRecord(GL_BLOCK, m, d, gl_order(m, q ** d))
        for d, m, count in sorted(factors) for _ in range(count)))


def _fingerprint_semisimple(x, dec):
    p = dec.k
    if not is_prime(p):
        raise UnsupportedCaseError("order %d is not prime" % p)
    if dec.alpha != x.field.one:
        raise UnsupportedCaseError("semisimple family requires alpha = 1")
    if x == Matrix.identity(x.field, x.nrows):
        raise UnsupportedCaseError("x must have order exactly p")
    check_split_condition(x, dec)  # ValueError unless x^p = 1
    return _fingerprint_matrix(x, p)


def _fingerprint_niceblock(x, cert):
    mat = x.matrix if isinstance(x, ClassicalElement) else x
    if mat != cert.x.matrix:
        raise UnsupportedCaseError(
            "x does not match the certified block element")
    field = mat.field
    if cert.x.group_tag == SL:
        return _fingerprint_matrix(mat, field.p)
    n = cert.half_size
    return FingerprintRecord(field.p, field.q ** len(cert.A_generators),
                             CentralizerDescriptor((FactorRecord(
                                 GL_BLOCK, n, 1, gl_order(n, field.q)),)))


def _fingerprint_permutation(sigma):
    p = sigma.order()
    if not is_prime(p):
        raise UnsupportedCaseError(
            "permutation fingerprint needs prime order, got %d" % p)
    mult = _cycle_counts(sigma)
    m, f = mult.get(p, 0), mult.get(1, 0)
    reductive = CentralizerDescriptor((
        FactorRecord(WREATH_BLOCK, m, 1, math.factorial(m)),
        FactorRecord(WREATH_BLOCK, f, 1, math.factorial(f)),
    ))
    return FingerprintRecord(p, p ** m, reductive)
