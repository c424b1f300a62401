"""Structure of centralizers: block factorizations and growth fingerprints.

For a matrix x with the split structure of prepare_near_root, the
centralizer of x is the product of general linear groups over extension
fields, one per irreducible factor of T^k - alpha acting on L, with the
eigenvalue-1 block absorbing S.  For permutations the centralizer is a
product of wreath products C_k wr S_{m_k} over the cycle lengths.  The
fingerprint record distinguishes elements whose centralizer carries a
large normal elementary abelian p-subgroup (the block element in
characteristic p, permutations with many p-cycles) from semisimple
elements whose centralizer is a plain product of linear blocks.
"""

import dataclasses
import math

from .constructions import (NiceblockCertificate, SplitDecomposition,
                            check_split_condition)
from .errors import UnsupportedCaseError
from .gf import is_prime
from .groups import SL, ClassicalElement, Permutation, gl_order
from .linalg import Matrix, primary_blocks

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
    has_large_p_core: bool
    p: int
    p_core_order: int
    reductive_part: CentralizerDescriptor


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
    """Large-p-core dichotomy data for a prime-order element.

    Three supported shapes, selected by the context argument:

      * SplitDecomposition: semisimple x of prime order k != char built by
        prepare_near_root with alpha = 1; no p-core, reductive part is the
        full block factorization.
      * NiceblockCertificate: the order-p block element in its own
        characteristic; p-core is the abelian group A (order q^dim A),
        reductive part records the ambient GL_n the block-diagonal
        complement lives in.
      * None with x a Permutation of prime order p: p-core is the base
        C_p^m of the wreath factor, reductive part is the top S_m times
        the fixed-point S_f.

    Anything else raises UnsupportedCaseError.
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


def _fingerprint_semisimple(x, dec):
    field = x.field
    p = dec.k
    if not is_prime(p):
        raise UnsupportedCaseError("order %d is not prime" % p)
    if p == field.p:
        raise UnsupportedCaseError(
            "semisimple family requires the order to differ from the "
            "characteristic")
    if dec.alpha != field.one:
        raise UnsupportedCaseError("semisimple family requires alpha = 1")
    n = x.nrows
    ident = Matrix.identity(field, n)
    if x == ident:
        raise UnsupportedCaseError("x must have order exactly p")
    if x.matpow(p) != ident:
        raise UnsupportedCaseError("x^p is not the identity")
    reductive = centralizer_factorization(x, dec)
    return FingerprintRecord(
        has_large_p_core=False,
        p=p,
        p_core_order=1,
        reductive_part=reductive,
    )


def _fingerprint_niceblock(x, cert):
    mat = x.matrix if isinstance(x, ClassicalElement) else x
    if mat != cert.x.matrix:
        raise UnsupportedCaseError(
            "x does not match the certified block element")
    field = mat.field
    p = field.p
    n = cert.half_size
    core_rank = len(cert.A_generators)
    expected = n * n if cert.x.group_tag == SL else n * (n + 1) // 2
    assert core_rank == expected
    reductive = CentralizerDescriptor(
        (FactorRecord(GL_BLOCK, n, 1, gl_order(n, field.q)),))
    return FingerprintRecord(
        has_large_p_core=True,
        p=p,
        p_core_order=field.q ** core_rank,
        reductive_part=reductive,
    )


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
    return FingerprintRecord(
        has_large_p_core=True,
        p=p,
        p_core_order=p ** m,
        reductive_part=reductive,
    )
