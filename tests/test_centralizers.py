import itertools
import math

import numpy as np
import pytest

from msg_lab.centralizers import (GL_BLOCK, WREATH_BLOCK,
                                  CentralizerDescriptor, FactorRecord,
                                  centralizer_factorization,
                                  characteristic_fingerprint,
                                  perm_centralizer_structure)
from msg_lab.constructions import (build_niceblock, check_split_condition,
                                   prepare_near_root)
from msg_lab.errors import UnsupportedCaseError
from msg_lab.gf import GF
from msg_lab.groups import SL, SP, Permutation, gl_order, random_perm
from msg_lab.linalg import Matrix, commutant_basis, span_invertible_counts

from conftest import FIELDS, near_root_input, primary_blocks_unfiltered


def _brute_commuting_invertible(x):
    counts = span_invertible_counts(commutant_basis(x))
    return counts[0]


def _brute_perm_centralizer_order(sigma):
    """Count tau in S_n with sigma tau = tau sigma, vectorized over the
    full permutation array."""
    n = sigma.n
    arr = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    s = np.array(sigma.images, dtype=np.int8)
    sigma_tau = s[arr]          # row i is sigma composed with tau_i
    tau_sigma = arr[:, s]       # row i is tau_i composed with sigma
    return int((sigma_tau == tau_sigma).all(axis=1).sum())


def test_identity_factorization_is_full_gl():
    field = GF(7)
    ident = Matrix.identity(field, 3)
    x, dec = prepare_near_root(ident, 1, 1)
    desc = centralizer_factorization(x, dec)
    assert len(desc.factors) == 1
    f = desc.factors[0]
    assert f.kind == GL_BLOCK and f.dim == 3 and f.ext_degree == 1
    assert desc.total_order == gl_order(3, 7)
    # brute only over GF(2), where the full 2^9 commutant fits the budget
    field = GF(2)
    x, dec = prepare_near_root(Matrix.identity(field, 3), 1, 1)
    desc = centralizer_factorization(x, dec)
    assert desc.total_order == gl_order(3, 2) == 168
    assert desc.total_order == _brute_commuting_invertible(x)


def test_involution_two_blocks_gf7():
    field = GF(7)
    y = Matrix.diagonal(field, [1, 1, 6])
    x, dec = prepare_near_root(y, 2, 1)
    assert x == y and dec.dim_S == 0
    desc = centralizer_factorization(x, dec)
    # factors sort by the irreducible polynomial, so T + 1 precedes T - 1
    assert [(f.dim, f.ext_degree) for f in desc.factors] == [(1, 1), (2, 1)]
    assert desc.total_order == gl_order(2, 7) * gl_order(1, 7) == 12096
    assert desc.total_order == _brute_commuting_invertible(x)


def test_extension_field_block_gf5():
    """Companion matrix of an irreducible quadratic contributes a
    GL_1(q^2) factor; the identity part of the complement lands in the
    T - 1 block."""
    field = GF(5)
    comp = Matrix.from_packed(field, [[0, 2], [1, 0]])  # squares to 2I
    y = Matrix.block2(comp, Matrix.zeros(field, 2, 2),
                      Matrix.zeros(field, 2, 2), Matrix.identity(field, 2))
    x, dec = prepare_near_root(y, 2, 2)
    assert x == y and dec.dim_S == 2
    desc = centralizer_factorization(x, dec)
    by_ext = {f.ext_degree: f for f in desc.factors}
    assert set(by_ext) == {1, 2}
    assert by_ext[2].dim == 1 and by_ext[2].order == gl_order(1, 25) == 24
    assert by_ext[1].dim == 2 and by_ext[1].order == gl_order(2, 5) == 480
    assert desc.total_order == 24 * 480 == 11520
    assert desc.total_order == _brute_commuting_invertible(x)


def test_split_torus_four_blocks():
    """T^4 - 1 splits into linear factors over GF(5): four GL_1 blocks,
    and the factor count stays within k + 1."""
    field = GF(5)
    y = Matrix.diagonal(field, [1, 2, 3, 4])
    x, dec = prepare_near_root(y, 4, 1)
    desc = centralizer_factorization(x, dec)
    assert len(desc.factors) == 4 <= dec.k + 1
    for f in desc.factors:
        assert f.format_line() == "GL-block 1 1 4"
    assert desc.total_order == 4 ** 4 == 256
    assert desc.total_order == _brute_commuting_invertible(x)


def _factorization_oracle(x, dec):
    """(kind, dim, ext_degree, order) of each factor as
    centralizer_factorization computed them before the L-block reduction:
    from the primary blocks of the whole n x n matrix x."""
    q = x.field.q
    out = []
    for f, basis in primary_blocks_unfiltered(x, dec.k, dec.alpha):
        deg = len(f) - 1
        d = basis.ncols // deg
        out.append((GL_BLOCK, d, deg, gl_order(d, q ** deg)))
    return out


def test_centralizer_factorization_matches_full_space_oracle(rng):
    """Factoring x|L and adding dim S to the T - 1 block gives the factors
    of the full-space primary decomposition, on random near-roots with
    dim L from 2 to n <= 6, alpha = 1 and alpha != 1 (GF(2) has only 1)."""
    cases = {True: 0, False: 0}
    for field in FIELDS:
        for n in range(2, 7):
            for dim_l in range(2, n + 1):
                for alpha_one in (True, False):
                    case = near_root_input(field, n, dim_l, rng, alpha_one)
                    if case is None:
                        assert field.q == 2 and not alpha_one
                        continue
                    x, dec = prepare_near_root(*case)
                    assert check_split_condition(x, dec).shape == (dim_l, dim_l)
                    desc = centralizer_factorization(x, dec)
                    expect = _factorization_oracle(x, dec)
                    assert [(f.kind, f.dim, f.ext_degree, f.order)
                            for f in desc.factors] == expect
                    assert desc.total_order == math.prod(e[3] for e in expect)
                    cases[alpha_one] += 1
    assert cases == {True: 6 * 15, False: 5 * 15}


def _fingerprint_shape(sigma):
    """p, the p-core order and the S_m and S_f factor lines of the
    fingerprint of a prime-order permutation."""
    rec = characteristic_fingerprint(sigma)
    return rec.p, rec.p_core_order, rec.reductive_part.format_lines()


def test_perm_centralizer_examples_brute():
    # (0 1)(2 3) in S_7: (C_2 wr S_2) x S_3 of order 8 * 6 = 48
    sigma = Permutation.from_cycles(7, [(0, 1), (2, 3)])
    desc = perm_centralizer_structure(sigma)
    assert [f.format_line() for f in desc.factors] == [
        "wreath-block 3 1 6", "wreath-block 2 2 8"]
    assert desc.total_order == 48 == _brute_perm_centralizer_order(sigma)
    # p = 2, m = 2 two-cycles, f = 3 fixed points
    assert _fingerprint_shape(sigma) == (
        2, 2 ** 2, ["wreath-block 2 1 2", "wreath-block 3 1 6"])
    # four 2-cycles in S_8: C_2 wr S_4 of order 2^4 * 24 = 384
    sigma = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    desc = perm_centralizer_structure(sigma)
    assert len(desc.factors) == 1
    assert desc.total_order == 384 == _brute_perm_centralizer_order(sigma)
    # no fixed points: the S_f factor is trivial
    assert _fingerprint_shape(sigma) == (
        2, 2 ** 4, ["wreath-block 4 1 24", "wreath-block 0 1 1"])
    # two 3-cycles in S_6, no fixed points
    sigma = Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    desc = perm_centralizer_structure(sigma)
    assert desc.total_order == 18 == _brute_perm_centralizer_order(sigma)
    # same cycles viewed in S_9: three extra fixed points multiply by 3!
    sigma = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5)])
    assert perm_centralizer_structure(sigma).total_order == 108
    assert _fingerprint_shape(sigma) == (
        3, 3 ** 2, ["wreath-block 2 1 2", "wreath-block 3 1 6"])


def test_perm_centralizer_random_brute():
    for trial in range(20):
        sigma = random_perm(6, 1000 + trial)
        desc = perm_centralizer_structure(sigma)
        assert desc.total_order == _brute_perm_centralizer_order(sigma)
        product = 1
        for f in desc.factors:
            assert f.kind == WREATH_BLOCK
            assert f.order == f.ext_degree ** f.dim * math.factorial(f.dim)
            product *= f.order
        assert product == desc.total_order


def test_perm_centralizer_input_checks():
    sigma = Permutation.from_cycles(5, [(0, 1)])
    # the degree is read off the permutation: C_2 x S_3 inside S_5
    assert perm_centralizer_structure(sigma).total_order == 2 * 6
    with pytest.raises(TypeError):
        perm_centralizer_structure((1, 0, 2))


def test_fingerprint_semisimple_involutions():
    field = GF(7)
    x, dec = prepare_near_root(Matrix.diagonal(field, [1, 1, 6]), 2, 1)
    rec = characteristic_fingerprint(x, dec)
    assert not rec.has_large_p_core
    assert rec.p == 2 and rec.p_core_order == 1
    assert rec.reductive_part.total_order == 12096
    # the swap involution has two one-dimensional eigenblocks
    swap = Matrix.from_packed(field, [[0, 1], [1, 0]])
    x, dec = prepare_near_root(swap, 2, 1)
    rec = characteristic_fingerprint(x, dec)
    assert rec.p_core_order == 1
    assert [f.format_line() for f in rec.reductive_part.factors] == [
        "GL-block 1 1 6", "GL-block 1 1 6"]
    assert rec.reductive_part.total_order == 36


def test_fingerprint_niceblock():
    field = GF(3)
    cert = build_niceblock(2, field, SL)
    rec = characteristic_fingerprint(cert.x, cert)
    assert rec.has_large_p_core
    assert rec.p == 3
    assert rec.p_core_order == 3 ** 4 == 81
    assert rec.reductive_part.total_order == gl_order(2, 3) == 48
    cert = build_niceblock(2, field, SP)
    rec = characteristic_fingerprint(cert.x, cert)
    assert rec.p_core_order == 3 ** 3 == 27
    assert rec.reductive_part.total_order == 48


def test_fingerprint_permutation():
    sigma = Permutation.from_cycles(7, [(0, 1), (2, 3)])
    rec = characteristic_fingerprint(sigma)
    assert rec.has_large_p_core
    assert rec.p == 2 and rec.p_core_order == 4
    assert rec.reductive_part.total_order == 2 * 6 == 12
    sigma = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5)])
    rec = characteristic_fingerprint(sigma)
    assert rec.p == 3 and rec.p_core_order == 9
    assert rec.reductive_part.total_order == 2 * 6 == 12


def test_fingerprint_unsupported_cases():
    field = GF(7)
    # order equal to the characteristic
    x, dec = prepare_near_root(Matrix.diagonal(field, [1, 1, 6]), 2, 1)
    with pytest.raises(UnsupportedCaseError):
        characteristic_fingerprint(x, "wrong context")
    # a split decomposition cannot even be built with k divisible by the
    # characteristic, so the semisimple family never overlaps it
    from msg_lab.constructions import SplitDecomposition
    field2 = GF(2)
    with pytest.raises(ValueError, match="coprime"):
        SplitDecomposition(Matrix.identity(field2, 2),
                           Matrix.zeros(field2, 2, 0), 2, 1)
    # composite order permutation
    sigma = Permutation.from_cycles(7, [(0, 1), (2, 3, 4)])
    assert sigma.order() == 6
    with pytest.raises(UnsupportedCaseError):
        characteristic_fingerprint(sigma)
    # alpha != 1
    y = Matrix.diagonal(field, [2, 3])
    x, dec = prepare_near_root(y, 2, 4)
    with pytest.raises(UnsupportedCaseError):
        characteristic_fingerprint(x, dec)
    # identity has order 1, not p
    xi, deci = prepare_near_root(Matrix.identity(field, 2), 2, 1)
    with pytest.raises(UnsupportedCaseError):
        characteristic_fingerprint(xi, deci)
    # certificate mismatch
    cert = build_niceblock(2, GF(3), SL)
    with pytest.raises(UnsupportedCaseError):
        characteristic_fingerprint(Matrix.identity(GF(3), 4), cert)


def test_descriptor_total_order_validation():
    f = FactorRecord(GL_BLOCK, 1, 1, 6)
    desc = CentralizerDescriptor((f, f))
    assert desc.total_order == 36
    assert desc.format_lines() == ["GL-block 1 1 6", "GL-block 1 1 6"]
