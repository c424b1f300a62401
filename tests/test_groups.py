import pytest

from msg_lab.errors import UnsupportedCaseError
from msg_lab.gf import GF
from msg_lab.groups import (GL, PSL_REP, SL, SP, AlternatingDescriptor,
                            ClassicalElement, Permutation, PSLDescriptor,
                            enumerate_alternating, enumerate_gl2,
                            enumerate_psl2, enumerate_sl2,
                            perm_compose, proj_equal, psl_canonical,
                            random_even_perm,
                            random_invertible, random_perm, random_sl,
                            random_sp, standard_symplectic_form)
from msg_lab.linalg import Matrix


def test_permutation_group_laws(rng):
    for _ in range(300):
        n = rng.randint(1, 10)
        a = random_perm(n, rng)
        b = random_perm(n, rng)
        c = random_perm(n, rng)
        assert (a * b) * c == a * (b * c)
        ident = Permutation.identity(n)
        assert a * ident == a and ident * a == a
        assert a * a.inverse() == ident
        assert perm_compose(a, b) == a * b


def test_permutation_hash_agrees_with_equality(rng):
    """Equal permutations hash equal, so they serve as set members and
    dict keys, and distinct ones stay distinct in a set."""
    sigma = random_perm(7, rng)
    same = Permutation(list(sigma.images))
    assert sigma == same and sigma is not same and hash(sigma) == hash(same)
    assert {sigma: "value"}[same] == "value"
    assert len({sigma, same, sigma.inverse().inverse()}) == 1
    assert len({Permutation((1, 0, 2)), Permutation((0, 2, 1)),
                Permutation((1, 0, 2))}) == 2


def test_composition_convention():
    """(sigma * tau)(i) = sigma(tau(i))."""
    sigma = Permutation((1, 0, 2))
    tau = Permutation((0, 2, 1))
    assert (sigma * tau).images == (1, 2, 0)


def test_cycles_round_trip(rng):
    for _ in range(200):
        n = rng.randint(1, 12)
        sigma = random_perm(n, rng)
        rebuilt = Permutation.from_cycles(n, sigma.cycles())
        assert rebuilt == sigma
    sigma = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5)])
    assert sigma.cycle_type() == (3, 3, 1, 1, 1)
    assert sigma.support() == {0, 1, 2, 3, 4, 5}
    full = sigma.cycles(include_fixed=True)
    assert sorted(len(c) for c in full) == [1, 1, 1, 3, 3]


def test_sign_homomorphism(rng):
    for _ in range(300):
        n = rng.randint(2, 10)
        a = random_perm(n, rng)
        b = random_perm(n, rng)
        assert (a * b).sign() == a.sign() * b.sign()
    assert Permutation.transposition(5, 0, 1).sign() == -1
    assert Permutation.identity(4).sign() == 1


def test_random_even_perm_is_even(rng):
    for _ in range(200):
        n = rng.randint(3, 30)
        sigma = random_even_perm(n, rng)
        assert sigma.is_even()
    # deterministic for a fixed seed
    assert random_even_perm(10, 42) == random_even_perm(10, 42)


def test_random_sl_det_one(rng):
    for field in [GF(2), GF(5), GF(3, 2)]:
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_sl(n, field, rng)
            assert g.group_tag == SL
            assert g.matrix.det() == field.one


def test_random_sp_preserves_form(rng):
    for field in [GF(2), GF(3), GF(5)]:
        for _ in range(30):
            n2 = 2 * rng.randint(1, 3)
            g = random_sp(n2, field, rng)
            assert g.group_tag == SP
            j = standard_symplectic_form(field, n2)
            assert g.matrix.transpose() @ j @ g.matrix == j


def test_enumeration_counts():
    assert len(enumerate_gl2(GF(2))) == 6
    assert len(enumerate_gl2(GF(3))) == 48
    assert len(enumerate_sl2(GF(3))) == 24
    assert len(enumerate_sl2(GF(5))) == 120
    assert len(enumerate_psl2(GF(5))) == 60
    assert len(enumerate_psl2(GF(7))) == 168
    assert len(enumerate_alternating(5)) == 60


def test_psl_canonical_centre_invariance(rng):
    """Canonical representative is fixed under scaling by any alpha with
    alpha^n = 1 (the centre of SL_n), exhaustively over F^x."""
    for field in [GF(5), GF(7)]:
        for _ in range(40):
            g = random_invertible(2, field, rng)
            canon = psl_canonical(g)
            assert psl_canonical(canon) == canon
            for lam in field.nonzero_elements():
                if field.pow(lam, 2) != field.one:
                    continue
                assert psl_canonical(g.scale(lam)) == canon


def _psl_canonical_scan(m):
    """psl_canonical as it was: scan all of F^x for alpha^n = 1."""
    field = m.field
    best = None
    for alpha in field.nonzero_elements():
        if field.pow(alpha, m.nrows) != field.one:
            continue
        cand = m.scale(alpha)
        if best is None or cand.rows < best.rows:
            best = cand
    return best


def test_psl_canonical_matches_full_scan(rng):
    """The roots-of-unity candidates pick the representative the scan over
    F^x picks: all of SL_2(q) for q in {4, 5, 7, 8, 9}, and random
    elements of SL_3 and SL_4 over every field with q <= 16."""
    for q in (4, 5, 7, 8, 9):
        field = GF(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q,)))
        for m in enumerate_sl2(field):
            assert psl_canonical(m) == _psl_canonical_scan(m)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)):
        field = GF(p, e)
        for n in (3, 4):
            for _ in range(10):
                m = random_sl(n, field, rng).matrix
                assert psl_canonical(m) == _psl_canonical_scan(m)


def test_classical_equality_modulo_centre():
    field = GF(5)
    m = Matrix.diagonal(field, [2, 3])  # det 6 = 1
    a = ClassicalElement(m, PSL_REP)
    b = ClassicalElement(m.scale(4), PSL_REP)  # 4^2 = 16 = 1, det kept
    assert a != b and proj_equal(a.matrix, b.matrix)
    assert a == ClassicalElement(m, PSL_REP)
    c = ClassicalElement(m, GL)
    d = ClassicalElement(m.scale(4), GL)
    assert c != d and c == ClassicalElement(m, GL)
    with pytest.raises(ValueError):
        ClassicalElement(Matrix.diagonal(field, [2, 1]), PSL_REP)


def test_classical_element_checks():
    """Each check of ClassicalElement construction, of its product and of
    the alternating form, with its message; a singular matrix is refused
    as singular under every tag, before the determinant-one check."""
    f5, f2 = GF(5), GF(2)
    ident = Matrix.identity(f5, 2)
    j = standard_symplectic_form(f5, 2)
    j4 = standard_symplectic_form(f5, 4)
    zeros = Matrix.zeros(f5, 2, 2)
    cases = [((ident, "XX"), "unknown group tag 'XX'"),
             ((Matrix.zeros(f5, 2, 3), GL), "group elements must be square"),
             ((zeros, GL), "matrix is singular"),
             ((zeros, SL), "matrix is singular"),
             ((zeros, SP, j), "matrix is singular"),
             ((ident.scale(2), SL), "det must be 1 for tag SL"),
             ((ident.scale(2), PSL_REP), "det must be 1 for tag PSL_REP"),
             ((ident, SL, j), "form only applies to SP"),
             ((ident, GL, j), "form only applies to SP"),
             ((ident, SP), "SP requires an alternating form"),
             ((ident, SP, Matrix.zeros(f5, 2, 3)), "form must be square"),
             ((ident, SP, ident), r"form is not alternating \(j\^T != -j\)"),
             ((Matrix.identity(f2, 2), SP, Matrix.identity(f2, 2)),
              "form has a nonzero diagonal entry"),
             ((ident, SP, zeros), "form is degenerate"),
             ((Matrix.diagonal(f5, [2, 1, 1, 1]), SP, j4),
              "matrix does not preserve the form")]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            ClassicalElement(*args)
    sp = ClassicalElement(ident, SP, j)
    products = [(ClassicalElement(ident, SL), ClassicalElement(ident, GL),
                 "group tag mismatch"),
                (sp, ClassicalElement(ident, SP, j.scale(2)), "form mismatch")]
    for a, b, message in products:
        with pytest.raises(ValueError, match=message):
            a * b
    assert (sp * sp).matrix == ident


def test_descriptors():
    alt = AlternatingDescriptor(5)
    assert alt.order() == 60
    assert alt.identity() == Permutation.identity(5)
    with pytest.raises(UnsupportedCaseError):
        AlternatingDescriptor(4)
    psl = PSLDescriptor(2, GF(7))
    assert psl.order() == 168
    assert psl.identity().matrix == Matrix.identity(GF(7), 2)
    with pytest.raises(UnsupportedCaseError):
        PSLDescriptor(2, GF(2))
    with pytest.raises(UnsupportedCaseError):
        PSLDescriptor(2, GF(3))
    assert PSLDescriptor(3, GF(2)).order() == 168
