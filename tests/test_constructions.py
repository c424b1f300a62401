import itertools
from fractions import Fraction

import numpy as np
import pytest

from msg_lab import constructions
from msg_lab.constructions import (SplitDecomposition, _block_diagonal,
                                   _commutator_pair, _greedy_orbits,
                                   _shift_matrix, approx_centralize,
                                   build_niceblock, check_split_condition,
                                   commutator_witness,
                                   commutator_witness_table,
                                   prepare_near_root, project_to_sl)
from msg_lab.gf import GF
from msg_lab.groups import (SL, SP, ClassicalElement, Permutation,
                            enumerate_gl2, enumerate_sl2, random_invertible,
                            standard_symplectic_form)
from msg_lab.linalg import Matrix, commutant_basis, primary_blocks
from msg_lab.metrics import PRANK, length

from conftest import FIELDS, near_root_input


def _in_column_span(span, v):
    joined = Matrix.hstack([span, v])
    return joined.rank() == span.rank()


def test_prepare_postconditions_random(rng):
    """x invertible, preserves L and S, (x|_L)^k = alpha, x|_S = id, and
    both rank bounds, on random instances."""
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 8)
            while True:
                k = rng.randint(1, 6)
                if k % field.p != 0:
                    break
            alpha = rng.randrange(1, field.q)
            y = random_invertible(n, field, rng)
            x, dec = prepare_near_root(y, k, alpha)
            assert x.is_invertible()
            check_split_condition(x, dec)
            L, S = dec.L, dec.S
            assert L.shape == (n, dec.dim_L) and S.shape == (n, dec.dim_S)
            assert _in_column_span(L, x @ L)
            assert x @ S == S
            xk = x.matpow(k)
            assert xk @ L == L.scale(alpha)
            r = (y.matpow(k) - Matrix.scalar(field, n, alpha)).rank()
            assert dec.dim_S <= r
            assert (x - y).rank() <= r
            assert dec.dim_L + dec.dim_S == n


# -- the rank-probe greedy loops the echelon helper replaced, as its oracle --


def _complete_basis_oracle(cols):
    field = cols.field
    n = cols.nrows
    current = cols
    added = []
    rank = current.rank()
    for i in range(n):
        if rank == n:
            break
        e = Matrix.identity(field, n).take_columns([i])
        cand = Matrix.hstack([current, e])
        if cand.rank() > rank:
            current = cand
            rank += 1
            added.append(e)
    if added:
        return Matrix.hstack(added)
    return Matrix.zeros(field, n, 0)


def _module_generators_oracle(x_f, span_cols, deg):
    field = x_f.field
    m = x_f.nrows
    current = Matrix.zeros(field, m, 0)
    for j in range(span_cols.ncols):
        v = span_cols.take_columns([j])
        cand = Matrix.hstack([current, v])
        if cand.rank() == current.rank():
            continue
        orbit = [v]
        for _ in range(deg - 1):
            orbit.append(x_f @ orbit[-1])
        current = Matrix.hstack([current] + orbit)
        assert current.rank() == current.ncols
    return current


def _invariant_complement_oracle(x_f, sub_cols, deg):
    field = x_f.field
    m = x_f.nrows
    current = sub_cols
    orbit_cols = []
    for i in range(m):
        if current.rank() == m:
            break
        e = Matrix.identity(field, m).take_columns([i])
        if Matrix.hstack([current, e]).rank() == current.rank():
            continue
        orbit = [e]
        for _ in range(deg - 1):
            orbit.append(x_f @ orbit[-1])
        grown = Matrix.hstack([current] + orbit)
        assert grown.rank() == current.rank() + deg
        current = grown
        orbit_cols.extend(orbit)
    if orbit_cols:
        return Matrix.hstack(orbit_cols)
    return Matrix.zeros(field, m, 0)


def _random_columns(field, m, c, rng):
    return Matrix.from_packed(
        field, [[rng.randrange(field.q) for _ in range(c)] for _ in range(m)])


def test_greedy_orbits_complete_basis_matches_rank_probe(rng):
    """deg = 1 completion by standard vectors: empty start, full-rank
    start, and random starts, dependent and rank-deficient ones included
    (a singular square one among them); the dependent columns of a start
    change no pick."""
    for field in FIELDS:
        for n in range(1, 8):
            ident = Matrix.identity(field, n)
            starts = [Matrix.zeros(field, n, 0),
                      random_invertible(n, field, rng)]
            for _ in range(6):
                c = rng.randint(1, n + 1)
                cols = _random_columns(field, n, c, rng)
                if rng.random() < 0.5:  # append a dependent column
                    cols = Matrix.hstack([cols, cols.take_columns([0]).scale(
                        rng.randrange(field.q))])
                starts.append(cols)
            # a singular square start, as _repair_block passes its block
            drop = Matrix.diagonal(field, [1] * (n - 1) + [0])
            starts.append(_random_columns(field, n, n, rng) @ drop @
                          _random_columns(field, n, n, rng))
            for start in starts:
                picks = _greedy_orbits(ident, start)
                assert picks == _complete_basis_oracle(start)
                _, pivots = start.rref()
                assert picks == _greedy_orbits(ident,
                                               start.take_columns(pivots))
            assert _greedy_orbits(ident, Matrix.zeros(field, n, 0)) == ident
            assert _greedy_orbits(ident, starts[1]).ncols == 0


def test_greedy_orbits_match_rank_probe_on_primary_blocks(rng):
    """Orbits of length deg >= 1 inside the primary blocks of prepared
    elements: module generators of a random submodule (dependent spanning
    columns, empty span) and invariant complements (empty, partial and
    full-rank starts) pick the same vectors in the same order."""
    degs = set()
    for field in FIELDS:
        for _ in range(8):
            n = rng.randint(2, 8)
            while True:
                k = rng.randint(2, 7)
                if k % field.p:
                    break
            alpha = rng.randrange(1, field.q)
            y = random_invertible(n, field, rng)
            x, dec = prepare_near_root(y, k, alpha)
            blocks = primary_blocks(x, k, alpha)
            prim = Matrix.hstack([basis for _, basis in blocks])
            cx = prim.inverse() @ x @ prim
            offset = 0
            for f, basis in blocks:
                d = basis.ncols
                deg = len(f) - 1
                degs.add(deg)
                x_f = cx.block(offset, offset + d, offset, offset + d)
                offset += d
                ident = Matrix.identity(field, d)
                # a submodule spanned by the orbits of a few random vectors,
                # listed with repeats so that some columns are dependent
                seeds = _random_columns(field, d, rng.randint(1, d), rng)
                cols = []
                for j in range(seeds.ncols):
                    v = seeds.take_columns([j])
                    orbit = [v]
                    for _ in range(deg):
                        orbit.append(x_f @ orbit[-1])
                    cols.extend(orbit)
                span = Matrix.hstack(cols)
                sub = _greedy_orbits(span, None, x_f, deg)
                assert sub == _module_generators_oracle(x_f, span, deg)
                empty = Matrix.zeros(field, d, 0)
                assert _greedy_orbits(empty, None, x_f, deg) == empty
                for start in (empty, sub, span, ident):
                    assert _greedy_orbits(ident, start, x_f, deg) == \
                        _invariant_complement_oracle(x_f, start, deg)
    assert max(degs) > 1


def test_greedy_orbits_reject_an_orbit_meeting_the_span():
    """With x the companion block of T^2 + T + 1 over GF(2) and the
    non-invariant start e2, the first candidate e1 is outside the span but
    its orbit x e1 = e2 is not: the orbit AssertionError."""
    field = GF(2)
    x = Matrix.from_packed(field, [[0, 1], [1, 1]])
    ident = Matrix.identity(field, 2)
    with pytest.raises(AssertionError, match="an orbit meets the span"):
        _greedy_orbits(ident, ident.take_columns([1]), x, 2)
    # from the invariant start 0 the orbit of e1 fills the space
    assert _greedy_orbits(ident, None, x, 2) == \
        Matrix.hstack([ident.take_columns([0]), x.take_columns([0])])


def test_split_decomposition_takes_one_matrix_per_subspace():
    """L and S are matrices in split form: S the standard vectors at
    ascending pivots and L the identity at the other rows, which the
    decomposition keeps as `free`, and T, the identity's rows there, acts
    by selection.  It refuses halves over two fields or of two heights,
    halves that do not fill the space, the empty space, and columns that
    are not a basis or are a basis in another form."""
    field = GF(5)
    x, dec = prepare_near_root(Matrix.diagonal(field, [2, 1, 1]), 2, 1)
    assert (dec.L.shape, dec.S.shape) == ((3, 2), (3, 1))
    assert dec == SplitDecomposition(dec.L, dec.S, 2, 1)
    assert Matrix.hstack([dec.L, dec.S]).take_columns([0, 1]) == dec.L
    assert dec.free == (1, 2)
    ident = Matrix.identity(field, 3)
    T = ident.take_columns(dec.free).transpose()
    m = Matrix.from_packed(field, [[1, 2, 3], [4, 0, 1], [2, 2, 4]])
    assert dec.take_free_rows(m) == T @ m
    assert dec.put_free_columns(m.take_columns([0, 2])) == \
        m.take_columns([0, 2]) @ T
    e0, e1, e2 = (ident.take_columns([i]) for i in range(3))
    cases = [
        (ident, Matrix.zeros(GF(7), 3, 0), "share the field"),
        (ident, Matrix.zeros(field, 2, 0), "row count"),
        (ident.take_columns([0, 1]), Matrix.zeros(field, 3, 0), "fill"),
        (Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 0), "empty"),
        # not a basis
        (ident.take_columns([0, 1]), e1, "split form"),
        # bases: an S column that is not a standard vector, descending
        # pivots, and an L that is not the identity at the free rows
        (ident.take_columns([1, 2]), e0 + e1, "split form"),
        (e1, Matrix.hstack([e2, e0]), "split form"),
        (ident.take_columns([2, 1]), e0, "split form"),
    ]
    for L, S, message in cases:
        with pytest.raises(ValueError, match=message):
            SplitDecomposition(L, S, 2, 1)


def test_split_form_needs_no_inverse_and_no_products_with_t(rng, monkeypatch):
    """prepare_near_root on 8 x 8 inputs over GF(7) runs three
    eliminations, is_invertible, the rref of y^k - alpha and the rank
    postcondition, and none for the split; check_split_condition's only
    products are x L, L C and those of the power C^k."""
    eliminations = []
    products = []
    gauss_jordan = Matrix._gauss_jordan
    matmul = Matrix.__matmul__

    def counted(self, *args, **kwargs):
        eliminations.append(self.shape)
        return gauss_jordan(self, *args, **kwargs)

    def recorded(a, b):
        products.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "_gauss_jordan", counted)
    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    field = GF(7)
    for dim_l in range(9):
        y, k, alpha = near_root_input(field, 8, dim_l, rng)
        del eliminations[:]
        x, dec = prepare_near_root(y, k, alpha)
        assert len(eliminations) == 3
        del products[:]
        check_split_condition(x, dec)
        x_l, l_c = ((8, 8), (8, dim_l)), ((8, dim_l), (dim_l, dim_l))
        assert products[:2] == [x_l, l_c]
        powers = k.bit_length() + bin(k).count("1") - 2 if dim_l else 0
        assert len(products) == 2 + powers


def _prepare_oracle(y, k, alpha):
    """(x, S, P) as prepare_near_root computed them before the closed
    form: S the greedy completion of L from the standard basis, P = [L | S]
    and x = [y L | S] P^-1."""
    field, n = y.field, y.nrows
    L = (y.matpow(k) - Matrix.scalar(field, n, alpha)).kernel_basis()
    S = _greedy_orbits(Matrix.identity(field, n), L)
    P = Matrix.hstack([L, S])
    return Matrix.hstack([y @ L, S]) @ P.inverse(), S, P


def _tampered(x, dec, entries):
    """x with entries {(i, j): value} of its matrix in the basis [L | S]
    replaced."""
    P = Matrix.hstack([dec.L, dec.S])
    rows = [list(row) for row in (P.inverse() @ x @ P).rows]
    for (i, j), value in entries.items():
        rows[i][j] = value
    return P @ Matrix.from_packed(x.field, rows) @ P.inverse()


def test_prepare_near_root_matches_greedy_oracle(rng):
    """The pivot-column S is the greedy completion, the closed-form x is
    [y L | S] P^-1, check_split_condition returns the top-left block of
    P^-1 x P, and each of its three checks fires on a tampered x: the six
    fields, n <= 8 and every dim L from 0 to n (GF(2) has no n = 1 case
    with L = 0)."""
    cases = 0
    for field in FIELDS:
        for n in range(1, 9):
            for dim_l in range(n + 1):
                case = near_root_input(field, n, dim_l, rng)
                if case is None:
                    assert (field.q, n, dim_l) == (2, 1, 0)
                    continue
                y, k, alpha = case
                x, dec = prepare_near_root(y, k, alpha)
                x_old, S_old, P = _prepare_oracle(y, k, alpha)
                assert dec.dim_L == dim_l
                assert dec.S == S_old
                assert x == x_old
                C = P.inverse() @ x @ P
                assert check_split_condition(x, dec) == C.block(0, dim_l, 0, dim_l)
                cases += 1
                if not dim_l:
                    continue
                zero_l = {(i, j): 0 for i in range(dim_l) for j in range(dim_l)}
                tampered = [(zero_l, "k-th root")]
                if dim_l < n:
                    tampered += [({(dim_l, 0): field.one}, "preserve L"),
                                 ({(0, dim_l): field.one}, "identity on S")]
                for entries, message in tampered:
                    with pytest.raises(ValueError, match=message):
                        check_split_condition(_tampered(x, dec, entries), dec)
    assert cases == 6 * 44 - 1


def _check_split_oracle(x, dec):
    """check_split_condition as one elimination computed it: the solve of
    [L | S] X = x L, whose bottom rows vanish when x preserves L, and the
    product x S."""
    field = x.field
    n = x.nrows
    if dec.n != n or dec.field != field:
        raise ValueError("decomposition does not match the matrix")
    dl = dec.dim_L
    C = Matrix.hstack([dec.L, dec.S]).solve(x @ dec.L)
    if C.block(dl, n, 0, dl) != Matrix.zeros(field, dec.dim_S, dl):
        raise ValueError("x does not preserve L")
    S = dec.S
    if x @ S != S:
        raise ValueError("x is not the identity on S")
    xl = C.block(0, dl, 0, dl)
    if dl and xl.matpow(dec.k) != Matrix.scalar(field, dl, dec.alpha):
        raise ValueError("x restricted to L is not a k-th root of alpha")
    return xl


def _outcome(check, x, dec):
    try:
        return check(x, dec)
    except ValueError as exc:
        return str(exc)


def test_check_split_condition_matches_solve_oracle(rng, monkeypatch):
    """The low-rank test x L = L C, x - 1 = U T gives the solve-based
    check's return value or ValueError message, in the same order, on the
    prepared x, on each of the three tamperings, on random invertible x and
    on x of the wrong size or shape: the six fields, n <= 8 and every dim L
    from 0 to n.  It runs no elimination."""
    eliminations = []
    gauss_jordan = Matrix._gauss_jordan

    def counted(self, *args, **kwargs):
        eliminations.append(self.shape)
        return gauss_jordan(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "_gauss_jordan", counted)
    outcomes = set()
    for field in FIELDS:
        for n in range(1, 9):
            for dim_l in range(n + 1):
                case = near_root_input(field, n, dim_l, rng)
                if case is None:
                    continue
                x, dec = prepare_near_root(*case)
                candidates = [x, random_invertible(n, field, rng),
                              Matrix.identity(field, n + 1),
                              Matrix.zeros(field, n, n + 1)]
                if dim_l:
                    zero_l = {(i, j): 0 for i in range(dim_l)
                              for j in range(dim_l)}
                    candidates.append(_tampered(x, dec, zero_l))
                if 0 < dim_l < n:
                    candidates += [_tampered(x, dec, {(dim_l, 0): field.one}),
                                   _tampered(x, dec, {(0, dim_l): field.one})]
                for cand in candidates:
                    expected = _outcome(_check_split_oracle, cand, dec)
                    del eliminations[:]
                    got = _outcome(check_split_condition, cand, dec)
                    assert eliminations == []
                    assert got == expected
                    outcomes.add(expected if isinstance(expected, str)
                                 else "returned")
    assert {o.split(" (")[0] for o in outcomes} == {
        "returned", "decomposition does not match the matrix",
        "shape mismatch", "x does not preserve L",
        "x is not the identity on S",
        "x restricted to L is not a k-th root of alpha"}


def test_prepare_worked_examples():
    field = GF(5)
    # y^k = alpha I already: x = y, S empty
    y = Matrix.diagonal(field, [2, 3])  # y^2 = diag(4,4) = 4I
    x, dec = prepare_near_root(y, 2, 4)
    assert x == y and dec.dim_S == 0
    # y = diag(2,1), k=2, alpha=1: L = span{e2}, x = identity
    y = Matrix.diagonal(field, [2, 1])
    x, dec = prepare_near_root(y, 2, 1)
    assert x == Matrix.identity(field, 2)
    assert dec.dim_S == 1 and dec.dim_L == 1
    assert (x - y).rank() == 1
    # y^k - alpha I invertible: L = 0, x = identity
    y = Matrix.diagonal(field, [2, 3])
    x, dec = prepare_near_root(y, 2, 1)  # y^2 - I = 3I invertible
    assert x == Matrix.identity(field, 2)
    assert dec.dim_S == 2 and dec.dim_L == 0


def test_prepare_rejects_bad_inputs():
    field = GF(5)
    y = Matrix.diagonal(field, [2, 1])
    with pytest.raises(ValueError):
        prepare_near_root(y, 5, 1)  # gcd(k, char) != 1
    with pytest.raises(ValueError):
        prepare_near_root(y, 2, 0)  # alpha = 0
    with pytest.raises(ValueError):
        prepare_near_root(Matrix.diagonal(field, [1, 0]), 2, 1)  # singular


def test_non_integer_k_and_alpha_rejected():
    """k and alpha go through operator.index: a float or a string is a
    ValueError (not the TypeError of math.gcd), and a numpy integer is
    stored as an int."""
    field = GF(5)
    y = Matrix.diagonal(field, [2, 1])
    empty = Matrix.zeros(field, 2, 0)
    for k, alpha in ((2.0, 1), (2, 1.5), (2, 1.0), ("2", 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            prepare_near_root(y, k, alpha)
        with pytest.raises(ValueError, match="must be an integer"):
            SplitDecomposition(y, empty, k, alpha)
    x, dec = prepare_near_root(y, np.int64(2), np.int64(1))
    assert (type(dec.k), type(dec.alpha)) == (int, int)
    assert (x, dec) == prepare_near_root(y, 2, 1)


def test_packed_scalars_outside_field_rejected():
    """Packed values must lie in [0, q): nothing reduces them silently."""
    for field, bad in ((GF(5), 5), (GF(5), -1), (GF(3, 2), 9)):
        with pytest.raises(ValueError):
            Matrix.from_packed(field, [[1, bad], [0, 1]])
        with pytest.raises(ValueError):
            Matrix.scalar(field, 2, bad)
        with pytest.raises(ValueError):
            Matrix.diagonal(field, [1, bad])
        with pytest.raises(ValueError):
            Matrix.identity(field, 2).scale(bad)
        y = Matrix.identity(field, 2)
        with pytest.raises(ValueError):
            prepare_near_root(y, 2, bad)
        with pytest.raises(ValueError):
            SplitDecomposition(y, Matrix.zeros(field, 2, 0), 2, bad)


def test_check_split_condition_rejects_tampering():
    field = GF(5)
    y = Matrix.diagonal(field, [2, 1])
    x, dec = prepare_near_root(y, 2, 1)
    bad = x + Matrix.from_packed(field, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        check_split_condition(bad, dec)


def test_approx_centralize_trivial_cases(rng):
    field = GF(7)
    y = Matrix.diagonal(field, [1, 1, 6])
    x, dec = prepare_near_root(y, 2, 1)
    # phi already commuting: psi = phi
    phi = Matrix.diagonal(field, [2, 3, 5])
    assert approx_centralize(x, dec, phi) == phi
    # scalar x: everything commutes
    y = Matrix.scalar(field, 3, 2)
    x, dec = prepare_near_root(y, 3, 1)  # y^3 = 8 I = I
    assert x == y
    phi = random_invertible(3, field, rng)
    assert approx_centralize(x, dec, phi) == phi


def test_bound_violation_carries_a_reproducer(monkeypatch):
    """The rank bound of approx_centralize cannot trip (see the module
    docstring); with dim S read as -100 it does, and the error's payload
    holds the field itself and enough to replay the instance."""
    field = GF(5)
    x, dec = prepare_near_root(Matrix.diagonal(field, [1, 4]), 2, 1)
    phi = Matrix.from_packed(field, [[1, 1], [0, 1]])
    monkeypatch.setattr(SplitDecomposition, "dim_S",
                        property(lambda self: -100))
    with pytest.raises(constructions.BoundViolationError) as info:
        approx_centralize(x, dec, phi)
    payload = info.value.payload
    assert payload["field"] is field
    assert payload["x"] == [[1, 0], [0, 4]]
    assert payload["phi"] == [[1, 1], [0, 1]]
    assert (payload["k"], payload["alpha"], payload["dim_S"]) == (2, 1, -100)
    assert payload["commutator_rank"] == 1
    assert payload["achieved"] == 1 and payload["bound"] == 8 - 300
    monkeypatch.undo()
    replayed = prepare_near_root(
        Matrix.from_packed(payload["field"], payload["x"]), payload["k"],
        payload["alpha"])
    assert replayed[0] == x


def test_approx_centralize_exhaustive_oracle_gf5():
    """2x2 over GF(5), x = diag(1,4): the 16 invertible commuting
    matrices are the diagonal ones; the best approximation of
    [[1,1],[0,1]] among them sits at rank distance exactly 1."""
    field = GF(5)
    x, dec = prepare_near_root(Matrix.diagonal(field, [1, 4]), 2, 1)
    assert x == Matrix.diagonal(field, [1, 4]) and dec.dim_S == 0
    phi = Matrix.from_packed(field, [[1, 1], [0, 1]])
    commutator_rank = (x @ phi - phi @ x).rank()
    assert commutator_rank == 1
    commuting = []
    for a in range(1, 5):
        for d in range(1, 5):
            commuting.append(Matrix.diagonal(field, [a, d]))
    assert len(commuting) == 16
    oracle = min((phi - psi).rank() for psi in commuting)
    assert oracle == 1
    psi = approx_centralize(x, dec, phi)
    assert x @ psi == psi @ x and psi.is_invertible()
    achieved = (phi - psi).rank()
    k = dec.k
    assert oracle <= achieved <= 2 * k * k * commutator_rank + 3 * dec.dim_S


# -- approx_centralize through two changes of basis, as its oracle ----------


def _repair_block_oracle(x_f, a_f, deg):
    field = a_f.field
    m = a_f.nrows
    ker = a_f.kernel_basis()
    if not ker.ncols:
        return Matrix.zeros(field, m, m)
    ident = Matrix.identity(field, m)
    _, im_pivots = a_f.rref()
    compl_of_image = _greedy_orbits(ident, a_f.take_columns(im_pivots),
                                    x_f, deg)
    kdom = _greedy_orbits(ker, None, x_f, deg)
    rest = _greedy_orbits(ident, kdom, x_f, deg)
    domain = Matrix.hstack([kdom, rest])
    image = Matrix.hstack([compl_of_image,
                           Matrix.zeros(field, m, rest.ncols)])
    return image @ domain.inverse()


def _approx_centralize_oracle(x, dec, phi):
    """psi as approx_centralize built it in the basis P = [W | S'] of
    im(x - 1) and ker(x - 1), then in the primary basis prim inside W:
    average the W block over k conjugations, repair each primary block and
    the S' block, and reassemble with block2."""
    field = x.field
    n = x.nrows
    k = dec.k
    if x @ phi == phi @ x:
        return phi
    ident = Matrix.identity(field, n)
    b = x - ident
    _, b_pivots = b.rref()
    w_cols = b.take_columns(b_pivots)
    s_cols = b.kernel_basis()
    m = w_cols.ncols
    P = Matrix.hstack([w_cols, s_cols])
    Pinv = P.inverse()
    C = Pinv @ x @ P
    x_w = C.block(0, m, 0, m)
    F = Pinv @ phi @ P
    f_ww = F.block(0, m, 0, m)
    f_ss = F.block(m, n, m, n)
    x_w_inv = x_w.inverse()
    a_bar = Matrix.zeros(field, m, m)
    left = Matrix.identity(field, m)
    right = Matrix.identity(field, m)
    for _ in range(k):
        a_bar = a_bar + left @ f_ww @ right
        left = left @ x_w_inv
        right = right @ x_w
    a_bar = a_bar.scale(field.inv(k % field.p))
    blocks = primary_blocks(x_w, k, dec.alpha)
    prim = Matrix.hstack([basis for _, basis in blocks])
    prim_inv = prim.inverse()
    cx = prim_inv @ x_w @ prim
    ca = prim_inv @ a_bar @ prim
    repaired = []
    offset = 0
    for f, basis in blocks:
        end = offset + basis.ncols
        x_f = cx.block(offset, end, offset, end)
        a_f = ca.block(offset, end, offset, end)
        repaired.append(a_f + _repair_block_oracle(x_f, a_f, len(f) - 1))
        offset = end
    fixed_w = prim @ _block_diagonal(field, repaired) @ prim_inv
    fixed_s = f_ss + _repair_block_oracle(Matrix.identity(field, n - m),
                                          f_ss, 1)
    psi_coords = Matrix.block2(
        fixed_w, Matrix.zeros(field, m, n - m),
        Matrix.zeros(field, n - m, m), fixed_s)
    return P @ psi_coords @ Pinv


def test_approx_centralize_matches_two_basis_oracle(rng, monkeypatch):
    """psi is byte-identical to the two-basis construction: the six
    fields, n <= 8, every dim L from 0 to n, alpha = 1 and alpha != 1, k
    cycling through the values <= 6 coprime to p for which such an alpha
    exists, S' = ker(x - 1) empty and non-empty, and singular blocks that
    the repair corrects both in W and in S'."""
    repairs = set()
    real_repair = constructions._repair_block

    def recorded(x_f, a_f, deg):
        R = real_repair(x_f, a_f, deg)
        if R.rank():
            repairs.add(x_f == Matrix.identity(x_f.field, x_f.nrows))
        return R

    monkeypatch.setattr(constructions, "_repair_block", recorded)
    seen_k = set()
    s_prime = set()
    cases = 0
    for field in FIELDS:
        for alpha_one in (True, False):
            # alpha = c^k != 1 for some c exactly when q - 1 does not divide k
            ks = [k for k in range(1, 7) if k % field.p
                  and (alpha_one or k % (field.q - 1))]
            if not ks:
                continue
            turn = 0
            for n in range(1, 9):
                for dim_l in range(n + 1):
                    k = ks[turn % len(ks)]
                    turn += 1
                    case = near_root_input(field, n, dim_l, rng,
                                           alpha_one=alpha_one, k=k)
                    if case is None:
                        continue
                    y, k, alpha = case
                    x, dec = prepare_near_root(y, k, alpha)
                    phi = random_invertible(n, field, rng)
                    psi = approx_centralize(x, dec, phi)
                    assert psi == _approx_centralize_oracle(x, dec, phi)
                    seen_k.add((field.q, k))
                    s_prime.add((x - Matrix.identity(field, n)).rank() < n)
                    cases += 1
    assert seen_k == {(field.q, k) for field in FIELDS
                      for k in range(1, 7) if k % field.p}
    assert s_prime == {False, True}
    assert repairs == {False, True}
    assert cases > 450


def _non_commuting_cases(rng, count):
    """(x, dec, phi) with x phi != phi x, drawn over the six fields in
    turn (over GF(2) most draws give x = 1)."""
    cases = []
    for draw in itertools.count():
        if len(cases) == count:
            return cases
        field = FIELDS[draw % len(FIELDS)]
        n = rng.randint(2, 8)
        case = near_root_input(field, n, rng.randint(1, n), rng)
        if case is None:
            continue
        x, dec = prepare_near_root(*case)
        phi = random_invertible(n, field, rng)
        if x @ phi != phi @ x:
            cases.append((x, dec, phi))


def test_approx_centralize_eliminates_x_minus_1_once(rng, monkeypatch):
    """S' = ker(x - 1) is read off the reduced form that gives W, so b =
    x - 1 is eliminated once per non-commuting call, and no n x n x n
    product has x as a factor: x - 1 = U T serves the commutator, the
    change of basis and the closing check."""
    eliminated = []
    products = []
    gauss_jordan = Matrix._gauss_jordan
    matmul = Matrix.__matmul__

    def counted(self, *args, **kwargs):
        eliminated.append(self)
        return gauss_jordan(self, *args, **kwargs)

    def recorded(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "_gauss_jordan", counted)
    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    for x, dec, phi in _non_commuting_cases(rng, 60):
        n = x.nrows
        b = x - Matrix.identity(x.field, n)
        del eliminated[:], products[:]
        approx_centralize(x, dec, phi)
        assert sum(m == b for m in eliminated) == 1
        assert not any((a == x or c == x) and a.shape == c.shape == (n, n)
                       for a, c in products)


def test_approx_centralize_closing_check_catches_non_commuting_psi(
        rng, monkeypatch):
    """A mutant whose repaired blocks are replaced by a random invertible
    matrix yields an invertible psi that does not commute with x; the
    closing check in the form U (T psi) = (psi U) T raises the commute
    AssertionError."""
    real = constructions._block_diagonal
    calls = []

    def mutant(field, mats):
        calls.append(1)
        if len(calls) % 2:  # the first call assembles x's blocks
            return real(field, mats)
        return random_invertible(sum(m.nrows for m in mats), field, rng)

    monkeypatch.setattr(constructions, "_block_diagonal", mutant)
    cases = [case for case in _non_commuting_cases(rng, 40)
             if case[0].field == GF(7)]
    assert len(cases) >= 5
    for x, dec, phi in cases:
        with pytest.raises(AssertionError, match="does not commute"):
            approx_centralize(x, dec, phi)


def _closure(generators, cap=10**5):
    ident = Matrix.identity(generators[0].field, generators[0].nrows)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = m @ g
                key = prod.key()
                if key not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("closure exceeded cap")
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return seen


def _is_upper_unipotent_block(m, n, symmetric):
    field = m.field
    if m.block(0, n, 0, n) != Matrix.identity(field, n):
        return False
    if m.block(n, 2 * n, n, 2 * n) != Matrix.identity(field, n):
        return False
    if m.block(n, 2 * n, 0, n) != Matrix.zeros(field, n, n):
        return False
    b = m.block(0, n, n, 2 * n)
    return (not symmetric) or b == b.transpose()


def test_niceblock_invariants():
    for p in (2, 3, 5):
        field = GF(p)
        for n in (2, 3):
            for group in (SL, SP):
                cert = build_niceblock(n, field, group)
                x = cert.x.matrix
                ident = Matrix.identity(field, 2 * n)
                assert x.matpow(p) == ident and x != ident
                assert length(x, PRANK).value == Fraction(1, 2)
                a_mats = [g.matrix for g in cert.A_generators]
                for gm in a_mats:
                    assert gm.matpow(p) == ident
                    assert x @ gm == gm @ x
                    assert _is_upper_unipotent_block(gm, n, group == SP)
                for a, b in itertools.combinations(a_mats, 2):
                    assert a @ b == b @ a
                for h in cert.H_generators:
                    hm = h.matrix
                    assert x @ hm == hm @ x
                # closure of A under H-conjugation, by block shape
                for u in cert.A_generators:
                    for h in cert.H_generators:
                        c = (h.inverse() * u * h).matrix
                        assert _is_upper_unipotent_block(c, n, group == SP)
                assert length(cert.witness_u, PRANK).value >= Fraction(1, 2)
                assert length(cert.witness_h, PRANK).value >= Fraction(1, 2)
                u, h = cert.commutator_u, cert.commutator_h
                comm = (u.inverse() * h.inverse() * u * h).matrix
                assert length(comm, PRANK).value == cert.commutator_length
                assert cert.commutator_length >= \
                    Fraction(1, 3) * (1 - Fraction(2, n))


def test_niceblock_commutator_pair_clears_target():
    """The stored commutator pair, B = diag(i mod q) against the doubled
    shift, has length at least (n - 1)/(2n) > (1/3)(1 - 2/n): exactly
    (n - 1)/(2n) when n = 1 mod q, where one diagonal entry of the
    commutator block vanishes, and 1/2 otherwise."""
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        field = GF(p, e)
        for n in range(2, 13):
            shift = _shift_matrix(field, n)
            for group in (SL, SP):
                form = (standard_symplectic_form(field, 2 * n)
                        if group == SP else None)
                _, _, ell = _commutator_pair(field, n, group, form, shift)
                assert ell >= Fraction(n - 1, 2 * n)
                assert ell > Fraction(1, 3) * (1 - Fraction(2, n))
                expect = Fraction(n - 1, 2 * n) if n % field.q == 1 \
                    else Fraction(1, 2)
                assert ell == expect


def test_niceblock_a_group_orders():
    """Enumerated A-group orders at half size 2: q^4 for SL, q^3 for Sp."""
    cert = build_niceblock(2, GF(3), SL)
    assert len(_closure([g.matrix for g in cert.A_generators])) == 81
    cert = build_niceblock(2, GF(3), SP)
    assert len(_closure([g.matrix for g in cert.A_generators])) == 27


def test_niceblock_centralizer_complete_small():
    """For n = 2, q in {2, 3}: the group generated by A, H and the SL
    scalars is exactly the full centralizer of x in SL_4(q), obtained
    independently by filtering the commutant span."""
    expected = {2: 96, 3: 3888}
    for q in (2, 3):
        field = GF(q)
        cert = build_niceblock(2, field, SL)
        x = cert.x.matrix
        basis = commutant_basis(x)
        flats = np.stack([b.packed().reshape(-1) for b in basis])
        centralizer_keys = set()
        for combo in itertools.product(range(q), repeat=len(basis)):
            vals = (np.array(combo) @ flats) % q
            m = Matrix.from_packed(field, vals.reshape(4, 4))
            if m.is_invertible() and m.det() == field.one:
                centralizer_keys.add(m.key())
        assert len(centralizer_keys) == expected[q]
        gens = [g.matrix for g in cert.A_generators]
        gens += [g.matrix for g in cert.H_generators]
        for lam in field.nonzero_elements():
            if field.pow(lam, 4) == field.one:
                gens.append(Matrix.scalar(field, 4, lam))
        generated = _closure(gens)
        assert set(generated) == centralizer_keys


def test_niceblock_rejects_small_n():
    for half_size in (1, 0):
        with pytest.raises(ValueError,
                           match="half size must be >= 2, got %d" % half_size):
            build_niceblock(half_size, GF(3), SL)


def test_project_to_sl_examples(rng):
    field = GF(5)
    g = Matrix.diagonal(field, [2, 1, 1])
    h = project_to_sl(g)
    assert h.group_tag == SL
    assert h.matrix.det() == field.one
    assert (g - h.matrix).rank() == 1
    # already determinant one: unchanged
    s = Matrix.diagonal(field, [2, 3, 1])
    assert project_to_sl(s).matrix == s
    for _ in range(200):
        f = FIELDS[rng.randrange(len(FIELDS))]
        n = rng.randint(1, 5)
        g = random_invertible(n, f, rng)
        h = project_to_sl(g)
        assert h.matrix.det() == f.one
        assert (g - h.matrix).rank() <= 1


def test_commutator_witness_identity():
    elements = enumerate_sl2(GF(3))
    ident = Matrix.identity(GF(3), 2)
    witness = commutator_witness(ident, elements)
    assert witness is not None
    a, b = witness
    assert a.inverse() @ b.inverse() @ a @ b == ident


def test_commutator_witness_rejects_classical_element():
    """Elements are Matrix or Permutation values; a ClassicalElement
    wrapper is refused with TypeError."""
    elements = enumerate_sl2(GF(3))
    g = ClassicalElement(Matrix.identity(GF(3), 2), SL)
    with pytest.raises(TypeError):
        commutator_witness(g, elements)


def test_sl2_3_witnesses_from_ambient_gl():
    """Frozen counts: within SL_2(3) only 8 of 24 elements are
    commutators of SL pairs, but all 24 are commutators of GL_2(3)
    pairs."""
    sl = enumerate_sl2(GF(3))
    sl_table = commutator_witness_table(sl)
    self_witnessed = [m for m in sl if sl_table.get(m.key()) is not None]
    assert len(self_witnessed) == 8
    gl_table = commutator_witness_table(enumerate_gl2(GF(3)))
    for m in sl:
        witness = gl_table.get(m.key())
        assert witness is not None
        a, b = witness
        assert a.inverse() @ b.inverse() @ a @ b == m


def test_commutator_witness_matches_table_lookup():
    """The early-exit scan returns the pair the table records, read with
    table.get, for every element of A_5 and of PSL_2(5)."""
    from msg_lab.groups import enumerate_alternating, enumerate_psl2, psl_canonical
    key_fn = lambda m: psl_canonical(m).key()
    for elements, kf in ((enumerate_alternating(5), None),
                         (enumerate_psl2(GF(5)), key_fn)):
        table = commutator_witness_table(elements, key_fn=kf)
        for g in elements:
            expected = table.get((kf or _plain_key)(g))
            assert commutator_witness(g, elements, key_fn=kf) == expected


def _plain_key(g):
    return g.images if isinstance(g, Permutation) else g.key()


def test_commutator_witness_permutations():
    """Witness search works on permutation groups too."""
    from msg_lab.groups import enumerate_alternating
    elements = enumerate_alternating(5)
    g = Permutation.from_cycles(5, [(0, 1, 2)])
    witness = commutator_witness(g, elements)
    assert witness is not None
    a, b = witness
    assert a.inverse() * b.inverse() * a * b == g
