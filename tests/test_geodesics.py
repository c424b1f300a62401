import dataclasses
import itertools
from fractions import Fraction

import pytest

from msg_lab.geodesics import hamming_chain, rank_metric_chain, verify_chain
from msg_lab.gf import GF
from msg_lab.groups import (Permutation, proj_equal, random_perm, random_sl)
from msg_lab.linalg import Matrix, min_rank_shift
from msg_lab.metrics import (MetricValue, hamming_distance,
                             projective_rank_distance)

from conftest import FIELDS


def test_hamming_chain_identity_target():
    chain = hamming_chain(Permutation.identity(6), Fraction(1, 2))
    assert chain.elements == (Permutation.identity(6),)
    assert chain.step_lengths == ()
    assert chain.total == 0 and chain.overshoot == 0
    assert verify_chain(chain).valid


def test_hamming_chain_whole_cycles_no_overshoot():
    sigma = Permutation.from_cycles(10, [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)])
    chain = hamming_chain(sigma, Fraction(1, 2))
    assert [s.value for s in chain.step_lengths] == [
        Fraction(1, 2), Fraction(1, 2)]
    assert chain.total == 1 and chain.overshoot == 0
    assert chain.splits == 0 and chain.parity_repairs == 0
    assert verify_chain(chain).valid


def test_hamming_chain_ten_cycle_split():
    """A 10-cycle under step cap 1/2 splits once: steps 5/10 then 6/10,
    overshoot exactly 1/10."""
    sigma = Permutation.from_cycles(10, [tuple(range(10))])
    chain = hamming_chain(sigma, Fraction(1, 2))
    assert [s.value for s in chain.step_lengths] == [
        Fraction(1, 2), Fraction(3, 5)]
    assert chain.total == Fraction(11, 10)
    assert chain.overshoot == Fraction(1, 10)
    assert chain.splits == 1 and chain.parity_repairs == 0
    # the intermediate element is the 5-point prefix cycle
    assert chain.elements[1] == Permutation.from_cycles(10, [tuple(range(5))])
    assert verify_chain(chain).valid


def test_hamming_chain_merges_odd_increments():
    """Two fresh transpositions fuse into one even step when the combined
    support fits."""
    sigma = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    chain = hamming_chain(sigma, Fraction(1, 2))
    assert len(chain.step_lengths) == 1
    assert chain.step_lengths[0].value == 1
    assert chain.overshoot == 0 and chain.parity_repairs == 0
    assert verify_chain(chain).valid


def test_hamming_chain_bridges_odd_increments():
    """When merging is impossible the chain inserts two transposition
    repairs, 2/n overshoot each, and still lands exactly on the target."""
    sigma = Permutation.from_cycles(8, [(0, 1), (2, 3, 4, 5, 6, 7)])
    chain = hamming_chain(sigma, Fraction(3, 8))
    assert chain.parity_repairs == 2 and chain.splits == 1
    assert chain.overshoot == Fraction(1 + 2 * 2, 8)
    assert chain.elements[-1] == sigma
    for s in chain.step_lengths:
        assert s.value <= Fraction(3, 8) + Fraction(2, 8)
    assert verify_chain(chain).valid


def test_hamming_chain_step_bounds():
    sigma = Permutation.from_cycles(6, [(0, 1, 2)])
    with pytest.raises(ValueError):
        hamming_chain(sigma, Fraction(1, 7))
    with pytest.raises(ValueError):
        hamming_chain(sigma, Fraction(3, 2))
    with pytest.raises(TypeError):
        hamming_chain((1, 0), Fraction(1, 2))


def test_hamming_chain_random_property(rng):
    for trial in range(40):
        n = rng.randint(5, 12)
        sigma = random_perm(n, rng.randrange(10**6))
        caps = [Fraction(2, n), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        ms = caps[trial % 4]
        if ms < Fraction(1, n):
            ms = Fraction(1, n)
        chain = hamming_chain(sigma, ms)
        report = verify_chain(chain)
        assert report.valid, report.mismatches
        assert report.max_step <= ms + Fraction(2, n)
        assert chain.overshoot == \
            Fraction(chain.splits + 2 * chain.parity_repairs, n)
        assert chain.total == chain.target_length + chain.overshoot
        assert chain.target_length == hamming_distance(
            Permutation.identity(n), sigma).value


def test_rank_chain_transvection_single_step():
    field = GF(5)
    g = Matrix.from_packed(field, [[1, 1], [0, 1]])
    chain = rank_metric_chain(g, Fraction(1, 2))
    assert [s.value for s in chain.step_lengths] == [Fraction(1, 2)]
    assert chain.total == Fraction(1, 2) and chain.overshoot == 0
    assert verify_chain(chain).valid


def test_rank_chain_diagonal_frozen():
    field = GF(7)
    g = Matrix.diagonal(field, [2, 4, 1])
    assert g.det() == field.one
    chain = rank_metric_chain(g, Fraction(1, 3))
    assert [s.value for s in chain.step_lengths] == [
        Fraction(1, 3), Fraction(1, 3)]
    assert chain.total == Fraction(2, 3) and chain.overshoot == 0
    assert verify_chain(chain).valid


def test_rank_chain_identity_target():
    field = GF(3)
    chain = rank_metric_chain(Matrix.identity(field, 4), Fraction(1, 4))
    assert chain.step_lengths == ()
    assert chain.total == 0
    assert verify_chain(chain).valid


def test_rank_chain_scalar_target_is_projectively_trivial():
    field = GF(5)
    g = Matrix.scalar(field, 4, 2)  # det 16 = 1
    assert g.det() == field.one
    chain = rank_metric_chain(g, Fraction(1, 4))
    assert chain.step_lengths == ()
    assert verify_chain(chain).valid


def test_rank_chain_rejects_bad_inputs():
    field = GF(5)
    with pytest.raises(ValueError):
        rank_metric_chain(Matrix.diagonal(field, [2, 1]), Fraction(1, 2))
    with pytest.raises(ValueError):
        rank_metric_chain(Matrix.identity(field, 4), Fraction(1, 8))


def test_rank_chain_random_property(rng):
    for trial in range(30):
        field = FIELDS[trial % len(FIELDS)]
        n = rng.randint(2, 5)
        g = random_sl(n, field, rng.randrange(10**6))
        chain = rank_metric_chain(g, Fraction(1, n))
        report = verify_chain(chain)
        assert report.valid, report.mismatches
        r = min_rank_shift(g.matrix, Matrix.identity(field, n)).r
        assert len(chain.step_lengths) == r
        for s in chain.step_lengths:
            assert s.value == Fraction(1, n)
        assert chain.overshoot == 0
        assert proj_equal(chain.elements[-1], g.matrix)


def _reference_chain(g):
    """The elements of rank_metric_chain(g) as the construction with
    Matrix products computes them, and how many of its probes were pairwise
    sums: each probe is a column vector, the factor I + R is peeled off by
    its inverse, and each element is the product of the factors so far."""
    field, n = g.field, g.nrows
    ident = Matrix.identity(field, n)
    zero = Matrix.zeros(field, n, 1)
    alpha = min_rank_shift(g, ident).argmins[0]
    x = g.scale(field.inv(alpha))
    probes = [Matrix.from_packed(field, [[int(k in idx)] for k in range(n)])
              for idx in [(i,) for i in range(n)]
              + list(itertools.combinations(range(n), 2))]
    factors = []
    pairs = 0
    current = x
    while (current - ident).rank():
        d = current - ident
        w = next(v for v in probes
                 if d @ v != zero and d @ (current @ v) != zero)
        dw = d @ w
        dxw = d @ (current @ w)
        z = next(v for v in probes
                 if (v.transpose() @ dw).entry(0, 0)
                 and (v.transpose() @ dxw).entry(0, 0))
        pairs += probes.index(w) >= n
        pairs += probes.index(z) >= n
        pivot = (z.transpose() @ dw).entry(0, 0)
        factor = ident + (dw @ (z.transpose() @ d)).scale(field.inv(pivot))
        factors.append(factor)
        current = factor.inverse() @ current
    elements = [ident]
    for f in factors:
        elements.append(elements[-1] @ f)
    return elements, pairs


# over GF(2), targets whose z probe is a pairwise sum; at n = 3 and 4 a
# later pair also qualifies and gives another chain, so the order counts
PAIR_PROBE_TARGETS = [[[1, 1], [1, 0]], [[0, 0, 1], [1, 1, 0], [0, 1, 0]],
                      [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1]]]


def test_rank_chain_matches_the_matrix_construction(rng, monkeypatch):
    """Rank-one updates give the elements, step lengths and total of the
    construction by Matrix products, with no inverse and at most one
    product per step, in every kernel regime: GF(2), GF(7), the pair
    tables of GF(4), GF(9), GF(2^6), and the scalar regime of GF(2^11) and
    GF(65537), at n = 2 ... 8."""
    calls = {"inverse": 0, "__matmul__": 0}
    for name in calls:
        def counted(*args, _fn=getattr(Matrix, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(Matrix, name, counted)

    two = GF(2)
    cases = [Matrix.from_packed(two, rows) for rows in PAIR_PROBE_TARGETS]
    for field in (two, GF(2, 2), GF(7), GF(3, 2), GF(2, 6), GF(2, 11),
                  GF(65537)):
        cases += [random_sl(n, field, rng.randrange(10**6)).matrix
                  for n in range(2, 9)]
    pairs = []
    for g in cases:
        expected, used = _reference_chain(g)
        pairs.append(used)
        for name in calls:
            calls[name] = 0
        chain = rank_metric_chain(g, Fraction(1, g.nrows))
        steps = len(chain.step_lengths)
        assert calls["inverse"] == 0
        assert calls["__matmul__"] <= steps
        assert chain.elements == tuple(expected)
        lengths = [projective_rank_distance(a, b)
                   for a, b in zip(expected, expected[1:])]
        assert list(chain.step_lengths) == lengths
        assert chain.total == sum(s.value for s in lengths)
    assert all(pairs[:len(PAIR_PROBE_TARGETS)])


def test_verify_chain_detects_tampering():
    sigma = Permutation.from_cycles(10, [tuple(range(10))])
    chain = hamming_chain(sigma, Fraction(1, 2))
    bad = dataclasses.replace(chain, total=Fraction(2))
    report = verify_chain(bad)
    assert not report.valid
    assert any("total" in m for m in report.mismatches)
    bad = dataclasses.replace(chain, elements=chain.elements[:-1] +
                              (Permutation.identity(10),))
    assert not verify_chain(bad).valid
    bad = dataclasses.replace(chain, step_lengths=chain.step_lengths[:-1])
    assert not verify_chain(bad).valid
    report = verify_chain(dataclasses.replace(chain, kind="no-such-metric"))
    assert not report.valid
    assert report.mismatches == ("unknown metric kind 'no-such-metric'",)


def _left_translate(chain, h, op):
    """The chain moved by h on the left, target included: every step keeps
    its length (both metrics are bi-invariant), so only the start moves
    off the identity."""
    return dataclasses.replace(chain, elements=tuple(op(h, g) for g in
                                                     chain.elements),
                               target=op(h, chain.target))


def _mismatch_cases(chain, h, op, other, wrong_end):
    """(tampering, expected mismatches) for one valid chain with two steps:
    h moves the start, other replaces the target."""
    first, last = chain.step_lengths
    kind, total = chain.kind, chain.total
    off = MetricValue(first.value / 2, kind)
    return [
        (dataclasses.replace(chain, elements=()), ("empty chain",)),
        (_left_translate(chain, h, op),
         ("chain does not start at the identity",)),
        (dataclasses.replace(chain, target=other), (wrong_end,)),
        (dataclasses.replace(chain, step_lengths=(off, last)),
         ("step 0 annotated %s but recomputed %s" % (off.value, first.value),)),
        (dataclasses.replace(chain, step_lengths=(first,)),
         ("missing step annotation 1",)),
        (dataclasses.replace(chain, step_lengths=(first, last, first)),
         ("extra step annotations",)),
        (dataclasses.replace(chain, total=total + 1),
         ("total annotated %s but recomputed %s" % (total + 1, total),)),
        (dataclasses.replace(chain, overshoot=chain.overshoot + 1),
         ("overshoot annotation inconsistent",)),
        (dataclasses.replace(chain, overshoot=Fraction(-1),
                             target_length=total + 1),
         ("negative overshoot",)),
    ]


def test_verify_chain_mismatch_messages():
    """Each mismatch branch of verify_chain but the unknown kind (tested
    above), one tampering each, on a Hamming chain and on a rank chain,
    matched to its message; each tampering keeps the other annotations
    consistent, so it is the only mismatch.  A rank chain that ends at a
    scalar multiple of its target still verifies (the end is compared
    projectively)."""
    sigma = Permutation.from_cycles(10, [tuple(range(10))])
    hamming = hamming_chain(sigma, Fraction(1, 2))
    field = GF(7)
    rank = rank_metric_chain(Matrix.diagonal(field, [2, 4, 1]), Fraction(1, 3))
    h = Matrix.from_packed(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    cases = (
        _mismatch_cases(hamming, Permutation.from_cycles(10, [(0, 1)]),
                        lambda a, b: a * b, Permutation.identity(10),
                        "chain does not end at the target")
        + _mismatch_cases(rank, h, lambda a, b: a @ b,
                          Matrix.diagonal(field, [4, 2, 1]),
                          "chain does not end at the target (projectively)")
        + [(dataclasses.replace(rank, target=rank.target.scale(3)), ())])
    for chain in (hamming, rank):
        assert verify_chain(chain).valid
    for tampered, expected in cases:
        report = verify_chain(tampered)
        assert report.mismatches == expected
        assert report.valid == (not expected)
