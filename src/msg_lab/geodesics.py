"""Stepwise chains between the identity and a target, with small steps and
exactly accounted overshoot.

hamming_chain walks a permutation out one cycle at a time.  Cycles longer
than max_step * n are split into a prefix and extensions; the algebraic
identity (x0 .. x_{b-1}) = (x0 .. x_{a-1}) (x_{a-1} .. x_{b-1}) makes each
extension a single cycle touching one old point, so a split costs exactly
1/n of overshoot.  Even-length cycle increments are odd permutations;
consecutive odd increments are either merged into one step (when both are
freshly started cycles and the combined support fits the step budget) or
bridged by a pair of transposition repair steps inside already-visited
support, costing 2/n each.  The second repair is the first one conjugated
by the intervening increments, so the chain product is unchanged.

rank_metric_chain peels the alpha-twisted target X = alpha^-1 g (alpha the
smallest rank minimizer) into exactly r rank-one factors I + u v^T, r =
min_alpha rank(g - alpha I), by Wedderburn elimination: u = D w / (z^T D w)
and v^T = z^T D with D = X - I.  The probes are the standard vectors, then
their pairwise sums: w is the first with D w and D X w nonzero (always a
standard vector, since D X = D + D^2 would vanish otherwise), z the first
with z^T D w and z^T D X w nonzero.  Their ratio is det(I + u v^T) =
1 + v^T u, so every factor is invertible and the rank drops by exactly one
per step.  Besides the product D X and the rank check, a step is O(n^2)
row updates: a probe's images are columns and entries of D and D X, the
factor comes off by Sherman-Morrison, X <- X - u (v^T X) / (1 + v^T u),
and goes onto the running product as acc + (acc u) v^T.  Chain elements
are matrix representatives of projective points (intermediate products
need not admit determinant-one scalings), and the endpoint matches the
target up to a scalar.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .groups import Permutation, proj_equal
from .linalg import Matrix, min_rank_shift
from .metrics import (HAMMING, PRANK, _as_matrix, hamming_distance,
                      projective_rank_distance)


@dataclass(frozen=True)
class ChainPath:
    """A chain g_0 = identity, ..., g_m = target with annotated steps.

    total and overshoot are exact rationals (totals may exceed 1, so they
    are not MetricValue instances); step_lengths holds the MetricValue of
    each consecutive distance.  splits and parity_repairs record how many
    cycle splits and repair transpositions the construction used."""

    elements: tuple
    step_lengths: tuple
    total: Fraction
    overshoot: Fraction
    kind: str
    target: object
    target_length: Fraction
    splits: int = 0
    parity_repairs: int = 0

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "step_lengths", tuple(self.step_lengths))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    max_step: Fraction
    mismatches: tuple


def _segment_sizes(lam, M):
    """Split plan for a lam-cycle under point budget M: returns None to
    keep the cycle whole, else (first_size, fresh_counts).  The first
    segment takes min(max(M, 2), lam - 1) points; each extension adds at
    most M fresh points (step cost fresh + 1 points)."""
    if lam <= M or lam == 2:
        return None
    a1 = min(max(M, 2), lam - 1)
    rest = lam - a1
    parts = -(-rest // M)
    base, rem = divmod(rest, parts)
    fresh = [base + 1] * rem + [base] * (parts - rem)
    return a1, fresh


def hamming_chain(sigma, max_step):
    """Chain from the identity to sigma with Hamming steps near max_step.

    Steps never exceed max_step + 2/n; overshoot is exactly
    (splits + 2 * parity_repairs) / n.  Odd targets are allowed: the
    final odd increment simply stays unpaired.
    """
    if not isinstance(sigma, Permutation):
        raise TypeError("expected a Permutation")
    n = sigma.n
    ms = Fraction(max_step)
    if ms < Fraction(1, n):
        raise ValueError("max_step below 1/n is infeasible")
    if ms > 1:
        raise ValueError("max_step above 1 is meaningless")
    M = int(ms * n)

    # build the increment entries: [perm, cycle_id, first_flag, size]
    entries = []
    splits = 0
    for cid, cyc in enumerate(sigma.cycles()):
        lam = len(cyc)
        plan = _segment_sizes(lam, M)
        if plan is None:
            entries.append([Permutation.from_cycles(n, [cyc]), cid, True, lam])
            continue
        a1, fresh = plan
        splits += len(fresh)
        entries.append([Permutation.from_cycles(n, [cyc[:a1]]), cid, True, a1])
        at = a1
        for f in fresh:
            seg = cyc[at - 1:at + f]
            entries.append([Permutation.from_cycles(n, [seg]), cid, False,
                            len(seg)])
            at += f

    # pair consecutive odd increments (even support size); merge or bridge
    odd_positions = [t for t, e in enumerate(entries) if e[3] % 2 == 0]
    bridges = {}
    removed = set()
    for t in range(0, len(odd_positions) - 1, 2):
        i, j = odd_positions[t], odd_positions[t + 1]
        ei, ej = entries[i], entries[j]
        if ei[1] != ej[1] and ej[2] and ei[3] + ej[3] <= M + 2:
            entries[i][0] = ei[0] * ej[0]
            entries[i][3] = ei[3] + ej[3]
            removed.add(j)
        else:
            bridges[i] = "open"
            bridges[j] = "close"

    ident = Permutation.identity(n)
    elements = [ident]
    g = ident
    clean = ident
    visited = set()
    repairs = 0
    open_tau = None
    for idx, e in enumerate(entries):
        if idx in removed:
            continue
        inc = e[0]
        g = g * inc
        clean = clean * inc
        visited |= inc.support()
        elements.append(g)
        mark = bridges.get(idx)
        if mark == "open":
            lo = sorted(visited)[:2]
            tau = Permutation.transposition(n, lo[0], lo[1])
            g = g * tau
            elements.append(g)
            repairs += 1
            open_tau = tau
        elif mark == "close":
            tau2 = g.inverse() * clean
            assert len(tau2.support()) == 2
            g = g * tau2
            elements.append(g)
            repairs += 1
            open_tau = None
    assert open_tau is None
    assert g == sigma and clean == sigma

    return _assemble(elements, HAMMING, sigma, splits, repairs, n, ms)


def _assemble(elements, kind, target, splits, repairs, n, ms):
    if kind == HAMMING:
        dist = hamming_distance
        ident = elements[0]
        target_len = hamming_distance(ident, target).value
    else:
        dist = projective_rank_distance
        field = elements[0].field
        target_len = projective_rank_distance(
            Matrix.identity(field, n), _as_matrix(target)).value
    steps = []
    total = Fraction(0)
    for a, b in zip(elements, elements[1:]):
        d = dist(a, b)
        steps.append(d)
        total += d.value
        if ms is not None:
            assert d.value <= ms + Fraction(2, n)
    overshoot = total - target_len
    assert overshoot == Fraction(splits + 2 * repairs, n)
    return ChainPath(
        elements=tuple(elements),
        step_lengths=tuple(steps),
        total=total,
        overshoot=overshoot,
        kind=kind,
        target=target,
        target_length=target_len,
        splits=splits,
        parity_repairs=repairs,
    )


def _first_probe(add, images):
    """The image of the first probe vector whose image has nonzero first
    and second rows, or None.  The probes are the standard vectors e_i,
    then the sums e_i + e_j for i < j; images[i] is the image of e_i as a
    sequence of rows, and a sum maps to the sum of two images (the
    kernel's add)."""
    for image in images:
        if any(image[0]) and any(image[1]):
            return image
    for i, j in combinations(range(len(images)), 2):
        image = add(images[i], images[j])
        if any(image[0]) and any(image[1]):
            return image
    return None


def rank_metric_chain(g, max_step):
    """Chain of rank-one updates from the identity to g, projectively.

    Each step has projective rank distance exactly 1/n; the number of
    steps equals min over alpha of rank(g - alpha I), so the overshoot is
    always zero.  A step costs one n x n product (D X), one elimination
    (the rank check) and O(n^2) row updates: the factor I + u v^T comes
    off by Sherman-Morrison and goes onto the running product as
    acc + (acc u) v^T.
    """
    mat = _as_matrix(g)
    field = mat.field
    n = mat.nrows
    if mat.ncols != n:
        raise ValueError("need a square matrix")
    if mat.det() != field.one:
        raise ValueError("need determinant one")
    ms = Fraction(max_step)
    if ms < Fraction(1, n):
        raise ValueError("max_step below 1/n is infeasible")

    shift = min_rank_shift(mat, Matrix.identity(field, n))
    alpha = shift.argmins[0]
    x = mat.scale(field.inv(alpha))
    ident = Matrix.identity(field, n)
    kernel = field.kernel()
    add, axpy, matmul, scale = (kernel.add, kernel.axpy, kernel.matmul,
                                kernel.scale)

    current = x
    d = current - ident
    r = d.rank()
    assert r == shift.r
    acc = ident
    elements = [ident]
    while r > 0:
        # a probe's images D v and D X v are columns of D and DX, or sums
        # of two; z^T picks entries of D w and D X w, and rows of D and DX
        dx = d @ current
        found = _first_probe(add, list(zip(zip(*d.rows), zip(*dx.rows))))
        assert found is not None
        dw, dxw = found
        found = _first_probe(add, list(zip(zip(dw), zip(dxw), d.rows,
                                           dx.rows)))
        assert found is not None
        (pivot,), _, vt, vt_x = found
        # the factor I + u v^T, u = D w / (z^T D w) and v^T = z^T D; its
        # determinant 1 + v^T u is z^T D X w / (z^T D w), so inv raises
        # ZeroDivisionError on a singular factor
        u = scale(field.inv(pivot), (dw,))[0]
        u_col = tuple(zip(u))
        det = field.add(field.one, matmul((vt,), u_col, 1)[0][0])
        # current <- current - u (v^T current) / det, v^T current = z^T D X
        coeffs = scale(field.neg(field.inv(det)), (u,))[0]
        current = Matrix(field, tuple([tuple(axpy(row, c, vt_x)) for row, c
                                       in zip(current.rows, coeffs)]), n)
        acc_u = matmul(acc.rows, u_col, 1)
        acc = Matrix(field, tuple([tuple(axpy(row, c, vt))
                                   for row, (c,) in zip(acc.rows, acc_u)]), n)
        elements.append(acc)
        d = current - ident
        new_r = d.rank()
        assert new_r == r - 1
        r = new_r
    assert current == ident
    assert acc == x
    return _assemble(elements, PRANK, g, 0, 0, n, None)


def verify_chain(chain):
    """Recompute every step of a chain from scratch and compare.

    Mismatches are collected and reported, never raised; valid means the
    endpoints, every step annotation, the total, and the overshoot all
    agree with independent recomputation.
    """
    kind = chain.kind
    mismatches = []
    elements = chain.elements
    if not elements:
        return VerifyReport(False, Fraction(0), ("empty chain",))
    if kind == HAMMING:
        first = elements[0]
        if first != Permutation.identity(first.n):
            mismatches.append("chain does not start at the identity")
        if elements[-1] != chain.target:
            mismatches.append("chain does not end at the target")
        dist = hamming_distance
    elif kind == PRANK:
        first = _as_matrix(elements[0])
        if first != Matrix.identity(first.field, first.nrows):
            mismatches.append("chain does not start at the identity")
        if not proj_equal(_as_matrix(elements[-1]), _as_matrix(chain.target)):
            mismatches.append("chain does not end at the target "
                              "(projectively)")
        dist = projective_rank_distance
    else:
        return VerifyReport(False, Fraction(0),
                            ("unknown metric kind %r" % kind,))

    total = Fraction(0)
    max_step = Fraction(0)
    for t, (a, b) in enumerate(zip(elements, elements[1:])):
        d = dist(a, b)
        total += d.value
        if d.value > max_step:
            max_step = d.value
        if t >= len(chain.step_lengths):
            mismatches.append("missing step annotation %d" % t)
            continue
        rec = chain.step_lengths[t]
        if rec.value != d.value or rec.kind != kind:
            mismatches.append(
                "step %d annotated %s but recomputed %s" % (t, rec.value,
                                                            d.value))
    if len(chain.step_lengths) > len(elements) - 1:
        mismatches.append("extra step annotations")
    if total != chain.total:
        mismatches.append("total annotated %s but recomputed %s"
                          % (chain.total, total))
    if chain.overshoot != total - chain.target_length:
        mismatches.append("overshoot annotation inconsistent")
    if chain.overshoot < 0:
        mismatches.append("negative overshoot")
    return VerifyReport(not mismatches, max_step, tuple(mismatches))
