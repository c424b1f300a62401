"""Named verification suites and the config-driven runner.

Each suite replays one verification contract at full scale: randomized
checks are seeded, brute-force oracles are exact, and every suite
serializes its outcome to a deterministic CSV.  The same functions back
both the command line runner and the acceptance tests, so a green suite
here is the same evidence as a green test run.

Config files for run_suite are flat key=value lines:

    suites=split-prep,metric-axioms           (or "all")
    seed=12345
    scale=40                                  (optional, shrinks sampled counts)
    out_dir=suite_out
    expect.split-prep=golden/split-prep.csv   (byte-compare the written CSV)

An empty config runs nothing and succeeds.
"""

import itertools
import math
import operator
import os
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centralizers import (centralizer_factorization,
                           characteristic_fingerprint,
                           perm_centralizer_structure)
from .constructions import (approx_centralize, build_niceblock,
                            check_split_condition, commutator_witness_table,
                            prepare_near_root, project_to_sl)
from .errors import BudgetError, MsgLabError, UnsupportedCaseError
from .experiments import (ALTERNATING, PSL_FAMILY, FamilyDescriptor,
                          equivalence_experiment, fingerprint_element,
                          fingerprint_experiment, rng_for)
from .geodesics import hamming_chain, rank_metric_chain, verify_chain
from .gf import GF
from .groups import (SL, SP, AlternatingDescriptor, ClassicalElement,
                     Permutation, PSLDescriptor, enumerate_gl2,
                     enumerate_psl2, enumerate_sl2, psl_canonical,
                     random_even_perm, random_invertible, random_perm,
                     random_sl)
from .linalg import (SPAN_BUDGET, Matrix, commutant_basis,
                     span_invertible_counts)
from .metrics import (PRANK, class_size_perm, conjugacy_distance,
                      hamming_distance, length, perm_centralizer_order,
                      projective_rank_distance)
from .textio import format_field, format_matrix, format_value

DEFAULT_SEED = 12345

_PROP_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    summary: str
    csv_text: str
    details: tuple = ()
    elapsed: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))


def _rows_csv(name, rows):
    lines = ["# suite=%s" % name, "quantity,value"]
    for quantity, value in rows:
        lines.append("%s,%s" % (quantity, format_value(value)))
    return "\n".join(lines) + "\n"


def _result(name, ok, rows, details, t0, extra=""):
    elapsed = time.perf_counter() - t0
    summary = "%s: %s%s (%.1fs)" % (
        name, "ok" if ok else "FAILED", extra, elapsed)
    return SuiteResult(name, ok, summary, _rows_csv(name, rows),
                       tuple(details), elapsed)


# -- shared instance stream for the three split-element suites -------------


def _split_instances(seed, per_field):
    """Round-robin stream of (field, n, k, alpha, y, rng) over the six
    standard fields, n <= 12 and k <= 6, deterministic in (seed, field
    index, instance)."""
    fields = [GF(p, e) for p, e in _PROP_FIELDS]
    for i in range(per_field):
        for fidx, field in enumerate(fields):
            rng = rng_for(seed, fidx, i)
            n = rng.randint(1, 12)
            while True:
                k = rng.randint(1, 6)
                if math.gcd(k, field.p) == 1:
                    break
            alpha = rng.randrange(1, field.q)
            y = random_invertible(n, field, rng)
            yield field, n, k, alpha, y, rng


def _reproducer(field, k, alpha, y, phi=None):
    parts = ["field=%s" % format_field(field), "k=%d" % k,
             "alpha=%d" % alpha, "y=%s" % format_matrix(y)]
    if phi is not None:
        parts.append("phi=%s" % format_matrix(phi))
    return " ".join(parts)


def suite_split_prep(seed=DEFAULT_SEED, scale=None):
    """Split preparation: exact block condition and the rank bound
    max(dim S, rk(x - y)) <= rk(y^k - alpha I) on every instance."""
    per_field = 500 if scale is None else scale
    t0 = time.perf_counter()
    count = 0
    failures = []
    for field, n, k, alpha, y, _ in _split_instances(seed, per_field):
        count += 1
        try:
            x, dec = prepare_near_root(y, k, alpha)
            check_split_condition(x, dec)
            shifted = y.matpow(k) - Matrix.scalar(field, n, alpha)
            r = shifted.rank()
            if max(dec.dim_S, (x - y).rank()) > r:
                raise AssertionError("rank bound exceeded (r = %d)" % r)
        except (MsgLabError, AssertionError) as exc:
            failures.append("%s :: %s" % (_reproducer(field, k, alpha, y), exc))
    rows = [("instances", count), ("failures", len(failures))]
    return _result("split-prep", not failures, rows, failures[:10], t0,
                   extra=", %d instances" % count)


def suite_approx_centralize(seed=DEFAULT_SEED, scale=None):
    """Approximate centralizing: psi commutes exactly, is invertible, and
    rk(phi - psi) <= 2 k^2 rk(x phi - phi x) + 3 dim S."""
    total = 500 if scale is None else scale
    t0 = time.perf_counter()
    count = 0
    failures = []
    per_field = (total + len(_PROP_FIELDS) - 1) // len(_PROP_FIELDS)
    stream = _split_instances(seed, per_field)
    for field, n, k, alpha, y, rng in itertools.islice(stream, total):
        count += 1
        phi = random_invertible(n, field, rng)
        try:
            x, dec = prepare_near_root(y, k, alpha)
            psi = approx_centralize(x, dec, phi)
            if x @ psi != psi @ x:
                raise AssertionError("psi does not commute")
            if not psi.is_invertible():
                raise AssertionError("psi is singular")
            commutator_rank = (x @ phi - phi @ x).rank()
            bound = 2 * k * k * commutator_rank + 3 * dec.dim_S
            achieved = (phi - psi).rank()
            if achieved > bound:
                raise AssertionError(
                    "rk(phi - psi) = %d > %d" % (achieved, bound))
        except (MsgLabError, AssertionError) as exc:
            failures.append("%s :: %s"
                            % (_reproducer(field, k, alpha, y, phi), exc))
    rows = [("instances", count), ("failures", len(failures))]
    return _result("approx-centralize", not failures, rows, failures[:10], t0,
                   extra=", %d instances" % count)


def suite_centralizer_factors(seed=DEFAULT_SEED, scale=None):
    """Centralizer factorization: at most k + 1 factors on every
    instance; predicted order equals the brute-force count of invertible
    commuting matrices whenever the commutant has at most SPAN_BUDGET
    members."""
    per_field = 500 if scale is None else scale
    t0 = time.perf_counter()
    count = 0
    brute_checked = 0
    failures = []
    for field, n, k, alpha, y, _ in _split_instances(seed, per_field):
        count += 1
        try:
            x, dec = prepare_near_root(y, k, alpha)
            fac = centralizer_factorization(x, dec)
            if len(fac.factors) > k + 1:
                raise AssertionError("%d factors > k + 1" % len(fac.factors))
            basis = commutant_basis(x)
            if field.q ** len(basis) <= SPAN_BUDGET:
                brute = span_invertible_counts(basis)[0]
                brute_checked += 1
                if brute != fac.total_order:
                    raise AssertionError(
                        "order %d != brute %d" % (fac.total_order, brute))
        except (MsgLabError, AssertionError) as exc:
            failures.append("%s :: %s" % (_reproducer(field, k, alpha, y), exc))
    rows = [("instances", count), ("brute_checked", brute_checked),
            ("failures", len(failures))]
    return _result("centralizer-factors", not failures, rows, failures[:10],
                   t0, extra=", %d brute checks" % brute_checked)


def _abelian_closure(generators, cap):
    """Order of the matrix group generated by the given commuting
    generators, by breadth-first closure."""
    field = generators[0].field
    ident = Matrix.identity(field, generators[0].nrows)
    seen = {ident.key()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = m @ g
                key = prod.key()
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise BudgetError("closure larger than %d" % cap)
        frontier = nxt
    return len(seen)


def suite_niceblock(seed=DEFAULT_SEED, scale=None):
    """Block element certificates for SL and Sp over GF(2), GF(3), GF(5),
    half sizes 2..6: exact length 1/2, abelian group of the stated order,
    witnesses for the length and commutator bounds.  Deterministic: it
    draws nothing, so seed and scale are unused."""
    del seed, scale
    t0 = time.perf_counter()
    checked = 0
    failures = []
    half = Fraction(1, 2)
    for p in (2, 3, 5):
        field = GF(p)
        for n in range(2, 7):
            for group in (SL, SP):
                label = "%s n=%d q=%d" % (group, n, p)
                try:
                    cert = build_niceblock(n, field, group)
                    checked += 1
                    if length(cert.x, PRANK).value != half:
                        raise AssertionError("ell_pr(x) != 1/2")
                    expected_exp = n * n if group == SL else n * (n + 1) // 2
                    if len(cert.A_generators) != expected_exp:
                        raise AssertionError(
                            "A has %d generators, expected %d"
                            % (len(cert.A_generators), expected_exp))
                    ident = Matrix.identity(field, 2 * n)
                    cols = []
                    for g in cert.A_generators:
                        block = (g.matrix - ident).block(0, n, n, 2 * n)
                        cols.append(block.packed().reshape(-1))
                    span = Matrix.from_packed(field, np.stack(cols, axis=1))
                    if span.rank() != expected_exp:
                        raise AssertionError("A generators are dependent")
                    if n == 2:
                        order = _abelian_closure(
                            [g.matrix for g in cert.A_generators],
                            cap=p ** expected_exp)
                        if order != p ** expected_exp:
                            raise AssertionError(
                                "enumerated |A| = %d != %d"
                                % (order, p ** expected_exp))
                    if length(cert.witness_u, PRANK).value < half:
                        raise AssertionError("witness_u below 1/2")
                    if length(cert.witness_h, PRANK).value < half:
                        raise AssertionError("witness_h below 1/2")
                    u, h = cert.commutator_u, cert.commutator_h
                    comm = u.inverse() * h.inverse() * u * h
                    observed = length(comm, PRANK).value
                    if observed != cert.commutator_length:
                        raise AssertionError("stored commutator length wrong")
                    bound = Fraction(1, 3) * (1 - Fraction(2, n))
                    if observed < bound:
                        raise AssertionError(
                            "commutator length %s below %s"
                            % (observed, bound))
                except (MsgLabError, AssertionError) as exc:
                    failures.append("%s :: %s" % (label, exc))
    rows = [("certificates", checked), ("failures", len(failures))]
    return _result("niceblock", not failures, rows, failures[:10], t0,
                   extra=", %d certificates" % checked)


def suite_sl_projection(seed=DEFAULT_SEED, scale=None):
    """Determinant projection stays within rank 1 on random GL elements;
    every element of SL_2(3) (witness pairs from GL_2(3)) and of PSL_2(7)
    is an exact commutator."""
    trials = 1000 if scale is None else scale
    t0 = time.perf_counter()
    failures = []
    fields = [GF(p, e) for p, e in _PROP_FIELDS]
    for i in range(trials):
        rng = rng_for(seed, 900, i)
        field = fields[i % len(fields)]
        n = rng.randint(1, 6)
        g = random_invertible(n, field, rng)
        h = project_to_sl(g)
        if h.matrix.det() != field.one:
            problem = "lost det 1"
        elif (g - h.matrix).rank() > 1:
            problem = "moved rank > 1"
        else:
            continue
        failures.append("field=%s g=%s :: projection %d %s" % (
            format_field(field), format_matrix(g), i, problem))
    gf3 = GF(3)
    gl_table = commutator_witness_table(enumerate_gl2(gf3))
    missing_sl = [m for m in enumerate_sl2(gf3)
                  if gl_table.get(m.key()) is None]
    if missing_sl:
        failures.append("%d elements of SL_2(3) lack GL_2(3) commutator "
                        "witnesses" % len(missing_sl))
    psl_elems = enumerate_psl2(GF(7))
    key_fn = lambda m: psl_canonical(m).key()
    psl_table = commutator_witness_table(psl_elems, key_fn=key_fn)
    missing_psl = [m for m in psl_elems if psl_table.get(key_fn(m)) is None]
    if missing_psl:
        failures.append("%d elements of PSL_2(7) lack commutator witnesses"
                        % len(missing_psl))
    rows = [("projection_trials", trials),
            ("sl2_3_unwitnessed", len(missing_sl)),
            ("psl2_7_unwitnessed", len(missing_psl)),
            ("failures", len(failures))]
    return _result("sl-projection", not failures, rows, failures[:10], t0)


def _check_metric_axioms(d, triple, g, op):
    """Symmetry, identity, triangle and left and right invariance under g
    (op the group product) of distance d on one triple, each one exact
    comparison (for conj of class sizes, (xy)^G lying in x^G y^G); returns
    the violated axioms.  Normalization is MetricValue's own check."""
    a, b, c = triple
    dab, dba = d(a, b).value, d(b, a).value
    dac, dbc = d(a, c).value, d(b, c).value
    daa = d(a, a).value
    problems = []
    if dab != dba:
        problems.append("symmetry")
    if daa != 0:
        problems.append("identity")
    if dac > dab + dbc:
        problems.append("triangle")
    if d(op(g, a), op(g, b)).value != dab:
        problems.append("left invariance")
    if d(op(a, g), op(b, g)).value != dab:
        problems.append("right invariance")
    return problems


def suite_metric_axioms(seed=DEFAULT_SEED, scale=None):
    """Bi-invariance, symmetry, triangle and identity for the support
    metric, the rank metric, and the conjugacy metric."""
    triples = 1000 if scale is None else scale
    t0 = time.perf_counter()
    failures = []

    n = 9
    for i in range(triples):
        rng = rng_for(seed, 100, i)
        a, b, c, g = (random_perm(n, rng) for _ in range(4))
        problems = _check_metric_axioms(hamming_distance, (a, b, c), g,
                                        operator.mul)
        if problems:
            failures.append("hamming triple %d: %s" % (i, problems))

    fields = [GF(p, e) for p, e in _PROP_FIELDS]
    for i in range(triples):
        rng = rng_for(seed, 200, i)
        field = fields[i % len(fields)]
        m = rng.randint(1, 5)
        a, b, c, g = (random_invertible(m, field, rng) for _ in range(4))
        problems = _check_metric_axioms(projective_rank_distance, (a, b, c),
                                        g, operator.matmul)
        lam = rng.randrange(1, field.q)
        if projective_rank_distance(a.scale(lam), b).value != \
                projective_rank_distance(a, b).value:
            problems.append("scalar invariance")
        if problems:
            failures.append("rank triple %d: %s" % (i, problems))

    group = AlternatingDescriptor(9)
    d_c = lambda a, b: conjugacy_distance(a, b, group)
    for i in range(triples):
        rng = rng_for(seed, 300, i)
        a, b, c, g = (random_even_perm(9, rng) for _ in range(4))
        problems = _check_metric_axioms(d_c, (a, b, c), g, operator.mul)
        if problems:
            failures.append("conj triple %d: %s" % (i, problems))

    psl = PSLDescriptor(2, GF(7))
    d_p = lambda a, b: conjugacy_distance(a, b, psl)
    for i in range(60):
        rng = rng_for(seed, 400, i)
        a, b, c, g = (random_sl(2, GF(7), rng) for _ in range(4))
        problems = _check_metric_axioms(d_p, (a, b, c), g, operator.mul)
        if problems:
            failures.append("psl conj triple %d: %s" % (i, problems))

    rows = [("triples_per_metric", triples), ("failures", len(failures))]
    return _result("metric-axioms", not failures, rows, failures[:10], t0)


def _perms_array(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int8)


def _partitions(n, cap):
    """Partitions of n into parts of at most cap, parts in descending order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _parity_vector(arr):
    """Sign (+1/-1) of every permutation row, by counting transpositions
    of a vectorized selection sort."""
    m, n = arr.shape
    signs = np.ones(m, dtype=np.int8)
    work = np.array(arr, dtype=np.int8, copy=True)
    rows = np.arange(m)
    for i in range(n - 1):
        pos = np.argmax(work[:, i:] == i, axis=1) + i
        needs = pos != i
        vals = work[rows, pos]
        work[rows, pos] = work[:, i]
        work[:, i] = vals
        signs[needs] = -signs[needs]
    return signs


def suite_class_sizes(seed=DEFAULT_SEED, scale=None):
    """Conjugacy class sizes in S_n and A_n against exhaustive counts for
    n <= 8, with the split 5-cycle classes in A_5, and the orbit-stabilizer
    identity class size x centralizer order = n!."""
    del seed, scale
    t0 = time.perf_counter()
    failures = []
    types_checked = 0
    for n in range(2, 9):
        arr = _perms_array(n)
        parity = _parity_vector(arr)
        even_mask = parity == 1
        by_type = {}
        for idx, row in enumerate(arr):
            ct = Permutation(row.tolist()).cycle_type()
            by_type.setdefault(ct, []).append(idx)
        fact = math.factorial(n)
        for ct, members in sorted(by_type.items()):
            types_checked += 1
            if len(members) != class_size_perm(ct, n):
                failures.append("S_%d type %r size" % (n, ct))
            if class_size_perm(ct, n) * perm_centralizer_order(ct) != fact:
                failures.append("S_%d type %r orbit-stabilizer" % (n, ct))
            rep = arr[members[0]]
            if even_mask[members[0]]:
                sigma_then = arr[:, rep]
                then_sigma = rep[arr]
                commuting = (sigma_then == then_sigma).all(axis=1)
                cent_a = int((commuting & even_mask).sum())
                brute_a = (fact // 2) // cent_a
                if brute_a != class_size_perm(ct, n, in_alternating=True):
                    failures.append("A_%d type %r size" % (n, ct))
    if class_size_perm((5,), 5, in_alternating=True) != 12:
        failures.append("A_5 five-cycle class is not 12")
    rows = [("types_checked", types_checked), ("failures", len(failures))]
    return _result("class-sizes", not failures, rows, failures[:10], t0,
                   extra=", %d types" % types_checked)


def _brute_centralizer_counts_all(arr):
    """Centralizer order of every permutation in arr, where arr holds all
    of S_n: counts[s] = #{t : arr[s] o arr[t] = arr[t] o arr[s]}."""
    m, n = arr.shape
    counts = np.zeros(m, dtype=np.int64)
    block = max(8, (2**24) // max(1, m * n))
    for start in range(0, m, block):
        tau = arr[start:start + block]
        sigma_tau = arr[:, tau]                      # (m, B, n)
        tau_sigma = tau[:, arr].transpose(1, 0, 2)   # (m, B, n)
        counts += (sigma_tau == tau_sigma).all(axis=2).sum(axis=1)
    return counts


def suite_centralizer_structure(seed=DEFAULT_SEED, scale=None):
    """Permutation centralizer orders against brute force (every element
    for n <= 7, one representative per cycle type, built from the
    partitions of n, for n = 8, 9; the order is a class function, so types
    cover all elements) and the p-core dichotomy for
    p, char in {2, 3, 5} at matrix sizes up to 4."""
    del scale
    t0 = time.perf_counter()
    failures = []
    checked_perms = 0
    for n in range(2, 8):
        arr = _perms_array(n)
        counts = _brute_centralizer_counts_all(arr)
        for row, brute in zip(arr, counts):
            sigma = Permutation(row.tolist())
            desc = perm_centralizer_structure(sigma)
            checked_perms += 1
            if desc.total_order != int(brute):
                failures.append("S_%d %s order" % (n, row.tolist()))
    for n in (8, 9):
        arr = _perms_array(n)
        for parts in _partitions(n, n):
            # one cycle per part, on consecutive points
            ends = itertools.accumulate(parts)
            sigma = Permutation.from_cycles(
                n, [range(end - k, end) for k, end in zip(parts, ends)])
            rep = np.array(sigma.images, dtype=arr.dtype)
            sigma_then = arr[:, rep]
            then_sigma = rep[arr]
            brute = int((sigma_then == then_sigma).all(axis=1).sum())
            desc = perm_centralizer_structure(sigma)
            checked_perms += 1
            if desc.total_order != brute:
                failures.append("S_%d type %r order" % (n, sigma.cycle_type()))

    dichotomy_checked = 0
    for p in (2, 3, 5):
        for char in (2, 3, 5):
            for n in (2, 3, 4) if p == char else (1, 2, 3, 4):
                try:
                    x, context, _ = fingerprint_element(GF(char), p, n)
                except UnsupportedCaseError:  # n below the ext degree
                    continue
                rec = characteristic_fingerprint(x, context)
                dichotomy_checked += 1
                if p == char and (not rec.has_large_p_core or
                                  rec.p_core_order != char ** (n * n)):
                    failures.append("niceblock core p=%d n=%d" % (p, n))
                if p != char and (rec.has_large_p_core or
                                  rec.p_core_order != 1):
                    failures.append("semisimple core p=%d char=%d n=%d"
                                    % (p, char, n))
    rows = [("permutations_checked", checked_perms),
            ("dichotomy_cases", dichotomy_checked),
            ("failures", len(failures))]
    return _result("centralizers", not failures, rows, failures[:10], t0,
                   extra=", %d perms" % checked_perms)


def _decomposable_target(n, cap, rng):
    """Random permutation whose cycles all fit within cap points and whose
    even-length cycles pair up into zero-cost merges."""
    points = list(range(n))
    rng.shuffle(points)
    images = list(range(n))
    at = 0
    odd_lengths = [L for L in (3, 5, 7) if L <= cap]
    even_len = next((L for L in (4, 2) if 2 * L <= cap + 2), None)
    while n - at >= 3:
        if even_len is not None and rng.random() < 0.4 and \
                n - at >= 2 * even_len:
            lengths = [even_len, even_len]
        elif odd_lengths:
            fitting = [L for L in odd_lengths if L <= n - at]
            if not fitting:
                break
            lengths = [rng.choice(fitting)]
        else:
            break
        for L in lengths:
            cyc = points[at:at + L]
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % L]
            at += L
        if rng.random() < 0.3:
            break
    return Permutation(images)


def suite_geodesics(seed=DEFAULT_SEED, scale=None):
    """Chain construction invariants: overshoot bookkeeping for support
    chains, exact 1/n steps with zero overshoot for rank chains, and
    max-step 1/100 connectivity at n = 200."""
    trials = 120 if scale is None else scale
    t0 = time.perf_counter()
    failures = []

    for i in range(trials):
        rng = rng_for(seed, 500, i)
        n = rng.randint(8, 40)
        sigma = random_perm(n, rng)
        max_step = Fraction(rng.randint(2, n), n)
        chain = hamming_chain(sigma, max_step)
        report = verify_chain(chain)
        expected = Fraction(chain.splits + 2 * chain.parity_repairs, n)
        if not report.valid:
            failures.append("hamming %d: %s" % (i, report.mismatches[:2]))
        elif chain.overshoot != expected:
            failures.append("hamming %d overshoot bookkeeping" % i)

    for i in range(trials):
        rng = rng_for(seed, 510, i)
        n = rng.randint(10, 36)
        cap = rng.randint(4, max(4, n // 2))
        sigma = _decomposable_target(n, cap, rng)
        chain = hamming_chain(sigma, Fraction(cap, n))
        if chain.overshoot != 0:
            failures.append("decomposable %d overshoot %s"
                            % (i, chain.overshoot))
        elif not verify_chain(chain).valid:
            failures.append("decomposable %d invalid" % i)

    fields = [GF(p, e) for p, e in _PROP_FIELDS]
    for i in range(trials):
        rng = rng_for(seed, 520, i)
        field = fields[i % len(fields)]
        n = rng.randint(2, 6)
        g = random_sl(n, field, rng)
        chain = rank_metric_chain(g, Fraction(1, n))
        report = verify_chain(chain)
        if not report.valid:
            failures.append("rank %d: %s" % (i, report.mismatches[:2]))
        elif chain.overshoot != 0:
            failures.append("rank %d overshoot" % i)
        elif any(s.value != Fraction(1, n) for s in chain.step_lengths):
            failures.append("rank %d step size" % i)

    # diagonalizable targets with x^k = I: k-th roots of unity, det 1
    field = GF(7)
    for i in range(40):
        rng = rng_for(seed, 530, i)
        n = rng.randint(2, 6)
        k = rng.choice([2, 3, 6])
        zeta = next(a for a in range(2, field.q)
                    if field.pow(a, k) == field.one)
        exps = [rng.randrange(k) for _ in range(n - 1)]
        exps.append((-sum(exps)) % k)
        diag = [field.pow(zeta, e) for e in exps]
        g = ClassicalElement(Matrix.diagonal(field, diag), SL)
        chain = rank_metric_chain(g, Fraction(1, n))
        if chain.overshoot != 0 or not verify_chain(chain).valid:
            failures.append("diagonalizable %d" % i)

    for i in range(12):
        rng = rng_for(seed, 540, i)
        sigma = random_perm(200, rng)
        chain = hamming_chain(sigma, Fraction(1, 200))
        if any(s.value > Fraction(1, 100) for s in chain.step_lengths):
            failures.append("n=200 sample %d exceeds 1/100" % i)
        elif not verify_chain(chain).valid:
            failures.append("n=200 sample %d invalid" % i)

    rows = [("hamming_chains", 2 * trials), ("rank_chains", trials + 40),
            ("failures", len(failures))]
    return _result("geodesics", not failures, rows, failures[:10], t0)


def suite_equivalence_trend(seed=DEFAULT_SEED, scale=None):
    """Median gap between conjugacy length and support length shrinks
    along A_50, A_100, A_500, A_1000 and ends below 0.1."""
    trials = 200 if scale is None else scale
    t0 = time.perf_counter()
    schedule = (50, 100, 500, 1000)
    family = FamilyDescriptor(ALTERNATING, schedule)
    report = equivalence_experiment(family, trials, seed)
    gaps = {n: [] for n in schedule}
    for _, n, _, _, quantity, value in report.rows:
        if quantity == "abs_diff":
            gaps[n].append(float(value))
    medians = [statistics.median(gaps[n]) for n in schedule]
    failures = []
    for (n1, m1), (n2, m2) in zip(zip(schedule, medians),
                                  list(zip(schedule, medians))[1:]):
        if not m2 < m1:
            failures.append("median gap did not decrease from n=%d (%.4f) "
                            "to n=%d (%.4f)" % (n1, m1, n2, m2))
    if not medians[-1] < 0.1:
        failures.append("median gap %.4f at n=1000 is not below 0.1"
                        % medians[-1])
    base = _result("equivalence-trend", not failures,
                   [("trials", trials)], failures, t0,
                   extra=", medians " + "/".join("%.3f" % m for m in medians))
    return SuiteResult(base.name, base.ok, base.summary, report.to_csv(),
                       base.details, base.elapsed)


def suite_fingerprint_family(seed=DEFAULT_SEED, scale=None):
    """Fingerprint experiment over PSL_n(9) for n = 2, 3, 4 and primes
    2, 3, 5: the p-core is large exactly at the defining characteristic."""
    del scale
    t0 = time.perf_counter()
    family = FamilyDescriptor(PSL_FAMILY, (2, 3, 4), (9, 9, 9))
    report = fingerprint_experiment(family, (2, 3, 5), seed)
    failures = []
    values = {}
    for _, n, _, _, quantity, value in report.rows:
        values[(n, quantity)] = value
        if quantity.endswith("_error"):
            failures.append("%s at n=%d: %s" % (quantity, n, value))
    for n in (2, 3, 4):
        if values.get((n, "p3_large_core")) is not True:
            failures.append("p = 3 core not large at n = %d" % n)
        if values.get((n, "p3_core_order")) != 9 ** (n * n):
            failures.append("p = 3 core order wrong at n = %d" % n)
        for p in (2, 5):
            if values.get((n, "p%d_large_core" % p)) is not False:
                failures.append("p = %d core flagged large at n = %d" % (p, n))
    base = _result("fingerprint-family", not failures,
                   [("rows", len(report.rows))], failures, t0)
    return SuiteResult(base.name, base.ok, base.summary, report.to_csv(),
                       base.details, base.elapsed)


SUITES = {
    "split-prep": suite_split_prep,
    "approx-centralize": suite_approx_centralize,
    "centralizer-factors": suite_centralizer_factors,
    "niceblock": suite_niceblock,
    "sl-projection": suite_sl_projection,
    "metric-axioms": suite_metric_axioms,
    "class-sizes": suite_class_sizes,
    "centralizers": suite_centralizer_structure,
    "geodesics": suite_geodesics,
    "equivalence-trend": suite_equivalence_trend,
    "fingerprint-family": suite_fingerprint_family,
}


def parse_config(path):
    config = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config lines are key=value, got %r" % line)
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def run_suite(config, log=None):
    """Run the configured suites, write their CSVs, compare expectations.

    config: path to a flat key=value file, or an equivalent dict.
    Returns (exit_code, results, messages); exit code 0 only if every
    suite passed and every expected file matched byte for byte.
    """
    if not isinstance(config, dict):
        config = parse_config(config)
    emit = log if log is not None else (lambda s: None)
    names = config.get("suites", "").strip()
    if not names:
        emit("no suites configured")
        return 0, [], ["no suites configured"]
    if names == "all":
        selected = list(SUITES)
    else:
        selected = [tok.strip() for tok in names.split(",") if tok.strip()]
    seed = int(config.get("seed", DEFAULT_SEED))
    scale = int(config["scale"]) if "scale" in config else None
    out_dir = config.get("out_dir", "suite_out")
    os.makedirs(out_dir, exist_ok=True)
    exit_code = 0
    results = []
    messages = []
    for name in selected:
        if name not in SUITES:
            messages.append("unknown suite %r" % name)
            emit(messages[-1])
            exit_code = 1
            continue
        result = SUITES[name](seed=seed, scale=scale)
        results.append(result)
        messages.append(result.summary)
        emit(result.summary)
        for detail in result.details:
            messages.append("  " + detail)
            emit("  " + detail)
        if not result.ok:
            exit_code = 1
        path = os.path.join(out_dir, "%s.csv" % name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.csv_text)
        expect_key = "expect.%s" % name
        if expect_key in config:
            with open(config[expect_key], "rb") as handle:
                expected = handle.read()
            if expected != result.csv_text.encode("utf-8"):
                messages.append("%s: output differs from %s"
                                % (name, config[expect_key]))
                emit(messages[-1])
                exit_code = 1
    return exit_code, results, messages
