"""The three timed benchmark workloads, and the gate.

A workload turns a seed into a fixed list of operations (one pass).  An
operation is one verified instance: the calls into msg_lab plus the exact
postconditions that check their outputs.  `run` returns the raw result,
`canon` turns it into plain JSON data for the digest; only `run` is timed.

Inputs are drawn here, with `random.Random` seeded from (seed, workload,
index), and handed to msg_lab as packed matrices, so the program receives
only the generated inputs.  The (field, size) grid of each workload is fixed
and only the random contents depend on the seed: that keeps the cost of a
pass nearly the same from seed to seed.

An input that the library refuses by budget today (prank over GF(2^31 - 1),
PSL_3(125), PSL_2(1031)) is not an operation, because every operation must
succeed; those cases are the reach probes of the traced run instead.

The gate (all 11 suites through run_suite) is not a timed workload: one
pass takes about 11 s, so a run holds one or two samples per suite, and
which suite sits at the median moves with the seed; its times spread from
run to run past any bound.  The traced run of GATE_HOST runs it once,
traced, and takes the GATE_LAYERS metrics from it, since no timed workload
reaches those layers.
"""

import math
import os
import random
from fractions import Fraction

DEFAULT_SEED = 12345
SIX_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))
GATE_SCALE = 1
# equivalence-trend checks that medians fall along A_50 .. A_1000, which
# holds for every seed only with its full 200 trials (about 1 s)
GATE_FULL_SCALE = ("equivalence-trend",)

# op list sizes per pass; "tiny" is the self-test size
SIZES = {
    "full": {"nearroot": 144, "enum_oracle": (6, 8, 9, 10)},
    "tiny": {"nearroot": 12, "enum_oracle": (2, 2)},
}

# q -> distance ops per n per pass.  A distance scans all q - 1 scalars,
# so the largest q sets the latency tail.  The counts put the median (64th
# and 65th of 128 ops) inside the ten (64, 3) distances and the tail rank
# (13th slowest) inside the ten (64, 8) distances, with at least three ops
# of the same cell on each side, so a few ops changing place cannot move
# either statistic to another cost level.
PRANK_DIST = {7: 5, 9: 4, 64: 10, 251: 4, 1021: 1}
PRANK_N = (2, 3, 4, 6, 8)
# a chain recomputes one distance per step, so chains stay where q n^2 is
# small and never reach the tail
PRANK_CHAIN_CELLS = tuple((q, n) for q in PRANK_DIST for n in PRANK_N
                          if q * n * n <= 300)
# (n, q) -> class-size ops per pass at full size; (2, 509) / (2, 521) sit
# on both sides of the 512 switch between the table and the coefficient
# determinant kernels.  Every PSL_2(q) element but the identity has a
# two-dimensional commutant, so the (2, q) ops of one q cost the same.  Of
# the 100 ops, 31 cost less than a (2, 81) op and 33 more, so the median
# (50th and 51st) lies deep inside the 36 (2, 81) ops, where the oracle
# instances of a seed cannot move it; the tail rank (11th slowest) falls
# inside the six (2, 251) ops.
ENUM_CLASS_CASES = {(2, 7): 4, (3, 7): 4, (2, 81): 36, (3, 16): 10,
                    (2, 251): 6, (2, 509): 3, (2, 521): 2, (3, 64): 2}
TINY_CLASS_CASES = ((2, 7), (3, 7), (2, 9))

ORACLE_MAX_N = 6

REACH_PRANK = ((2**31 - 1, 2), (2**31 - 1, 4))
REACH_ENUM = ((3, 125), (2, 1031))


class WrongAnswer(Exception):
    """An output broke its postcondition: the run is aborted."""


def op_rng(seed, workload, index):
    return random.Random("%d/%s/%d" % (seed, workload, index))


def prime_power(q):
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError("%d is not a prime power" % q)
    return p, e


def psl_order(n, q):
    """|PSL_n(q)|, computed here rather than by msg_lab because class sizes
    are checked against it."""
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    return gl // (q - 1) // math.gcd(n, q - 1)


class Generator:
    """Random inputs as packed matrices, drawn from one rng."""

    def __init__(self, ml, rng):
        self.ml = ml
        self.rng = rng

    def matrix(self, field, rows, cols):
        q = field.q
        return self.ml.Matrix.from_packed(
            field, [[self.rng.randrange(q) for _ in range(cols)]
                    for _ in range(rows)])

    def invertible(self, field, n):
        while True:
            m = self.matrix(field, n, n)
            if m.is_invertible():
                return m

    def special(self, field, n):
        """Random determinant-one matrix: column 0 scaled by det^-1."""
        m = self.invertible(field, n)
        dinv = field.inv(m.det())
        rows = m.packed().tolist()
        for row in rows:
            row[0] = field.mul(int(row[0]), dinv)
        return self.ml.Matrix.from_packed(field, rows)

    def near_root_input(self, field, n, k, dim_l):
        """(alpha, y) with dim ker(y^k - alpha I) = dim_l, alpha drawn among
        the scalars that give it.  That dimension (dim L of the split) sets
        most of the pipeline's cost, so fixing it keeps the cost of a pass
        from moving with the seed.  Where no y of 50 draws allows it
        (GF(2) with n = 1 has only L = 1), the last y with a random alpha."""
        Matrix = self.ml.Matrix
        for _ in range(50):
            y = self.invertible(field, n)
            yk = y.matpow(k)
            alphas = [a for a in range(1, field.q)
                      if n - (yk - Matrix.scalar(field, n, a)).rank() == dim_l]
            if alphas:
                return self.rng.choice(alphas), y
        return self.rng.randrange(1, field.q), y

    def planted_pair(self, field, n, r):
        """(g, h) with g = h (alpha I + R), rank R = r, g invertible.

        rank(g - beta h) = rank((alpha - beta) I + R) is r at beta = alpha
        and at least n - r elsewhere, so the projective rank distance lies
        in [min(r, n - r), r] / n, and is exactly r / n when 2 r < n.
        """
        Matrix = self.ml.Matrix
        h = self.invertible(field, n)
        while True:
            alpha = self.rng.randrange(1, field.q)
            if r:
                R = self.matrix(field, n, r) @ self.matrix(field, r, n)
            else:
                R = Matrix.zeros(field, n, n)
            shifted = Matrix.scalar(field, n, alpha) + R
            if R.rank() == r and shifted.is_invertible():
                return h @ shifted, h


def _packed(m):
    return [[int(v) for v in row] for row in m.packed().tolist()]


def _fraction(v):
    return "%d/%d" % (v.numerator, v.denominator)


def _check(cond, what):
    if not cond:
        raise WrongAnswer(what)


# -- nearroot ----------------------------------------------------------------


class NearRoot:
    """prepare_near_root -> approx_centralize -> centralizer_factorization on
    random invertible y and phi, with the split suites' postconditions."""

    name = "nearroot"

    def __init__(self, ml, seed, size):
        self.ml = ml
        fields = [ml.GF(p, e) for p, e in SIX_FIELDS]
        self.ops = []
        for i in range(SIZES[size]["nearroot"]):
            # field, n, k and dim L follow a fixed grid; alpha, y and phi
            # are random
            field = fields[i % 6]
            n = 1 + (i // 6) % 12
            ks = [k for k in range(1, 7) if math.gcd(k, field.p) == 1]
            k = ks[(n + i // 72) % len(ks)]
            rng = op_rng(seed, self.name, i)
            gen = Generator(ml, rng)
            alpha, y = gen.near_root_input(field, n, k, (i // 72) % 2)
            phi = gen.invertible(field, n)
            self.ops.append((field, n, k, alpha, y, phi))
        self.warmup = self.ops[:6]

    def run(self, op):
        ml = self.ml
        field, n, k, alpha, y, phi = op
        x, dec = ml.prepare_near_root(y, k, alpha)
        psi = ml.approx_centralize(x, dec, phi)
        fac = ml.centralizer_factorization(x, dec)
        try:
            ml.check_split_condition(x, dec)
        except ValueError as exc:
            raise WrongAnswer("split condition: %s" % exc)
        r = (y.matpow(k) - ml.Matrix.scalar(field, n, alpha)).rank()
        _check(max(dec.dim_S, (x - y).rank()) <= r, "split rank bound")
        _check(x @ psi == psi @ x, "psi does not commute with x")
        _check(psi.is_invertible(), "psi is singular")
        bound = 2 * k * k * (x @ phi - phi @ x).rank() + 3 * dec.dim_S
        _check((phi - psi).rank() <= bound, "approx-centralize rank bound")
        _check(len(fac.factors) <= k + 1, "more than k + 1 factors")
        _check(sum(f.dim * f.ext_degree for f in fac.factors) == n,
               "factor blocks do not cover the space")
        return x, dec, psi, fac

    def canon(self, result):
        x, dec, psi, fac = result
        return [_packed(x), dec.dim_L, dec.dim_S, _packed(psi),
                [[f.kind, f.dim, f.ext_degree, f.order] for f in fac.factors],
                fac.total_order]


# -- prank -------------------------------------------------------------------


class ProjectiveRank:
    """projective_rank_distance on planted pairs, and rank_metric_chain +
    verify_chain on random SL_n(q) elements, over a fixed (q, n) grid."""

    name = "prank"

    def __init__(self, ml, seed, size):
        self.ml = ml
        self.fields = {q: ml.GF(*prime_power(q)) for q in PRANK_DIST}
        cells = [("dist", q, n) for q, count in PRANK_DIST.items()
                 for n in PRANK_N for _ in range(count)]
        cells += [("chain", q, n) for q, n in PRANK_CHAIN_CELLS]
        if size == "tiny":
            cells = [("dist", 7, 3), ("dist", 9, 2), ("chain", 7, 3),
                     ("chain", 9, 2)]
        self.ops = [self._make(seed, i, *cell) for i, cell in enumerate(cells)]
        self.warmup = [self._make(seed, -1 - j, "dist", q, 2)
                       for j, q in enumerate(PRANK_DIST)]

    def _make(self, seed, i, kind, q, n):
        field = self.fields[q]
        rng = op_rng(seed, self.name, i)
        gen = Generator(self.ml, rng)
        if kind == "dist":
            r = rng.randrange(n + 1)
            g, h = gen.planted_pair(field, n, r)
            return ("dist", n, r, g, h)
        return ("chain", n, None,
                self.ml.ClassicalElement(gen.special(field, n), self.ml.SL),
                None)

    def run(self, op):
        ml = self.ml
        kind, n, r, g, h = op
        if kind == "dist":
            d = ml.projective_rank_distance(g, h).value
            _check(min(r, n - r) <= d * n <= r, "distance outside planted range")
            return d
        chain = ml.rank_metric_chain(g, Fraction(1, n))
        report = ml.verify_chain(chain)
        _check(report.valid, "chain does not verify: %s" % (report.mismatches,))
        _check(chain.overshoot == 0, "rank chain overshoots")
        _check(all(s.value == Fraction(1, n) for s in chain.step_lengths),
               "rank chain step is not 1/n")
        return chain

    def canon(self, result):
        if isinstance(result, Fraction):
            return _fraction(result)
        return [_fraction(result.total), len(result.step_lengths),
                _packed(result.elements[-1])]

    def reach_probes(self, seed):
        """Cases refused by budget today, tried once by the traced run."""
        probes = []
        for j, (q, n) in enumerate(REACH_PRANK):
            field = self.ml.GF(*prime_power(q))
            rng = op_rng(seed, "prank-reach", j)
            probes.append(("dist", n, 1) + Generator(self.ml, rng).planted_pair(field, n, 1))
        return probes


# -- enum --------------------------------------------------------------------


class Enumeration:
    """(a) the centralizer-factors oracle: commutant_basis +
    span_invertible_counts against centralizer_factorization; (b) PSL class
    sizes by class_size_matrix."""

    name = "enum"

    def __init__(self, ml, seed, size):
        self.ml = ml
        sz = SIZES[size]
        small = [ml.GF(p, e) for p, e in SIX_FIELDS]
        cases = (ENUM_CLASS_CASES if size == "full"
                 else {c: 1 for c in TINY_CLASS_CASES})
        self.ops = []
        self.warmup = []
        for (n, q), count in sorted(cases.items()):
            field = ml.GF(*prime_power(q))
            for j in range(count + 1):
                rng = op_rng(seed, "enum-class-%d-%d" % (n, q), j)
                x = self._psl_element(Generator(ml, rng), field, n)
                (self.ops if j else self.warmup).append(("class", n, q, x))
        # oracle instances: a stream of near-roots with n <= ORACLE_MAX_N,
        # each kept while the decade of its commutant's member count q^dim
        # still has room, so the enumeration cost of a pass barely depends
        # on the seed and stays below the (2, 251) class ops; q^n is a lower
        # bound on that count, so sizes too large are not drawn
        quota = list(sz["enum_oracle"])
        oracle = []
        i = 0
        while any(quota):
            field = small[i % 6]
            rng = op_rng(seed, "enum-oracle", i)
            i += 1
            n_max = max(n for n in range(1, ORACLE_MAX_N + 1)
                        if field.q**n < 10**len(quota))
            n = rng.randint(1, n_max)
            ks = [k for k in range(1, 7) if math.gcd(k, field.p) == 1]
            k = rng.choice(ks)
            alpha = rng.randrange(1, field.q)
            y = Generator(ml, rng).invertible(field, n)
            x, dec = ml.prepare_near_root(y, k, alpha)
            decade = len(str(field.q**len(ml.commutant_basis(x)))) - 1
            if decade < len(quota) and quota[decade]:
                quota[decade] -= 1
                oracle.append(("oracle", x, dec))
        for field in small:
            self.warmup += [op for op in oracle if op[1].field == field][:1]
        self.ops += oracle

    def _psl_element(self, gen, field, n):
        return self.ml.ClassicalElement(gen.special(field, n), self.ml.PSL_REP)

    def run(self, op):
        ml = self.ml
        if op[0] == "class":
            _, n, q, x = op
            size = ml.class_size_matrix(x)
            _check(size >= 1 and psl_order(n, q) % size == 0,
                   "class size does not divide |PSL_%d(%d)|" % (n, q))
            return size
        _, x, dec = op
        basis = ml.commutant_basis(x)
        invertible, _ = ml.span_invertible_counts(basis)
        fac = ml.centralizer_factorization(x, dec)
        _check(invertible == fac.total_order,
               "centralizer order %d != enumerated %d"
               % (fac.total_order, invertible))
        return [len(basis), invertible]

    def canon(self, result):
        return result

    def reach_probes(self, seed):
        probes = []
        for j, (n, q) in enumerate(REACH_ENUM):
            field = self.ml.GF(*prime_power(q))
            gen = Generator(self.ml, op_rng(seed, "enum-reach", j))
            probes.append(("class", n, q, self._psl_element(gen, field, n)))
        return probes


# -- gate --------------------------------------------------------------------


class Gate:
    """All 11 verification suites through run_suite at scale GATE_SCALE
    (GATE_FULL_SCALE at full scale), each CSV byte-compared with the
    reference at the default seed.  The tiny size is the same."""

    name = "gate"

    def __init__(self, ml, seed, size, reference_dir=None, out_dir="."):
        self.ml = ml
        self.seed = seed
        for p, e in SIX_FIELDS:  # the suites' standard fields
            ml.GF(p, e)
        self.reference_dir = reference_dir
        self.out_dir = out_dir
        self.ops = list(ml.SUITES)
        self.warmup = []
        self.elapsed = {}

    def run(self, name):
        config = {"suites": name, "seed": str(self.seed),
                  "out_dir": self.out_dir}
        if name not in GATE_FULL_SCALE:
            config["scale"] = str(GATE_SCALE)
        if self.reference_dir is not None:
            config["expect.%s" % name] = os.path.join(self.reference_dir,
                                                      name + ".csv")
        code, results, messages = self.ml.run_suite(config)
        _check(code == 0 and results and results[0].ok,
               "suite %s: %s" % (name, " | ".join(messages)))
        self.elapsed[name] = results[0].elapsed
        return results[0].csv_text

    def canon(self, result):
        return result


WORKLOADS = {"nearroot": NearRoot, "prank": ProjectiveRank,
             "enum": Enumeration}
GATE_HOST = "nearroot"
# metric name prefixes taken from the gate's traced pass on GATE_HOST
GATE_LAYERS = ("constructions.build_niceblock.",
               "constructions.commutator_witness_table.",
               "centralizers.perm_centralizer_structure.",
               "geodesics.hamming_chain.", "groups.permutation.", "suites.")
