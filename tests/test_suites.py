"""Runner-level checks for the verification suite harness; the suites
themselves run at full scale in test_acceptance.py."""

import os
import subprocess
import sys

import pytest

import msg_lab
import msg_lab.suites as suites
from msg_lab.suites import (DEFAULT_SEED, SUITES, SuiteResult, parse_config,
                            run_suite, suite_approx_centralize,
                            suite_class_sizes)

EXPECTED_NAMES = [
    "split-prep", "approx-centralize", "centralizer-factors", "niceblock",
    "sl-projection", "metric-axioms", "class-sizes", "centralizers",
    "geodesics", "equivalence-trend", "fingerprint-family",
]


def test_registry_names():
    assert list(SUITES) == EXPECTED_NAMES
    for fn in SUITES.values():
        assert callable(fn)


# run in a fresh interpreter, where nothing has imported the reporting layer
LAZY_IMPORT_CHECK = """
import sys
import msg_lab
reporting = ("msg_lab.experiments", "msg_lab.suites", "msg_lab.textio",
             "statistics")
assert not [m for m in reporting if m in sys.modules]
from msg_lab import SUITES, run_suite
import msg_lab.suites
assert (SUITES, run_suite) == (msg_lab.suites.SUITES, msg_lab.suites.run_suite)
"""


def test_reporting_layer_loads_on_first_use():
    """import msg_lab leaves experiments, suites, textio and statistics
    unloaded; each reporting name of the package is its module's object,
    and an unknown name is an AttributeError."""
    src = os.path.dirname(os.path.dirname(msg_lab.__file__))
    subprocess.run([sys.executable, "-c", LAZY_IMPORT_CHECK], check=True,
                   env={**os.environ, "PYTHONPATH": src}, timeout=60)
    for name, module in msg_lab._REPORTING.items():
        assert getattr(msg_lab, name) is getattr(
            sys.modules["msg_lab." + module], name)
    with pytest.raises(AttributeError):
        msg_lab.no_such_name


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "suites = split-prep , metric-axioms\n"
        "seed=9\n"
        "  out_dir = somewhere  \n",
        encoding="utf-8")
    config = parse_config(path)
    assert config == {"suites": "split-prep , metric-axioms", "seed": "9",
                      "out_dir": "somewhere"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config(bad)


def test_run_suite_empty_config():
    code, results, messages = run_suite({})
    assert code == 0 and results == [] and messages == ["no suites configured"]


def test_run_suite_small_scale(tmp_path):
    out_dir = tmp_path / "out"
    config = {"suites": "approx-centralize,class-sizes", "seed": "5",
              "scale": "10", "out_dir": str(out_dir)}
    logged = []
    code, results, messages = run_suite(config, log=logged.append)
    assert code == 0
    assert [r.name for r in results] == ["approx-centralize", "class-sizes"]
    for r in results:
        assert r.ok and "ok" in r.summary
        assert r.csv_text.endswith("\n")
        assert (out_dir / ("%s.csv" % r.name)).read_text(
            encoding="utf-8") == r.csv_text
    assert messages[0] == results[0].summary
    assert logged[0] == results[0].summary


def test_run_suite_unknown_name(tmp_path):
    config = {"suites": "class-sizes,no-such-suite",
              "out_dir": str(tmp_path / "out")}
    code, results, messages = run_suite(config)
    assert code == 1
    assert [r.name for r in results] == ["class-sizes"]
    assert any("unknown suite" in m for m in messages)


def test_run_suite_expect_comparison(tmp_path):
    out_dir = tmp_path / "out"
    config = {"suites": "class-sizes", "out_dir": str(out_dir)}
    code, results, _ = run_suite(config)
    assert code == 0
    golden = tmp_path / "golden.csv"
    golden.write_text(results[0].csv_text, encoding="utf-8")
    config["expect.class-sizes"] = str(golden)
    code, _, messages = run_suite(config)
    assert code == 0
    assert not any("differs" in m for m in messages)
    golden.write_text(results[0].csv_text + "tampered\n", encoding="utf-8")
    code, _, messages = run_suite(config)
    assert code == 1
    assert any("differs" in m for m in messages)


def test_run_suite_all_and_failure_paths(tmp_path, monkeypatch):
    def make(name, ok):
        def fn(seed=DEFAULT_SEED, scale=None):
            return SuiteResult(name=name, ok=ok,
                               summary="%s: %s" % (name,
                                                   "ok" if ok else "FAIL"),
                               csv_text="name,value\n%s,1\n" % name,
                               details=() if ok else ("broken",),
                               elapsed=0.0)
        return fn

    fake = {"good": make("good", True), "bad": make("bad", False)}
    monkeypatch.setattr(suites, "SUITES", fake)
    out_dir = tmp_path / "out"
    code, results, messages = run_suite(
        {"suites": "all", "out_dir": str(out_dir)})
    assert code == 1
    assert [r.name for r in results] == ["good", "bad"]
    assert (out_dir / "good.csv").exists()
    assert (out_dir / "bad.csv").exists()
    assert any("broken" in m for m in messages)


def test_suite_csv_deterministic():
    a = suite_class_sizes()
    b = suite_class_sizes()
    assert a.ok and b.ok
    assert a.csv_text == b.csv_text
    a = suite_approx_centralize(seed=3, scale=12)
    b = suite_approx_centralize(seed=3, scale=12)
    assert a.ok
    assert a.csv_text == b.csv_text


def test_split_instances_reproducible():
    first = list(suites._split_instances(21, 2))
    second = list(suites._split_instances(21, 2))
    assert len(first) == 2 * len(suites._PROP_FIELDS)
    for (f1, n1, k1, a1, y1, _), (f2, n2, k2, a2, y2, _) in zip(first,
                                                                second):
        assert (f1.p, f1.e) == (f2.p, f2.e)
        assert (n1, k1, a1) == (n2, k2, a2)
        assert y1 == y2
        assert y1.is_invertible()
        assert 1 <= n1 <= 12 and 1 <= k1 <= 6 and k1 % f1.p != 0


def _reproducer_fields(detail):
    """The key=value tokens before the " :: " of a failure detail line."""
    head, _, message = detail.partition(" :: ")
    return dict(token.split("=", 1) for token in head.split(" ")), message


def test_split_prep_failure_carries_a_reproducer(monkeypatch):
    """One instance of split-prep at scale 1, the 2 x 2 one over GF(9),
    fails its split check: the CSV counts it, and the detail line's
    field=, k=, alpha= and y= parse back to that instance."""
    from msg_lab.textio import parse_field, parse_matrix

    instances = list(suites._split_instances(DEFAULT_SEED, 1))
    real = suites.check_split_condition
    calls = []

    def planted(x, dec):
        calls.append(x)
        if len(calls) == 6:
            raise AssertionError("planted failure")
        return real(x, dec)

    monkeypatch.setattr(suites, "check_split_condition", planted)
    result = suites.suite_split_prep(scale=1)
    assert not result.ok
    assert "failures,1\n" in result.csv_text
    assert len(result.details) == 1
    fields, message = _reproducer_fields(result.details[0])
    assert message == "planted failure"
    field, n, k, alpha, y, _ = instances[5]
    assert (field.q, n) == (9, 2) and y != y.transpose()
    assert parse_field(fields["field"]) == field
    assert (int(fields["k"]), int(fields["alpha"])) == (k, alpha)
    assert parse_matrix(field, fields["y"]) == y


def test_approx_centralize_failure_carries_a_reproducer(monkeypatch):
    """The same for approx-centralize at scale 12 and its last instance,
    6 x 6 over GF(9): the detail line also carries phi=, the matrix it
    centralized."""
    from msg_lab.textio import parse_field, parse_matrix

    instances = list(suites._split_instances(DEFAULT_SEED, 2))
    real = suites.approx_centralize
    phis = []

    def planted(x, dec, phi):
        phis.append(phi)
        if len(phis) == 12:
            raise AssertionError("planted failure")
        return real(x, dec, phi)

    monkeypatch.setattr(suites, "approx_centralize", planted)
    result = suites.suite_approx_centralize(scale=12)
    assert not result.ok
    assert "instances,12\n" in result.csv_text
    assert "failures,1\n" in result.csv_text
    fields, message = _reproducer_fields(result.details[0])
    assert message == "planted failure"
    field, n, k, alpha, y, _ = instances[11]
    assert (field.q, n) == (9, 6) and phis[11] != phis[11].transpose()
    assert parse_field(fields["field"]) == field
    assert (int(fields["k"]), int(fields["alpha"])) == (k, alpha)
    assert parse_matrix(field, fields["y"]) == y
    assert parse_matrix(field, fields["phi"]) == phis[11]


def test_centralizer_factors_failure_carries_a_reproducer(monkeypatch):
    """centralizer-factors at scale 1 with a doubled order on its last
    instance, 2 x 2 over GF(9): the brute count catches it, the CSV counts
    it, and the detail line parses back to that instance."""
    from types import SimpleNamespace

    from msg_lab.textio import parse_field, parse_matrix

    instances = list(suites._split_instances(DEFAULT_SEED, 1))
    real = suites.centralizer_factorization
    orders = []

    def planted(x, dec):
        fac = real(x, dec)
        orders.append(fac.total_order)
        if len(orders) < 6:
            return fac
        return SimpleNamespace(factors=fac.factors,
                               total_order=2 * fac.total_order)

    monkeypatch.setattr(suites, "centralizer_factorization", planted)
    result = suites.suite_centralizer_factors(scale=1)
    assert not result.ok
    assert "instances,6\n" in result.csv_text
    assert "failures,1\n" in result.csv_text
    assert len(result.details) == 1
    fields, message = _reproducer_fields(result.details[0])
    assert message == "order %d != brute %d" % (2 * orders[5], orders[5])
    field, n, k, alpha, y, _ = instances[5]
    assert (field.q, n) == (9, 2)
    assert parse_field(fields["field"]) == field
    assert (int(fields["k"]), int(fields["alpha"])) == (k, alpha)
    assert parse_matrix(field, fields["y"]) == y


def test_centralizer_factors_reports_too_many_factors(monkeypatch):
    """centralizer-factors at scale 1 with primary_blocks planted to return
    k + 1 blocks too many on the last instance, 2 x 2 over GF(9):
    centralizer_factorization refuses more than k + 1 factors, and the
    suite counts that instance with its reproducer."""
    import msg_lab.centralizers as centralizers
    from msg_lab.linalg import Matrix
    from msg_lab.textio import parse_field, parse_matrix

    instances = list(suites._split_instances(DEFAULT_SEED, 1))
    real = centralizers.primary_blocks
    calls = []

    def planted(x, k, alpha):
        blocks = real(x, k, alpha)
        calls.append(k)
        if len(calls) < 6:
            return blocks
        # T^j, j = 1..k + 1, each with a j-dimensional block: distinct
        # factors that x, being invertible, never has
        return blocks + [((0,) * j + (1,), Matrix.zeros(x.field, x.nrows, j))
                         for j in range(1, k + 2)]

    monkeypatch.setattr(centralizers, "primary_blocks", planted)
    result = suites.suite_centralizer_factors(scale=1)
    assert not result.ok
    assert "instances,6\n" in result.csv_text
    assert "failures,1\n" in result.csv_text
    assert len(result.details) == 1
    fields, message = _reproducer_fields(result.details[0])
    assert message == "more than k + 1 centralizer factors"
    field, n, k, alpha, y, _ = instances[5]
    assert (field.q, n) == (9, 2)
    assert parse_field(fields["field"]) == field
    assert (int(fields["k"]), int(fields["alpha"])) == (k, alpha)
    assert parse_matrix(field, fields["y"]) == y


def test_metric_axioms_failures_name_the_triple_and_axiom(monkeypatch):
    """metric-axioms at scale 1 with d(b, a) planted off d(a, b) on the
    first triple of three metrics: the Hamming distance by 10^-12, and the
    A_9 and PSL_2(7) conjugacy distances by one in the class size.  Each
    comparison is exact, so all three are reported."""
    from fractions import Fraction

    from msg_lab.experiments import rng_for
    from msg_lab.gf import GF
    from msg_lab.groups import random_even_perm, random_perm, random_sl
    from msg_lab.metrics import CONJ, HAMMING, ClassLog, MetricValue

    def first_triple(stream, draw):
        rng = rng_for(DEFAULT_SEED, stream, 0)
        return [draw(rng) for _ in range(4)]

    a_h, b_h, _, _ = first_triple(100, lambda rng: random_perm(9, rng))
    a_c, b_c, _, _ = first_triple(300, lambda rng: random_even_perm(9, rng))
    a_p, b_p, _, _ = first_triple(400, lambda rng: random_sl(2, GF(7), rng))
    assert a_h != b_h
    real_hamming, real_conj = suites.hamming_distance, suites.conjugacy_distance

    def planted_hamming(x, y):
        d = real_hamming(x, y)
        if (x, y) == (b_h, a_h):
            return MetricValue(d.value - Fraction(1, 10**12), HAMMING)
        return d

    def planted_conj(x, y, group):
        d = real_conj(x, y, group)
        if (x, y) in ((b_c, a_c), (b_p, a_p)):
            return MetricValue(ClassLog(d.value.size + 1, d.value.order),
                               CONJ)
        return d

    monkeypatch.setattr(suites, "hamming_distance", planted_hamming)
    monkeypatch.setattr(suites, "conjugacy_distance", planted_conj)
    result = suites.suite_metric_axioms(scale=1)
    assert not result.ok
    assert "failures,3\n" in result.csv_text
    assert result.details == ("hamming triple 0: ['symmetry']",
                              "conj triple 0: ['symmetry']",
                              "psl conj triple 0: ['symmetry']")


def _plant_dim_j_plus_one(monkeypatch):
    """Every matrix fingerprint reads dim J one too large."""
    from msg_lab import centralizers

    real = centralizers.gl_centralizer_structure

    def planted(data):
        dim_j, factors = real(data)
        return dim_j + 1, factors

    monkeypatch.setattr(centralizers, "gl_centralizer_structure", planted)


def test_centralizers_failure_names_the_permutation(monkeypatch):
    """centralizers with the order of (0 1)(2 3) in S_5 planted at twice
    its value, and dim J read one too large in every matrix fingerprint:
    the permutation is named by n and the image list, and each of the 25
    dichotomy cases fails, the block elements as "niceblock core" (order
    char^(n^2 + 1)) and the semisimple ones as "semisimple core" (order
    char).  The brute counts for n <= 7 come from the cycle-type formula
    here, which the unpatched suite checks against them, to keep this test
    short."""
    from msg_lab.centralizers import (WREATH_BLOCK, CentralizerDescriptor,
                                      FactorRecord)
    from msg_lab.groups import Permutation
    from msg_lab.metrics import perm_centralizer_order

    target = Permutation([1, 0, 3, 2, 4])
    real = suites.perm_centralizer_structure

    def planted(sigma):
        desc = real(sigma)
        if sigma == target:
            return CentralizerDescriptor(
                desc.factors + (FactorRecord(WREATH_BLOCK, 1, 2, 2),))
        return desc

    def formula_counts(arr):
        return [perm_centralizer_order(Permutation(row).cycle_type())
                for row in arr.tolist()]

    monkeypatch.setattr(suites, "perm_centralizer_structure", planted)
    monkeypatch.setattr(suites, "_brute_centralizer_counts_all",
                        formula_counts)
    result = suites.suite_centralizer_structure()
    assert not result.ok
    assert "failures,1\n" in result.csv_text
    assert result.details == ("S_5 [1, 0, 3, 2, 4] order",)

    _plant_dim_j_plus_one(monkeypatch)
    result = suites.suite_centralizer_structure()
    assert not result.ok
    assert "dichotomy_cases,25\n" in result.csv_text
    assert "failures,26\n" in result.csv_text
    assert result.details == (
        ("S_5 [1, 0, 3, 2, 4] order",)
        + tuple("niceblock core p=2 n=%d" % n for n in (2, 3, 4))
        + tuple("semisimple core p=2 char=%d n=%d" % (char, n)
                for char, n in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1),
                                (5, 2))))


def test_fingerprint_family_failure_names_the_prime(monkeypatch):
    """fingerprint-family with the fingerprint raising for p = 3, the
    characteristic of GF(9): the CSV carries the error row of each n, and
    the details name the error and the missing large core there, while
    p = 2 and 5 still pass.  Then with dim J read one too large: the p = 3
    core order is 9^(n^2 + 1), and p = 2 and 5 are flagged large."""
    from msg_lab import experiments
    from msg_lab.constructions import NiceblockCertificate
    from msg_lab.errors import UnsupportedCaseError

    real = experiments.characteristic_fingerprint

    def planted(x, context=None):
        if isinstance(context, NiceblockCertificate):
            raise UnsupportedCaseError("planted failure")
        return real(x, context)

    monkeypatch.setattr(experiments, "characteristic_fingerprint", planted)
    result = suites.suite_fingerprint_family()
    assert not result.ok
    for i, n in enumerate((2, 3, 4)):
        assert "%d,%d,9,0,p3_error,planted failure\n" % (i, n) \
            in result.csv_text
    assert result.details == (
        ("p3_error at n=2: planted failure",
         "p3_error at n=3: planted failure",
         "p3_error at n=4: planted failure")
        + tuple(line % n for n in (2, 3, 4)
                for line in ("p = 3 core not large at n = %d",
                             "p = 3 core order wrong at n = %d")))

    monkeypatch.setattr(experiments, "characteristic_fingerprint", real)
    _plant_dim_j_plus_one(monkeypatch)
    result = suites.suite_fingerprint_family()
    assert not result.ok
    for i, n in enumerate((2, 3, 4)):
        assert "%d,%d,9,0,p3_core_order,%d\n" % (i, n, 9 ** (n * n + 1)) \
            in result.csv_text
        assert "%d,%d,9,0,p2_large_core,true\n" % (i, n) in result.csv_text
    assert result.details == tuple(
        line % n for n in (2, 3, 4)
        for line in ("p = 3 core order wrong at n = %d",
                     "p = 2 core flagged large at n = %d",
                     "p = 5 core flagged large at n = %d"))


def test_niceblock_failure_names_the_certificate(monkeypatch):
    """niceblock with the length of the first block element, SL_4 over
    GF(2), planted at 1/3: one failure, named by group, half size and
    field, with the check that caught it."""
    from fractions import Fraction

    from msg_lab.metrics import PRANK, MetricValue

    real = suites.length
    calls = []

    def planted(g, kind, group=None):
        calls.append(g)
        if len(calls) == 1:
            return MetricValue(Fraction(1, 3), PRANK)
        return real(g, kind, group)

    monkeypatch.setattr(suites, "length", planted)
    result = suites.suite_niceblock()
    assert not result.ok
    assert "failures,1\n" in result.csv_text
    assert result.details == ("SL n=2 q=2 :: ell_pr(x) != 1/2",)


def test_geodesics_failure_names_the_chain(monkeypatch):
    """geodesics at scale 1 with the verification of the first support
    chain planted invalid: one failure, named by the chain's kind and
    index, with the mismatch the report carried."""
    from fractions import Fraction

    from msg_lab.geodesics import VerifyReport

    real = suites.verify_chain
    calls = []

    def planted(chain):
        calls.append(chain)
        if len(calls) == 1:
            return VerifyReport(False, Fraction(0), ("planted mismatch",))
        return real(chain)

    monkeypatch.setattr(suites, "verify_chain", planted)
    result = suites.suite_geodesics(scale=1)
    assert not result.ok
    assert "failures,1\n" in result.csv_text
    assert result.details == ("hamming 0: ('planted mismatch',)",)


def test_sl_projection_failure_carries_a_reproducer(monkeypatch):
    """sl-projection at scale 6 with the projection of its fourth
    instance, over GF(7), planted singular: the CSV counts one failure,
    and the detail line's field= and g= parse back to the projected
    matrix."""
    from types import SimpleNamespace

    from msg_lab.textio import parse_field, parse_matrix

    real = suites.project_to_sl
    inputs = []

    def planted(g):
        inputs.append(g)
        h = real(g)
        if len(inputs) == 4:
            return SimpleNamespace(matrix=h.matrix.scale(0))
        return h

    monkeypatch.setattr(suites, "project_to_sl", planted)
    result = suites.suite_sl_projection(scale=6)
    assert not result.ok
    assert "projection_trials,6\n" in result.csv_text
    assert "failures,1\n" in result.csv_text
    assert len(result.details) == 1
    fields, message = _reproducer_fields(result.details[0])
    assert message == "projection 3 lost det 1"
    field = parse_field(fields["field"])
    assert field.q == 7
    assert parse_matrix(field, fields["g"]) == inputs[3]


def test_class_sizes_failure_names_the_cycle_type(monkeypatch):
    """class-sizes with the A_5 class of 3-cycles planted one too large:
    the exhaustive count catches it, and the detail names the group and
    the cycle type, while the S_5 class and the orbit-stabilizer identity
    still pass."""
    real = suites.class_size_perm

    def planted(ct, n, in_alternating=False):
        size = real(ct, n, in_alternating)
        if (ct, n, in_alternating) == ((3, 1, 1), 5, True):
            return size + 1
        return size

    monkeypatch.setattr(suites, "class_size_perm", planted)
    result = suites.suite_class_sizes()
    assert not result.ok
    assert "failures,1\n" in result.csv_text
    assert result.details == ("A_5 type (3, 1, 1) size",)


def test_equivalence_trend_failure_names_the_degree(monkeypatch):
    """equivalence-trend at scale 3 with every gap at A_1000 planted 1
    larger: the details name n = 1000 in both checks it breaks, with the
    medians of the planted rows, and the CSV carries those rows."""
    import dataclasses
    import statistics

    real = suites.equivalence_experiment
    reports = []

    def planted(family, trials, seed):
        report = real(family, trials, seed)
        rows = tuple(row[:5] + (row[5] + 1,)
                     if row[1] == 1000 and row[4] == "abs_diff" else row
                     for row in report.rows)
        reports.append(dataclasses.replace(report, rows=rows))
        return reports[-1]

    monkeypatch.setattr(suites, "equivalence_experiment", planted)
    result = suites.suite_equivalence_trend(scale=3)
    assert not result.ok
    assert result.csv_text == reports[0].to_csv()
    m500, m1000 = (statistics.median(row[5] for row in reports[0].rows
                                     if row[1] == n and row[4] == "abs_diff")
                   for n in (500, 1000))
    assert result.details == (
        "median gap did not decrease from n=500 (%.4f) to n=1000 (%.4f)"
        % (m500, m1000),
        "median gap %.4f at n=1000 is not below 0.1" % m1000)
