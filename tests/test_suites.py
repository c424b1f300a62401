"""Runner-level checks for the verification suite harness; the suites
themselves run at full scale in test_acceptance.py."""

import pytest

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
