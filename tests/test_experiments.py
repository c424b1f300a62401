import time
from fractions import Fraction

import pytest

from msg_lab import experiments
from msg_lab.errors import UnsupportedCaseError
from msg_lab.experiments import (ALTERNATING, INFINITE, PSL_FAMILY,
                                 FamilyDescriptor, derive_seed,
                                 equivalence_experiment, format_family,
                                 fingerprint_experiment, parse_family,
                                 field_for_q, prime_power_split, rng_for,
                                 _order_p_semisimple)
from msg_lab.gf import GF
from msg_lab.groups import random_even_perm
from msg_lab.linalg import Matrix
from msg_lab.metrics import HAMMING, length


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)
    assert 0 <= derive_seed(2**80, 5) < 2**64
    a = rng_for(7, 0, 0)
    b = rng_for(7, 0, 0)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert rng_for(7, 0, 0).random() != rng_for(7, 0, 1).random()


def test_prime_power_split():
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(49) == (7, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_split(bad)
    assert field_for_q(9) is GF(3, 2)


def test_prime_power_split_of_word_size_prime_is_quick():
    """Trial division stops at sqrt(q): the largest prime field below the
    2^31 cap splits, and its PSL family parses, in under 0.1 s; the square
    of a prime near sqrt(2^31) splits and a product of two such primes is
    refused."""
    start = time.perf_counter()
    assert prime_power_split(2**31 - 1) == (2**31 - 1, 1)
    assert parse_family("PSL:2:2147483647").field_schedule == (2**31 - 1,)
    assert time.perf_counter() - start < 0.1
    assert prime_power_split(46337**2) == (46337, 2)
    with pytest.raises(ValueError):
        prime_power_split(46337 * 46327)


def test_order_past_the_cap_refused_before_trial_division(monkeypatch):
    """A scheduled q at or past the 2^31 field order cap is refused with
    ValueError before any trial division, within 1 s."""
    def fail(n):
        raise AssertionError("trial division ran")

    monkeypatch.setattr(experiments.poly, "_prime_divisors", fail)
    for text in ("PSL:2:100000000000000000039", "PSL:2:2147483648"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds cap"):
            parse_family(text)
        assert time.perf_counter() - start < 1.0


def test_each_scheduled_q_is_split_once(monkeypatch):
    """parse_family builds the field of each PSL row once, and both
    experiments reuse it: one prime_power_split per scheduled q across
    the parse and one experiment."""
    calls = []
    real = experiments.prime_power_split

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(experiments, "prime_power_split", counted)
    for run in (lambda fam: equivalence_experiment(fam, 2, 5),
                lambda fam: fingerprint_experiment(fam, (2, 3), 5)):
        del calls[:]
        family = parse_family("PSL:2,3:5,25")
        assert [field.q for field in family.row_fields] == [5, 25]
        run(family)
        assert calls == [5, 25]
    assert parse_family("ALT:5,6").row_fields == ()


def test_family_parse_format_roundtrip():
    fam = parse_family("ALT:50,100,200")
    assert fam.kind == ALTERNATING
    assert fam.size_schedule == (50, 100, 200)
    assert fam.declared_characteristic == INFINITE
    assert format_family(fam) == "ALT:50,100,200"
    fam = parse_family("PSL:2,3,4:4,8,16")
    assert fam.kind == PSL_FAMILY
    assert fam.declared_characteristic == 2
    assert format_family(fam) == "PSL:2,3,4:4,8,16"
    # strictly increasing characteristics: the infinite-characteristic lane
    fam = parse_family("PSL:2,3:5,49")
    assert fam.declared_characteristic == INFINITE
    assert list(fam.rows()) == [(0, 2, 5), (1, 3, 49)]
    alt_rows = list(parse_family("ALT:5,6").rows())
    assert alt_rows == [(0, 5, 0), (1, 6, 0)]


def test_family_validation_errors():
    with pytest.raises(ValueError):
        parse_family("ALT:4,10")          # alternating starts at 5
    with pytest.raises(ValueError):
        parse_family("ALT:6,6")           # not strictly increasing
    with pytest.raises(ValueError):
        parse_family("PSL:2,3:7,9")       # characteristics 7 then 3
    with pytest.raises(ValueError):
        parse_family("PSL:2,3:7")         # schedule length mismatch
    with pytest.raises(ValueError):
        parse_family("PSL:2:6")           # 6 is not a prime power
    with pytest.raises(ValueError):
        parse_family("SP:2,3")            # unknown kind
    with pytest.raises(ValueError):
        FamilyDescriptor(ALTERNATING, (5, 6), field_schedule=(7, 7))
    with pytest.raises(ValueError):
        FamilyDescriptor(ALTERNATING, ())


def test_equivalence_report_csv_determinism(tmp_path):
    fam = parse_family("ALT:5,6")
    rep1 = equivalence_experiment(fam, 3, 42)
    rep2 = equivalence_experiment(fam, 3, 42)
    assert rep1.to_csv() == rep2.to_csv()
    text = rep1.to_csv()
    lines = text.split("\n")
    assert lines[0] == "# experiment=equivalence"
    assert lines[2] == "# family=ALT:5,6"
    assert lines[3] == "# seed=42"
    assert lines[4] == "# trials=3"
    assert lines[5] == "family_index,n,q,trial,quantity,value"
    for line in lines[6:]:
        if line:
            assert len(line.split(",")) == 6
    path = tmp_path / "eq.csv"
    rep1.write(path)
    raw = path.read_bytes()
    assert raw == text.encode("utf-8")
    assert b"\r" not in raw
    # a different seed changes the data
    assert equivalence_experiment(fam, 3, 43).to_csv() != text


def test_equivalence_alternating_rows_reproducible():
    fam = parse_family("ALT:5,6")
    rep = equivalence_experiment(fam, 4, 11)
    by_key = {}
    for fi, n, q, trial, quantity, value in rep.rows:
        assert q == 0
        by_key[(fi, trial, quantity)] = (n, value)
    for fi, n in ((0, 5), (1, 6)):
        for trial in range(4):
            g = random_even_perm(n, rng_for(11, fi, trial))
            expect = length(g, HAMMING).value
            got_n, got = by_key[(fi, trial, "ell_h")]
            assert got_n == n and got == expect
            _, d_c = by_key[(fi, trial, "d_c")]
            assert 0.0 <= d_c <= 1.0
            _, gap = by_key[(fi, trial, "abs_diff")]
            assert abs(gap - abs(d_c - float(expect))) < 1e-12


def test_equivalence_psl_rows():
    fam = parse_family("PSL:2:5")
    rep = equivalence_experiment(fam, 5, 3)
    quantities = {}
    for fi, n, q, trial, quantity, value in rep.rows:
        assert (fi, n, q) == (0, 2, 5)
        quantities.setdefault(quantity, []).append(value)
    assert len(quantities["ell_pr"]) == 5
    for v in quantities["ell_pr"]:
        assert 0 <= v <= 1
    for v in quantities.get("d_c", []):
        assert 0.0 <= v <= 1.0
    assert "error" not in quantities


def test_equivalence_concentration_at_a1000():
    """In A_1000 both lengths concentrate near 1: the support length
    within 0.01 and the conjugacy length within 0.1, each in at least 95
    of 100 trials."""
    fam = FamilyDescriptor(ALTERNATING, (1000,))
    rep = equivalence_experiment(fam, 100, 2024)
    ell, d_c = [], []
    for _, n, _, _, quantity, value in rep.rows:
        if quantity == "ell_h":
            ell.append(float(value))
        elif quantity == "d_c":
            d_c.append(float(value))
    assert len(ell) == 100 and len(d_c) == 100
    assert sum(1 for v in ell if v >= 0.99) >= 95
    assert sum(1 for v in d_c if v >= 0.9) >= 95


def test_order_p_semisimple_properties():
    field = GF(7)
    x, d = _order_p_semisimple(field, 3, 4)
    assert d == 1  # 7 = 1 mod 3, so T^3 - 1 splits
    assert x.matpow(3) == Matrix.identity(field, 4)
    assert x != Matrix.identity(field, 4)
    field = GF(2)
    x, d = _order_p_semisimple(field, 7, 3)
    assert d == 3  # 2 has order 3 mod 7
    assert x.matpow(7) == Matrix.identity(field, 3)
    with pytest.raises(UnsupportedCaseError):
        _order_p_semisimple(GF(2), 7, 2)


def test_fingerprint_psl2_9_frozen():
    fam = parse_family("PSL:2:9")
    rep = fingerprint_experiment(fam, (2, 3, 5), 7)
    vals = {}
    for fi, n, q, trial, quantity, value in rep.rows:
        assert (fi, n, q, trial) == (0, 2, 9, 0)
        vals[quantity] = value
    # order-2 semisimple element: split torus, two GL_1(9) blocks
    assert vals["p2_ext_degree"] == 1
    assert vals["p2_large_core"] is False
    assert vals["p2_core_order"] == 1
    assert vals["p2_reductive_order"] == 64
    assert vals["p2_reductive_factors"] == 2
    # characteristic 3: the block element with its q^4 core
    assert vals["p3_large_core"] is True
    assert vals["p3_core_order"] == 9 ** 4 == 6561
    assert vals["p3_reductive_order"] == 5760
    assert vals["p3_ell_pr"] == Fraction(1, 2)
    # order-5 semisimple element lives in a quadratic extension
    assert vals["p5_ext_degree"] == 2
    assert vals["p5_core_order"] == 1
    assert vals["p5_reductive_order"] == 80
    assert vals["p5_reductive_factors"] == 1
    assert ("primes", "2,3,5") in rep.extra_metadata
    # metadata values are comma-cleaned like every other cell
    assert "# primes=2;3;5" in rep.to_csv()


def test_fingerprint_error_rows():
    # an order-5 semisimple element needs 4 dimensions, PSL_3 has 3
    fam = parse_family("PSL:3:7")
    rep = fingerprint_experiment(fam, (5,), 1)
    quantities = [row[4] for row in rep.rows]
    assert quantities == ["p5_error"]
    message = rep.rows[0][5]
    assert "dimension" in message
    # the error message passes through CSV cleaning intact
    for line in rep.to_csv().split("\n"):
        if line and not line.startswith("#"):
            assert len(line.split(",")) == 6


def test_fingerprint_input_checks():
    with pytest.raises(UnsupportedCaseError):
        fingerprint_experiment(parse_family("ALT:5,6"), (2,), 1)
    with pytest.raises(ValueError):
        fingerprint_experiment(parse_family("PSL:2:5"), (6,), 1)
