"""End-to-end checks of the msg-lab command line against frozen outputs."""

import math
from fractions import Fraction

import pytest

from msg_lab import cli
from msg_lab.cli import main
from msg_lab.experiments import equivalence_experiment, parse_family
from msg_lab.gf import GF
from msg_lab.groups import psl_canonical
from msg_lab.metrics import class_size_perm
from msg_lab.textio import parse_matrix, parse_permutation


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_metric_hamming(capsys):
    code, out, _ = _run(capsys, "metric", "--kind", "hamming", "1,2,0,3,4")
    assert code == 0 and out == "3/5\n"
    code, out, _ = _run(capsys, "metric", "--kind", "hamming",
                        "1,2,0,3,4", "2,0,1,3,4")
    assert code == 0 and out == "3/5\n"
    code, out, _ = _run(capsys, "metric", "--kind", "hamming", "1,0")
    assert code == 0 and out == "1\n"


def test_metric_prank(capsys):
    code, out, _ = _run(capsys, "metric", "--kind", "prank", "--field", "5",
                        "2,0;0,3")
    assert code == 0 and out == "1/2\n"
    code, out, _ = _run(capsys, "metric", "--kind", "prank", "--field", "5",
                        "SL:1,1;0,1", "SL:1,0;0,1")
    assert code == 0 and out == "1/2\n"


def test_metric_prank_word_size_field(capsys):
    """No budget on the projective rank metric up to gf.MAX_ORDER."""
    code, out, _ = _run(capsys, "metric", "--kind", "prank", "--field",
                        "2147483647", "1,1;0,1", "1,0;0,1")
    assert code == 0 and out == "1/2\n"


def test_metric_conj(capsys):
    code, out, _ = _run(capsys, "metric", "--kind", "conj", "--group", "A:9",
                        "1,2,0,3,4,5,6,7,8")
    assert code == 0 and out == "0.423164527649\n"
    code, out, _ = _run(capsys, "metric", "--kind", "conj", "--group",
                        "PSL:2:7", "SL:1,1;0,1")
    assert code == 0
    value = float(out)
    assert 0.0 < value < 1.0


def test_metric_conj_distance_of_two_permutations(capsys):
    """d_c(a, b) = log |(a b^-1)^G| / log |A_9|: a b^-1 is a double
    transposition, whose class in A_9 has C(9, 2) C(7, 2) / 2 = 378
    members."""
    a, b = "1,2,0,3,4,5,6,7,8", "0,2,1,4,3,5,6,7,8"
    code, out, _ = _run(capsys, "metric", "--kind", "conj", "--group", "A:9",
                        a, b)
    assert code == 0 and out == "0.490135510131\n"
    x = parse_permutation(a) * parse_permutation(b).inverse()
    size = class_size_perm(x.cycle_type(), 9, in_alternating=True)
    assert size == 378
    order = math.factorial(9) // 2
    assert out == "%.12g\n" % (math.log(size) / math.log(order))


def test_metric_conj_word_size_fields(capsys):
    """No budget on the conjugacy metric: PSL_3(257) and PSL_2(65537),
    which the commutant enumeration refused with exit 2, exit 0."""
    for group, elem in (("PSL:3:257", "SL:2,1,0;1,1,0;0,0,1"),
                        ("PSL:2:65537", "SL:2,1;1,1")):
        code, out, err = _run(capsys, "metric", "--kind", "conj",
                              "--group", group, elem)
        assert code == 0 and err == ""
        assert 0.0 < float(out) < 1.0
    code, out, _ = _run(capsys, "experiment", "--name", "equivalence",
                        "--family", "PSL:3:257", "--trials", "2")
    assert code == 0
    quantities = [line.split(",")[4] for line in out.splitlines()[6:]]
    assert quantities.count("d_c") == 2 and "error" not in quantities


def test_metric_errors(capsys):
    code, out, err = _run(capsys, "metric", "--kind", "conj", "1,0,2")
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = _run(capsys, "metric", "--kind", "prank", "2,0;0,3")
    assert code == 2 and "--field" in err
    code, _, err = _run(capsys, "metric", "--kind", "prank", "--field", "4",
                        "1,0;0,1")
    assert code == 2 and err.startswith("error:")


def test_field_past_the_cap_exits_2(capsys):
    """--field 2^400 is refused before any modulus search: exit 2, one
    error line, no traceback; so is a PSL family past the cap."""
    code, out, err = _run(capsys, "metric", "--kind", "prank", "--field",
                          "2^400", "1,0;0,1")
    assert code == 2 and out == ""
    assert err == "error: field order 2^400 exceeds cap 2147483648\n"
    code, out, err = _run(capsys, "experiment", "--name", "equivalence",
                          "--family", "PSL:2:100000000000000000039",
                          "--trials", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_prepare(capsys):
    code, out, _ = _run(capsys, "prepare", "--field", "5", "--k", "2",
                        "--alpha", "1", "2,0;0,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert "x=1,0;0,1" in lines
    assert "k=2" in lines and "alpha=1" in lines
    assert "dim_L=1" in lines and "dim_S=1" in lines
    assert "rank_x_minus_y=1" in lines and "rank_shift=1" in lines


def test_centralize(capsys):
    code, out, _ = _run(capsys, "centralize", "--field", "5", "--k", "2",
                        "--alpha", "1", "1,0;0,4", "1,1;0,1")
    assert code == 0
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["x"] == "1,0;0,4"
    assert kv["commutator_rank"] == "1"
    assert 1 <= int(kv["rank_phi_minus_psi"]) <= int(kv["bound"]) == 8
    field = GF(5)
    x = parse_matrix(field, kv["x"])
    psi = parse_matrix(field, kv["psi"])
    assert x @ psi == psi @ x and psi.is_invertible()


def test_niceblock(capsys):
    code, out, _ = _run(capsys, "niceblock", "--field", "3",
                        "--half-size", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("x=SL:")
    assert "half_size=2" in lines
    assert "ell_pr=1/2" in lines
    assert sum(1 for l in lines if l.startswith("A_gen=")) == 4
    assert sum(1 for l in lines if l.startswith("H_gen=")) == 5
    assert any(l.startswith("commutator_length=") for l in lines)


def test_sl_project(capsys):
    code, out, _ = _run(capsys, "sl-project", "--field", "5",
                        "2,0,0;0,1,0;0,0,1")
    assert code == 0
    assert out == "result=SL:1,0,0;0,1,0;0,0,1\nrank_moved=1\n"


def test_commutator_alternating(capsys):
    code, out, _ = _run(capsys, "commutator", "--group", "A:5", "1,2,0,3,4")
    assert code == 0
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    a = parse_permutation(kv["a"])
    b = parse_permutation(kv["b"])
    g = parse_permutation("1,2,0,3,4")
    assert a.inverse() * b.inverse() * a * b == g


def test_commutator_psl2(capsys):
    code, out, _ = _run(capsys, "commutator", "--group", "PSL:2:5",
                        "SL:2,0;0,3")
    assert code == 0
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    field = GF(5)
    a = parse_matrix(field, kv["a"])
    b = parse_matrix(field, kv["b"])
    comm = a.inverse() @ b.inverse() @ a @ b
    target = parse_matrix(field, "2,0;0,3")
    assert psl_canonical(comm).key() == psl_canonical(target).key()


def test_commutator_refuses_non_members_before_enumerating(capsys,
                                                          monkeypatch):
    """A transposition is not in A_5, a determinant-2 matrix and a 3 x 3
    one are not in PSL_2(5): each is refused with exit 2 and the message
    metric --kind conj gives, before a single element is built."""
    def enumerate_nothing(*args):
        raise AssertionError("enumerated before the membership check")

    monkeypatch.setattr(cli, "enumerate_alternating", enumerate_nothing)
    monkeypatch.setattr(cli, "enumerate_psl2", enumerate_nothing)
    for group, element, message in (
            ("A:5", "1,0,2,3,4", "elements must lie in A_n"),
            ("PSL:2:5", "1,1;0,2", "det must be 1 for tag PSL_REP"),
            ("PSL:2:5", "GL:1,1;0,2", "det must be 1 for tag PSL_REP"),
            ("PSL:2:5", "1,0,0;0,1,0;0,0,1",
             "element does not match the group descriptor")):
        code, out, err = _run(capsys, "commutator", "--group", group, element)
        assert (code, out, err) == (2, "", "error: %s\n" % message)
        if not element.startswith("GL"):
            assert _run(capsys, "metric", "--kind", "conj", "--group", group,
                        element) == (2, "", "error: %s\n" % message)


def test_commutator_checks_budget_before_enumerating(capsys, monkeypatch):
    """|A_12| = 12!/2 is far above the 10^4 budget: the order from the
    descriptor refuses the run before a single element is built."""
    def enumerate_nothing(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(cli, "enumerate_alternating", enumerate_nothing)
    monkeypatch.setattr(cli, "enumerate_psl2", enumerate_nothing)
    code, _, err = _run(capsys, "commutator", "--group", "A:12",
                        "1,2,0,3,4,5,6,7,8,9,10,11")
    assert code == 2 and "budget" in err
    code, _, err = _run(capsys, "commutator", "--group", "PSL:2:31",
                        "SL:1,0;0,1")
    assert code == 2 and "budget" in err


def test_commutator_rejects_large_psl(capsys):
    code, _, err = _run(capsys, "commutator", "--group", "PSL:3:2",
                        "SL:1,0,0;0,1,0;0,0,1")
    assert code == 2 and "PSL_2" in err


def test_prepare_rejects_alpha_outside_field(capsys):
    code, out, err = _run(capsys, "prepare", "--field", "5", "--k", "2",
                          "--alpha", "5", "1,0;0,1")
    assert code == 2 and out == "" and "alpha" in err


def test_factorize_centralizer(capsys):
    code, out, _ = _run(capsys, "factorize-centralizer", "--field", "5",
                        "--k", "2", "--alpha", "4", "0,1;1,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert "GL-block 2 1 480" in lines
    assert "total_order=480" in lines


def test_perm_centralizer(capsys):
    code, out, _ = _run(capsys, "perm-centralizer", "1,0,3,2,4,5,6")
    assert code == 0
    assert out == ("wreath-block 3 1 6\n"
                   "wreath-block 2 2 8\n"
                   "total_order=48\n")


def test_fingerprint_perm(capsys):
    code, out, _ = _run(capsys, "fingerprint", "--kind", "perm",
                        "1,0,3,2,4,5,6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p=2"
    assert "has_large_p_core=true" in lines
    assert "p_core_order=4" in lines
    assert "reductive_order=12" in lines


def test_fingerprint_semisimple(capsys):
    code, out, _ = _run(capsys, "fingerprint", "--kind", "semisimple",
                        "--field", "7", "--k", "2", "--alpha", "1", "0,1;1,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert "has_large_p_core=false" in lines
    assert "p_core_order=1" in lines
    assert lines.count("GL-block 1 1 6") == 2
    assert "reductive_order=36" in lines


def test_fingerprint_niceblock(capsys):
    code, out, _ = _run(capsys, "fingerprint", "--kind", "niceblock",
                        "--field", "3", "--half-size", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "p=3" in lines
    assert "p_core_order=81" in lines
    assert "GL-block 2 1 48" in lines
    assert "reductive_order=48" in lines


def test_chain_hamming(capsys):
    code, out, _ = _run(capsys, "chain", "--metric", "hamming",
                        "--max-step", "5/10", "1,2,3,4,5,6,7,8,9,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step 0: 0,1,2,3,4,5,6,7,8,9"
    assert lines[1].startswith("step 1: length=1/2 ")
    assert lines[2].startswith("step 2: length=3/5 ")
    assert "target_length=1" in lines
    assert "total=11/10" in lines
    assert "overshoot=1/10" in lines
    assert "splits=1" in lines
    assert "parity_repairs=0" in lines


def test_chain_prank(capsys):
    code, out, _ = _run(capsys, "chain", "--metric", "prank", "--field", "7",
                        "--max-step", "1/3", "SL:2,0,0;0,4,0;0,0,1")
    assert code == 0
    lines = out.strip().split("\n")
    steps = [l for l in lines if l.startswith("step ") and "length=" in l]
    assert len(steps) == 2
    for l in steps:
        assert "length=1/3" in l
    assert "overshoot=0" in lines
    assert not any(l.startswith("splits=") for l in lines)


def test_chain_prank_word_size_field(capsys):
    code, out, _ = _run(capsys, "chain", "--metric", "prank", "--field",
                        "2147483647", "--max-step", "1/3",
                        "SL:2,0,0;0,4,0;0,0,268435456")
    assert code == 0
    assert "total=2/3" in out.strip().split("\n")


def test_experiment_stdout_and_file(capsys, tmp_path):
    code, out, _ = _run(capsys, "experiment", "--name", "equivalence",
                        "--family", "ALT:5,6", "--trials", "3",
                        "--seed", "42")
    assert code == 0
    expect = equivalence_experiment(parse_family("ALT:5,6"), 3, 42).to_csv()
    assert out == expect
    target = tmp_path / "report.csv"
    code, out, _ = _run(capsys, "experiment", "--name", "equivalence",
                        "--family", "ALT:5,6", "--trials", "3",
                        "--seed", "42", "--out", str(target))
    assert code == 0
    assert out == "wrote %s\n" % target
    assert target.read_bytes() == expect.encode("utf-8")


def test_experiment_rejects_nonpositive_trials(capsys):
    for trials in ("-1", "0"):
        code, out, err = _run(capsys, "experiment", "--name", "equivalence",
                              "--family", "ALT:5,6", "--trials", trials)
        assert code == 2 and out == "" and "trials" in err


def test_experiment_fingerprint(capsys):
    code, out, _ = _run(capsys, "experiment", "--name", "fingerprint",
                        "--family", "PSL:2:9", "--primes", "2,3",
                        "--seed", "7")
    assert code == 0
    assert out.startswith("# experiment=fingerprint\n")
    assert "p3_core_order,6561" in out


def test_experiment_help_names_what_each_option_varies(capsys):
    """--trials and --primes belong to one experiment each, and the
    fingerprint experiment only records --seed in its header: two seeds
    give CSVs that differ in the seed line alone."""
    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--trials TRIALS equivalence only" in help_text
    assert "--primes PRIMES fingerprint only" in help_text
    assert "fingerprint: only recorded in the CSV header" in help_text
    outs = []
    for seed in ("1", "2"):
        code, out, _ = _run(capsys, "experiment", "--name", "fingerprint",
                            "--family", "PSL:2:9", "--primes", "2,3",
                            "--seed", seed)
        assert code == 0
        outs.append([line for line in out.splitlines()
                     if not line.startswith("# seed=")])
    assert outs[0] == outs[1]


def test_matrix_coefficients_out_of_contract_exit_2(capsys):
    """Over GF(3^2) an entry takes at most two coefficients in [0, 3)."""
    for bad in ("1.0.0,0;0,1", "3,0;0,1", "0.3,0;0,1"):
        code, out, err = _run(capsys, "sl-project", "--field", "3^2", bad)
        assert code == 2 and out == "" and err.startswith("error:")
    code, out, _ = _run(capsys, "sl-project", "--field", "3^2", "1,0;0,1")
    assert code == 0


def test_suite_command(capsys, tmp_path):
    config = tmp_path / "suite.cfg"
    out_dir = tmp_path / "out"
    config.write_text("suites = class-sizes\nout_dir = %s\n" % out_dir,
                      encoding="utf-8")
    code, out, _ = _run(capsys, "suite", "--config", str(config))
    assert code == 0
    assert "class-sizes" in out and "ok" in out
    assert (out_dir / "class-sizes.csv").exists()
    config.write_text("suites = no-such-suite\nout_dir = %s\n" % out_dir,
                      encoding="utf-8")
    code, out, _ = _run(capsys, "suite", "--config", str(config))
    assert code == 1
    code, _, err = _run(capsys, "suite", "--config",
                        str(tmp_path / "missing.cfg"))
    assert code == 2 and err.startswith("error:")
