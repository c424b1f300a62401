import time
from fractions import Fraction

import pytest

from msg_lab import poly, textio
from msg_lab.gf import GF
from msg_lab.groups import (SP, AlternatingDescriptor, ClassicalElement,
                            Permutation, PSLDescriptor,
                            standard_symplectic_form)
from msg_lab.linalg import Matrix
from msg_lab.metrics import HAMMING, MetricValue


def test_field_round_trip():
    for text in ["7", "2^4", "3^2:1,0,1", "5"]:
        field = textio.parse_field(text)
        again = textio.parse_field(textio.format_field(field))
        assert again is field
    assert textio.parse_field("7").q == 7
    assert textio.parse_field("2^4").q == 16
    assert textio.parse_field("3^2:1,0,1").modulus == (1, 0, 1)


def test_field_parse_errors():
    for bad in ["", "4", "2^0", "3^2:1,1", "3^2:2,0,2"]:
        with pytest.raises(Exception):
            textio.parse_field(bad)


def test_field_bounds_checked_before_any_search(monkeypatch):
    """An order at or past the 2^31 cap, or a degree below 1, is refused
    with ValueError before the search for a modulus, within 1 s."""
    def fail(*args):
        raise AssertionError("modulus search ran")

    monkeypatch.setattr(poly, "pirreducible", fail)
    for text, message in (("2^400", "exceeds cap"), ("2^31", "exceeds cap"),
                          ("2^0", "extension degree"),
                          ("2^400:" + ",".join(["1"] * 401), "exceeds cap")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            textio.parse_field(text)
        assert time.perf_counter() - start < 1.0


def test_scalar_round_trip():
    """Every element of GF(3^2) survives a 1 x 1 matrix round trip; short
    entries are zero-padded, and too many or out-of-range coefficients
    are refused."""
    field = GF(3, 2)
    for a in field.elements():
        m = Matrix.from_packed(field, [[a]])
        text = textio.format_matrix(m)
        assert text == "%d.%d" % (a % 3, a // 3)
        assert textio.parse_matrix(field, text) == m
    assert textio.parse_matrix(field, "2").entry(0, 0) == 2
    assert textio.parse_matrix(field, "0.2").entry(0, 0) == 6
    for bad in ("1.0.0", "3", "0.3", "-1"):
        with pytest.raises(ValueError):
            textio.parse_matrix(field, bad)


def test_matrix_round_trip(rng):
    for field in [GF(5), GF(2, 2)]:
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = Matrix.from_packed(
                field, [[rng.randrange(field.q) for _ in range(cols)]
                        for _ in range(rows)])
            assert textio.parse_matrix(field, textio.format_matrix(m)) == m
    field = GF(5)
    m = textio.parse_matrix(field, "1,2;3,4")
    assert m.packed().tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        textio.parse_matrix(field, "1,2;3")


def test_matrix_text_matches_the_coefficient_form(rng):
    """Every entry is written as its e coefficients joined by '.'; over a
    prime field that is the packed entry itself.  Checked byte for byte
    over GF(7), GF(9) and GF(2^6), empty shapes included."""
    for field in [GF(7), GF(3, 2), GF(2, 6)]:
        for rows, cols in [(0, 0), (2, 0), (1, 1), (3, 4), (5, 5)]:
            m = Matrix.from_packed(
                field, [[rng.randrange(field.q) for _ in range(cols)]
                        for _ in range(rows)])
            assert textio.format_matrix(m) == ";".join(
                ",".join(".".join(str(c) for c in field.coeffs(a))
                         for a in row) for row in m.packed().tolist())


def test_extension_matrix_text_uses_dots():
    """Extension entries serialize all e coefficients, constant first."""
    field = GF(2, 2)
    m = Matrix.from_packed(field, [[2, 1], [0, 3]])
    text = textio.format_matrix(m)
    assert text == "0.1,1.0;0.0,1.1"
    assert textio.parse_matrix(field, text) == m
    # short entries parse too: missing high coefficients default to zero
    assert textio.parse_matrix(field, "0.1,1;0,1.1") == m


def test_permutation_round_trip():
    sigma = Permutation((3, 0, 1, 2))
    text = textio.format_permutation(sigma)
    assert text == "3,0,1,2"
    assert textio.parse_permutation(text) == sigma
    with pytest.raises(ValueError):
        textio.parse_permutation("0,0,1")
    with pytest.raises(ValueError):
        textio.parse_permutation("1,2,0", n=4)


def test_classical_round_trip():
    field = GF(3)
    m = Matrix.from_packed(field, [[1, 1], [0, 1]])
    for tag_text in ["GL:1,1;0,1", "SL:1,1;0,1"]:
        elem = textio.parse_classical(field, tag_text)
        assert elem.matrix == m
        assert textio.format_classical(elem) == tag_text
    sp = textio.parse_classical(field, "SP:1,0,1,0;0,1,0,0;0,0,1,0;0,0,0,1")
    assert sp.form == standard_symplectic_form(field, 4)


def test_group_descriptor_round_trip():
    alt = textio.parse_group_descriptor("A:9")
    assert isinstance(alt, AlternatingDescriptor) and alt.n == 9
    psl = textio.parse_group_descriptor("PSL:2:7")
    assert isinstance(psl, PSLDescriptor)
    assert psl.n == 2 and psl.field.q == 7
    ext = textio.parse_group_descriptor("PSL:2:3^2:1,0,1")
    assert ext.field.q == 9 and ext.field.modulus == (1, 0, 1)
    with pytest.raises(Exception):
        textio.parse_group_descriptor("B:4")


def test_classical_and_descriptor_parse_errors():
    field = GF(3)
    for bad in ("1,0;0,1", "XL:1,0;0,1"):
        with pytest.raises(ValueError, match="expected TAG:matrix"):
            textio.parse_classical(field, bad)
    for bad, message in (("A:5:7", "alternating descriptor is A:n"),
                         ("PSL:2", "projective descriptor is PSL:n:field"),
                         ("B:4", "unknown group descriptor")):
        with pytest.raises(ValueError, match=message):
            textio.parse_group_descriptor(bad)


def test_format_value():
    assert textio.format_value(Fraction(3, 5)) == "3/5"
    assert textio.format_value(Fraction(4, 2)) == "2"
    assert textio.format_value(7) == "7"
    assert textio.format_value(True) == "true"
    assert textio.format_value(False) == "false"
    assert textio.format_value(0.5) == "0.5"
    assert textio.format_value(1 / 3) == "0.333333333333"
    assert textio.format_value(MetricValue(Fraction(1, 2), HAMMING)) == "1/2"


def test_parse_fraction():
    assert textio.parse_fraction("3/4") == Fraction(3, 4)
    assert textio.parse_fraction("2") == Fraction(2)
    with pytest.raises(ValueError):
        textio.parse_fraction("x")
