"""Text formats for fields, elements, matrices, and group descriptors.

Formats, all one-line:

  field        "7", "2^4", or "3^2:2,2,1" (modulus coefficients, constant
               term first, monic of degree e)
  matrix       rows joined by ';', entries by ','; an entry with extension
               coefficients joins them with '.': "1.2,0;0,1"
  permutation  image list "3,0,1,2"
  classical    group tag prefix plus matrix: "SL:1,0;0,1"; tag PSL maps to
               the determinant-one representative convention; SP uses the
               standard alternating form
  descriptor   "A:5" or "PSL:2:7" (the field part may itself carry a
               modulus, e.g. "PSL:2:3^2:2,2,1")
"""

from fractions import Fraction

from .gf import GF
from .groups import (GL, PSL_REP, SL, SP, AlternatingDescriptor,
                     ClassicalElement, Permutation, PSLDescriptor,
                     standard_symplectic_form)
from .linalg import Matrix
from .metrics import ClassLog, MetricValue

_TAG_IN = {"GL": GL, "SL": SL, "SP": SP, "PSL": PSL_REP}
_TAG_OUT = {GL: "GL", SL: "SL", SP: "SP", PSL_REP: "PSL"}


def parse_field(text):
    """Field from "p", "p^e", or "p^e:c0,c1,...,ce"."""
    text = text.strip()
    head, sep, tail = text.partition(":")
    if "^" in head:
        p_str, e_str = head.split("^", 1)
        p, e = int(p_str), int(e_str)
    else:
        p, e = int(head), 1
    if not sep:
        return GF(p, e)
    coeffs = tuple(int(c) for c in tail.split(","))
    if len(coeffs) != e + 1:
        raise ValueError("modulus needs %d coefficients, got %d"
                         % (e + 1, len(coeffs)))
    return GF(p, e, coeffs)


def format_field(field):
    if field.e == 1:
        return str(field.p)
    return "%d^%d:%s" % (field.p, field.e,
                         ",".join(str(c) for c in field.modulus))


def parse_matrix(field, text):
    rows = []
    for row_text in text.strip().split(";"):
        row = []
        for entry in row_text.split(","):
            # missing high coefficients are zero
            parts = entry.split(".")
            row.append(field.from_coeffs(parts + [0] * (field.e - len(parts))))
        rows.append(row)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix text")
    return Matrix.from_packed(field, rows)


def format_matrix(m):
    field = m.field
    if field.e == 1:  # a prime-field element is its one coefficient
        entry = str
    else:
        entry = lambda a: ".".join(str(c) for c in field.coeffs(a))
    return ";".join(",".join(entry(a) for a in row) for row in m.rows)


def parse_permutation(text, n=None):
    images = [int(tok) for tok in text.strip().split(",")]
    if n is not None and len(images) != n:
        raise ValueError("expected %d images, got %d" % (n, len(images)))
    return Permutation(images)


def format_permutation(sigma):
    return ",".join(str(i) for i in sigma.images)


def parse_classical(field, text):
    tag_text, sep, mat_text = text.strip().partition(":")
    if not sep or tag_text not in _TAG_IN:
        raise ValueError("expected TAG:matrix with TAG in %s"
                         % sorted(_TAG_IN))
    tag = _TAG_IN[tag_text]
    m = parse_matrix(field, mat_text)
    form = standard_symplectic_form(field, m.nrows) if tag == SP else None
    return ClassicalElement(m, tag, form)


def parse_element(field, text):
    """A tagged classical element when the text starts with a group tag,
    else a plain matrix."""
    if text.split(":", 1)[0] in _TAG_IN:
        return parse_classical(field, text)
    return parse_matrix(field, text)


def format_classical(elem):
    return "%s:%s" % (_TAG_OUT[elem.group_tag], format_matrix(elem.matrix))


def parse_group_descriptor(text):
    """Group descriptor "A:n" or "PSL:n:field"."""
    parts = text.strip().split(":", 2)
    if parts[0] == "A":
        if len(parts) != 2:
            raise ValueError("alternating descriptor is A:n")
        return AlternatingDescriptor(int(parts[1]))
    if parts[0] == "PSL":
        if len(parts) != 3:
            raise ValueError("projective descriptor is PSL:n:field")
        field = parse_field(parts[2])
        return PSLDescriptor(int(parts[1]), field)
    raise ValueError("unknown group descriptor %r" % text)


def format_value(v):
    """CSV cell: exact rationals as a/b (integers plain), floats and
    ClassLogs to 12 significant digits."""
    if isinstance(v, MetricValue):
        v = v.value
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (float, ClassLog)):
        return format(float(v), ".12g")
    return str(v)


def parse_fraction(text):
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text.strip()) from None
