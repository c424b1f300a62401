"""Randomized experiments over families of groups, with CSV reports.

A family is a schedule of groups of one kind (alternating groups, or
projective special linear groups over growing fields).  Experiments walk
the schedule, draw seeded random elements, and emit one report row per
measured quantity.  Reports serialize to CSV deterministically: the same
(family, trials, seed) triple always produces byte-identical output, and
every row can be regenerated independently because the per-trial
generator is derived from (seed, family index, trial) alone.
"""

import dataclasses
import math
import random
from dataclasses import dataclass

from . import poly
from .constructions import build_niceblock, prepare_near_root
from .errors import MsgLabError, UnsupportedCaseError
from .gf import GF, check_order, is_prime
from .groups import (PSL_REP, SL, AlternatingDescriptor, ClassicalElement,
                     PSLDescriptor, random_even_perm, random_sl)
from .linalg import Matrix
from .metrics import CONJ, HAMMING, PRANK, length
from .centralizers import characteristic_fingerprint
from .textio import format_value

ALTERNATING = "ALTERNATING"
PSL_FAMILY = "PSL"
INFINITE = math.inf

_VERSION = "0.1.0"

_MIX_MUL = 6364136223846793005
_MIX_ADD = 1442695040888963407
_MASK = (1 << 64) - 1


def derive_seed(seed, *indices):
    """Stable 64-bit stream seed for a position in an experiment grid."""
    mix = seed & _MASK
    for ix in indices:
        mix = (mix * _MIX_MUL + ix + _MIX_ADD) & _MASK
    return mix


def rng_for(seed, *indices):
    return random.Random(derive_seed(seed, *indices))


def prime_power_split(q):
    """(p, e) with q = p^e, p prime, by trial division up to sqrt(q), once
    q is known to lie below the field order cap."""
    check_order(q)
    primes = poly._prime_divisors(q) if q > 1 else []
    if len(primes) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = primes[0]
    return p, next(e for e in range(1, q.bit_length() + 1) if p**e == q)


def field_for_q(q):
    p, e = prime_power_split(q)
    return GF(p, e)


@dataclass(frozen=True)
class FamilyDescriptor:
    """A schedule of groups of one kind.

    size_schedule must be strictly increasing.  For PSL families the
    field schedule pairs with the sizes.  declared_characteristic is
    computed from the schedule: infinite for alternating families, and for
    PSL families the common characteristic if all fields share one, or
    infinite if the characteristics strictly increase.  row_fields holds
    the Field of each PSL row, built once here for the experiments.
    """

    kind: str
    size_schedule: tuple
    field_schedule: tuple = ()
    declared_characteristic: object = dataclasses.field(init=False)
    row_fields: tuple = dataclasses.field(default=(), init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size_schedule",
                           tuple(int(n) for n in self.size_schedule))
        object.__setattr__(self, "field_schedule",
                           tuple(int(q) for q in self.field_schedule))
        sizes = self.size_schedule
        if not sizes:
            raise ValueError("empty size schedule")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("size schedule must be strictly increasing")
        if self.kind == ALTERNATING:
            if self.field_schedule:
                raise ValueError("alternating families take no fields")
            if sizes[0] < 5:
                raise ValueError("alternating schedule starts at n >= 5")
            computed = INFINITE
        elif self.kind == PSL_FAMILY:
            if len(self.field_schedule) != len(sizes):
                raise ValueError("field schedule must pair with sizes")
            fields = tuple(field_for_q(q) for q in self.field_schedule)
            chars = [field.p for field in fields]
            for n, field in zip(sizes, fields):
                PSLDescriptor(n, field)
            object.__setattr__(self, "row_fields", fields)
            if all(c == chars[0] for c in chars):
                computed = chars[0]
            elif all(b > a for a, b in zip(chars, chars[1:])):
                computed = INFINITE
            else:
                raise ValueError(
                    "field characteristics must be constant or strictly "
                    "increasing, got %r" % (chars,))
        else:
            raise ValueError("unknown family kind %r" % self.kind)
        object.__setattr__(self, "declared_characteristic", computed)

    def rows(self):
        """(index, n, q) triples; q = 0 for alternating rows."""
        for i, n in enumerate(self.size_schedule):
            q = self.field_schedule[i] if self.kind == PSL_FAMILY else 0
            yield i, n, q


def parse_family(text):
    """Family from "ALT:50,100" or "PSL:2,3:7,9"."""
    parts = text.strip().split(":")
    if (parts[0], len(parts)) not in (("ALT", 2), ("PSL", 3)):
        raise ValueError("family text is ALT:n1,n2,... or PSL:n1,...:q1,...")
    sizes = tuple(int(tok) for tok in parts[1].split(","))
    if parts[0] == "ALT":
        return FamilyDescriptor(ALTERNATING, sizes)
    fields = tuple(int(tok) for tok in parts[2].split(","))
    return FamilyDescriptor(PSL_FAMILY, sizes, fields)


def format_family(family):
    sizes = ",".join(str(n) for n in family.size_schedule)
    if family.kind == ALTERNATING:
        return "ALT:%s" % sizes
    return "PSL:%s:%s" % (sizes,
                          ",".join(str(q) for q in family.field_schedule))


_HEADER = "family_index,n,q,trial,quantity,value"


def _clean_cell(text):
    return str(text).replace(",", ";").replace("\n", " ")


@dataclass(frozen=True)
class ExperimentReport:
    """Rows of (family_index, n, q, trial, quantity, value) plus the
    metadata needed to regenerate them."""

    name: str
    family: FamilyDescriptor
    seed: int
    trials: int
    rows: tuple
    extra_metadata: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "extra_metadata",
                           tuple(self.extra_metadata))

    def to_csv(self):
        lines = [
            "# experiment=%s" % self.name,
            "# version=%s" % _VERSION,
            "# family=%s" % format_family(self.family),
            "# seed=%d" % self.seed,
            "# trials=%d" % self.trials,
        ]
        for key, value in self.extra_metadata:
            lines.append("# %s=%s" % (key, _clean_cell(value)))
        lines.append(_HEADER)
        for fi, n, q, trial, quantity, value in self.rows:
            lines.append("%d,%d,%d,%d,%s,%s"
                         % (fi, n, q, trial, quantity,
                            _clean_cell(format_value(value))))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())


def equivalence_experiment(family, trials, seed):
    """Compare word-length metrics against the conjugacy metric.

    Per trial: a random even permutation (alternating rows) or random
    determinant-1 matrix (PSL rows), its normalized length in the
    support or rank metric, its conjugacy length, and the gap and ratio
    between the two.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    rows = []
    for fi, n, q in family.rows():
        if family.kind == ALTERNATING:
            group = AlternatingDescriptor(n)
        else:
            group = PSLDescriptor(n, family.row_fields[fi])
        for trial in range(trials):
            rng = rng_for(seed, fi, trial)
            if family.kind == ALTERNATING:
                g = random_even_perm(n, rng)
                ell = length(g, HAMMING)
                label = "ell_h"
            else:
                g = ClassicalElement(random_sl(n, group.field, rng).matrix,
                                     PSL_REP)
                ell = length(g, PRANK)
                label = "ell_pr"
            rows.append((fi, n, q, trial, label, ell.value))
            d_c = float(length(g, CONJ, group).value)
            gap = abs(d_c - float(ell.value))
            rows.append((fi, n, q, trial, "d_c", d_c))
            rows.append((fi, n, q, trial, "abs_diff", gap))
            if ell.value != 0:
                rows.append((fi, n, q, trial, "ratio",
                             d_c / float(ell.value)))
    return ExperimentReport("equivalence", family, seed, trials,
                            tuple(rows))


def fingerprint_element(field, p, n):
    """(x, context, d) for characteristic_fingerprint at the prime p.  At
    p = char: the SL block element of half size n, its certificate and
    d = None.  Otherwise prepare_near_root's split of C(f) + I_(n - d) in
    GL_n, C(f) the companion matrix of the first irreducible f != T - 1
    dividing T^p - 1, of degree d (UnsupportedCaseError when d > n)."""
    if p == field.p:
        cert = build_niceblock(n, field, SL)
        return cert.x, cert, None
    target = (field.neg(field.one),) + (field.zero,) * (p - 1) + (field.one,)
    t_minus_1 = (field.neg(field.one), field.one)
    f = next(g for g in poly.pfactor_distinct(field, target)
             if g != t_minus_1)
    d = len(f) - 1
    if d > n:
        raise UnsupportedCaseError(
            "an order-%d semisimple element needs dimension >= %d, have %d"
            % (p, d, n))
    rows = [[0] * n for _ in range(n)]
    for i in range(1, d):
        rows[i][i - 1] = field.one
    for i in range(d):
        rows[i][d - 1] = field.neg(f[i])
    for i in range(d, n):
        rows[i][i] = field.one
    y = Matrix.from_packed(field, rows)
    return prepare_near_root(y, p, field.one) + (d,)


def fingerprint_experiment(family, primes, seed):
    """Fingerprints of fingerprint_element across a PSL family, one row
    set per (group, prime) pair: the p-core is large, growing as q^(n^2),
    exactly at the characteristic.  Rows that cannot be built at the
    scheduled size become per-row error entries."""
    if family.kind != PSL_FAMILY:
        raise UnsupportedCaseError(
            "fingerprints need a matrix family, got %s" % family.kind)
    primes = tuple(sorted(set(int(p) for p in primes)))
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
    rows = []
    for fi, n, q in family.rows():
        field = family.row_fields[fi]
        for p in primes:
            tag = "p%d" % p
            try:
                x, context, d = fingerprint_element(field, p, n)
                rec = characteristic_fingerprint(x, context)
            except (MsgLabError, ValueError) as exc:
                rows.append((fi, n, q, 0, "%s_error" % tag, str(exc)))
                continue
            if d is not None:
                rows.append((fi, n, q, 0, "%s_ext_degree" % tag, d))
            rows.append((fi, n, q, 0, "%s_large_core" % tag,
                         rec.has_large_p_core))
            rows.append((fi, n, q, 0, "%s_core_order" % tag,
                         rec.p_core_order))
            rows.append((fi, n, q, 0, "%s_reductive_order" % tag,
                         rec.reductive_part.total_order))
            rows.append((fi, n, q, 0, "%s_reductive_factors" % tag,
                         len(rec.reductive_part.factors)))
            if d is None:
                rows.append((fi, n, q, 0, "%s_ell_pr" % tag,
                             length(x, PRANK).value))
    return ExperimentReport("fingerprint", family, seed, 1, tuple(rows),
                            extra_metadata=(
                                ("primes", ",".join(str(p) for p in primes)),))
