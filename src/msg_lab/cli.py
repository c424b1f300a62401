"""Command line front end: msg-lab <subcommand> [flags].

Element arguments use the one-line text formats from textio: permutations
as comma-separated images ("1,2,0"), matrices as ';'-separated rows with
','-separated entries ("1,0;0,1", extension coefficients joined by '.'),
tagged classical elements ("SL:1,0;0,1"), fields as "p", "p^e" or
"p^e:c0,c1,...", group descriptors as "A:n" or "PSL:n:field".
"""

import argparse
import sys

from .centralizers import (centralizer_factorization,
                           characteristic_fingerprint,
                           perm_centralizer_structure)
from .constructions import (approx_centralize, build_niceblock,
                            check_commutator_budget, commutator_witness,
                            prepare_near_root, project_to_sl)
from .errors import MsgLabError
from .experiments import (equivalence_experiment, fingerprint_experiment,
                          parse_family)
from .geodesics import hamming_chain, rank_metric_chain
from .groups import (PSL_REP, SL, SP, AlternatingDescriptor,
                     ClassicalElement, enumerate_alternating, enumerate_psl2,
                     psl_canonical)
from .linalg import Matrix
from .metrics import (CONJ, HAMMING, PRANK, conjugacy_distance,
                      hamming_distance, length, projective_rank_distance)
from .suites import DEFAULT_SEED, run_suite
from .textio import (format_classical, format_matrix, format_permutation,
                     format_value, parse_element, parse_field,
                     parse_fraction, parse_group_descriptor, parse_matrix,
                     parse_permutation)


def _field_from_args(args):
    if getattr(args, "field", None):
        return parse_field(args.field)
    raise ValueError("this input needs --field")


def _cmd_metric(args):
    if args.kind == "hamming":
        a = parse_permutation(args.elem1)
        if args.elem2 is None:
            value = length(a, HAMMING)
        else:
            value = hamming_distance(a, parse_permutation(args.elem2, n=a.n))
    elif args.kind == "prank":
        field = _field_from_args(args)
        a = parse_element(field, args.elem1)
        if args.elem2 is None:
            value = length(a, PRANK)
        else:
            value = projective_rank_distance(
                a, parse_element(field, args.elem2))
    else:
        if args.group is None:
            raise ValueError("conjugacy metric needs --group")
        group = parse_group_descriptor(args.group)
        if isinstance(group, AlternatingDescriptor):
            parse = lambda text: parse_permutation(text, n=group.n)
        else:
            field = group.field
            parse = lambda text: parse_element(field, text)
        a = parse(args.elem1)
        if args.elem2 is None:
            value = length(a, CONJ, group=group)
        else:
            value = conjugacy_distance(a, parse(args.elem2), group)
    print(format_value(value))
    return 0


def _print_kv(key, value):
    print("%s=%s" % (key, value))


def _cmd_prepare(args):
    field = _field_from_args(args)
    y = parse_matrix(field, args.y)
    x, dec = prepare_near_root(y, args.k, args.alpha)
    shift = y.matpow(args.k) - Matrix.scalar(field, y.nrows, args.alpha)
    _print_kv("x", format_matrix(x))
    _print_kv("k", dec.k)
    _print_kv("alpha", dec.alpha)
    _print_kv("dim_L", dec.dim_L)
    _print_kv("dim_S", dec.dim_S)
    _print_kv("rank_x_minus_y", (x - y).rank())
    _print_kv("rank_shift", shift.rank())
    return 0


def _cmd_centralize(args):
    field = _field_from_args(args)
    y = parse_matrix(field, args.y)
    phi = parse_matrix(field, args.phi)
    x, dec = prepare_near_root(y, args.k, args.alpha)
    psi = approx_centralize(x, dec, phi)
    commutator_rank = (x @ phi - phi @ x).rank()
    achieved = (phi - psi).rank()
    bound = 2 * args.k * args.k * commutator_rank + 3 * dec.dim_S
    _print_kv("x", format_matrix(x))
    _print_kv("psi", format_matrix(psi))
    _print_kv("commutator_rank", commutator_rank)
    _print_kv("rank_phi_minus_psi", achieved)
    _print_kv("bound", bound)
    return 0


def _cmd_niceblock(args):
    field = _field_from_args(args)
    group = SP if args.group == "SP" else SL
    cert = build_niceblock(args.half_size, field, group)
    _print_kv("x", format_classical(cert.x))
    _print_kv("half_size", cert.half_size)
    _print_kv("ell_pr", format_value(length(cert.x, PRANK)))
    for g in cert.A_generators:
        _print_kv("A_gen", format_classical(g))
    for g in cert.H_generators:
        _print_kv("H_gen", format_classical(g))
    _print_kv("witness_u", format_classical(cert.witness_u))
    _print_kv("witness_h", format_classical(cert.witness_h))
    _print_kv("commutator_u", format_classical(cert.commutator_u))
    _print_kv("commutator_h", format_classical(cert.commutator_h))
    _print_kv("commutator_length", format_value(cert.commutator_length))
    return 0


def _cmd_sl_project(args):
    field = _field_from_args(args)
    g = parse_matrix(field, args.matrix)
    h = project_to_sl(g)
    _print_kv("result", format_classical(h))
    _print_kv("rank_moved", (g - h.matrix).rank())
    return 0


def _cmd_commutator(args):
    group = parse_group_descriptor(args.group)
    if not isinstance(group, AlternatingDescriptor) and group.n != 2:
        raise ValueError("commutator search enumerates PSL_2 only")
    # refuse from the descriptor before enumerating anything
    check_commutator_budget(group.order())
    # refuse a non-member as metric --kind conj does; every member is a
    # commutator (Liebeck, O'Brien, Shalev and Tiep, "The Ore conjecture")
    if isinstance(group, AlternatingDescriptor):
        g = parse_permutation(args.element, n=group.n)
        if not g.is_even():
            raise ValueError("elements must lie in A_n")
        elements = enumerate_alternating(group.n)
        key_fn = None
        fmt = format_permutation
    else:
        field = group.field
        g = parse_element(field, args.element)
        if not isinstance(g, Matrix):
            g = g.matrix
        if g.nrows != group.n:
            raise ValueError("element does not match the group descriptor")
        ClassicalElement(g, PSL_REP)  # ValueError unless det g = 1
        elements = enumerate_psl2(field)
        key_fn = lambda m: psl_canonical(m).key()
        fmt = format_matrix
    a, b = commutator_witness(g, elements, key_fn=key_fn)
    _print_kv("a", fmt(a))
    _print_kv("b", fmt(b))
    return 0


def _print_descriptor(desc):
    for line in desc.format_lines():
        print(line)
    _print_kv("total_order", desc.total_order)


def _cmd_factorize_centralizer(args):
    field = _field_from_args(args)
    y = parse_matrix(field, args.y)
    x, dec = prepare_near_root(y, args.k, args.alpha)
    _print_kv("x", format_matrix(x))
    _print_descriptor(centralizer_factorization(x, dec))
    return 0


def _cmd_perm_centralizer(args):
    sigma = parse_permutation(args.permutation)
    _print_descriptor(perm_centralizer_structure(sigma))
    return 0


def _cmd_fingerprint(args):
    if args.kind == "perm":
        if args.element is None:
            raise ValueError("fingerprint --kind perm needs an element")
        rec = characteristic_fingerprint(parse_permutation(args.element))
    elif args.kind == "semisimple":
        if args.element is None:
            raise ValueError("fingerprint --kind semisimple needs a matrix")
        field = _field_from_args(args)
        y = parse_matrix(field, args.element)
        x, dec = prepare_near_root(y, args.k, args.alpha)
        rec = characteristic_fingerprint(x, dec)
    else:
        field = _field_from_args(args)
        group = SP if args.group == "SP" else SL
        cert = build_niceblock(args.half_size, field, group)
        rec = characteristic_fingerprint(cert.x, cert)
    _print_kv("p", rec.p)
    _print_kv("has_large_p_core", format_value(rec.has_large_p_core))
    _print_kv("p_core_order", rec.p_core_order)
    for line in rec.reductive_part.format_lines():
        print(line)
    _print_kv("reductive_order", rec.reductive_part.total_order)
    return 0


def _cmd_chain(args):
    max_step = parse_fraction(args.max_step)
    if args.metric == "hamming":
        sigma = parse_permutation(args.element)
        chain = hamming_chain(sigma, max_step)
        fmt = format_permutation
    else:
        field = _field_from_args(args)
        g = parse_element(field, args.element)
        chain = rank_metric_chain(g, max_step)
        fmt = format_matrix
    print("step 0: %s" % fmt(chain.elements[0]))
    for i, step in enumerate(chain.step_lengths, start=1):
        print("step %d: length=%s %s"
              % (i, format_value(step), fmt(chain.elements[i])))
    _print_kv("target_length", format_value(chain.target_length))
    _print_kv("total", format_value(chain.total))
    _print_kv("overshoot", format_value(chain.overshoot))
    if chain.kind == HAMMING:
        _print_kv("splits", chain.splits)
        _print_kv("parity_repairs", chain.parity_repairs)
    return 0


def _cmd_experiment(args):
    family = parse_family(args.family)
    if args.name == "equivalence":
        report = equivalence_experiment(family, args.trials, args.seed)
    else:
        primes = tuple(int(tok) for tok in args.primes.split(","))
        report = fingerprint_experiment(family, primes, args.seed)
    if args.out:
        report.write(args.out)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(report.to_csv())
    return 0


def _cmd_suite(args):
    code, _, _ = run_suite(args.config, log=print)
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="msg-lab",
        description="finite-scale metric and centralizer computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="distance between two elements, or "
                                      "length when the second is omitted")
    p.add_argument("--kind", required=True,
                   choices=["hamming", "prank", "conj"])
    p.add_argument("--group", help="group descriptor, e.g. A:9 or PSL:2:7")
    p.add_argument("--field", help="field for matrix elements")
    p.add_argument("elem1")
    p.add_argument("elem2", nargs="?")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("prepare", help="near k-th root x of y with split "
                                       "decomposition")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True,
                   help="packed scalar, nonzero")
    p.add_argument("y")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("centralize", help="approximate centralizing element "
                                          "psi for phi")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("y")
    p.add_argument("phi")
    p.set_defaults(func=_cmd_centralize)

    p = sub.add_parser("niceblock", help="block element certificate in "
                                         "SL_2n or Sp_2n")
    p.add_argument("--field", required=True)
    p.add_argument("--half-size", type=int, required=True)
    p.add_argument("--group", default="SL", choices=["SL", "SP"])
    p.set_defaults(func=_cmd_niceblock)

    p = sub.add_parser("sl-project", help="nearest determinant-one element "
                                          "within rank one")
    p.add_argument("--field", required=True)
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_sl_project)

    p = sub.add_parser("commutator", help="exact commutator witness by "
                                          "enumeration")
    p.add_argument("--group", required=True,
                   help="A:n (n <= 7) or PSL:2:field")
    p.add_argument("element")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("factorize-centralizer",
                       help="centralizer factors of a prepared element")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("y")
    p.set_defaults(func=_cmd_factorize_centralizer)

    p = sub.add_parser("perm-centralizer",
                       help="centralizer structure of a permutation")
    p.add_argument("permutation")
    p.set_defaults(func=_cmd_perm_centralizer)

    p = sub.add_parser("fingerprint", help="characteristic fingerprint of "
                                           "an element")
    p.add_argument("--kind", required=True,
                   choices=["perm", "semisimple", "niceblock"])
    p.add_argument("--field")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--half-size", type=int, default=2)
    p.add_argument("--group", default="SL", choices=["SL", "SP"])
    p.add_argument("element", nargs="?")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("chain", help="stepwise chain from the identity to "
                                     "a target element")
    p.add_argument("--metric", required=True, choices=["hamming", "prank"])
    p.add_argument("--max-step", required=True,
                   help="rational step bound, e.g. 2/10")
    p.add_argument("--field")
    p.add_argument("element")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("experiment", help="run a family experiment and "
                                          "emit its CSV")
    p.add_argument("--name", required=True,
                   choices=["equivalence", "fingerprint"])
    p.add_argument("--family", required=True,
                   help="e.g. ALT:50,100 or PSL:2,3:7,7")
    p.add_argument("--trials", type=int, default=100, help="equivalence only")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="equivalence: seeds the random elements; fingerprint: "
                        "only recorded in the CSV header")
    p.add_argument("--primes", default="2,3,5", help="fingerprint only")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("suite", help="run configured verification suites")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MsgLabError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
