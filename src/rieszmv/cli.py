"""Batch command-line front end.

One subcommand per invocation; line-oriented text by default, JSON with
``--json``.  Rationals print as ``p/q`` in lowest terms, never as floats.
Exit status: 0 success, 1 domain error, 2 budget exceeded (or out of
memory), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import coherence, geometry, synthesis
from .errors import BudgetExceededError, RangeViolationError
from .formula import ParseError, arity, evaluate, format_formula, parse
from .kernel import parse_rational
from .pwl import components, maxmin_from_json, term_pwl

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _point(text):
    if not text.strip():
        return ()
    return tuple(parse_rational(part) for part in text.split(","))


def _emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _fmt_point(point):
    return ",".join(str(c) for c in point)


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()  # the reader it is passed to decodes it, once


def cmd_eval(args):
    phi = parse(args.formula)
    value = evaluate(phi, _point(args.at))
    _emit(args, {"value": str(value)}, [str(value)])
    return EXIT_OK


def cmd_components(args):
    phi = parse(args.formula)
    n = args.arity if args.arity is not None else max(1, arity(phi))
    pieces = components(term_pwl(phi, n))
    data = {"n": n, "components": [[str(c) for c in a.coeffs] for a in pieces]}
    _emit(args, data, [" ".join(str(c) for c in a.coeffs) for a in pieces])
    return EXIT_OK


def cmd_synth(args):
    f = maxmin_from_json(_load_json(args.pwl))
    phi = synthesis.synth_pwl(f, args.budget)
    text = format_formula(phi)
    _emit(args, {"formula": text}, [text])
    return EXIT_OK


def _cmd_extremum(args, optimize):
    phi = parse(args.formula)
    value, witness = optimize(phi, args.budget)
    data = {"value": str(value), "witness": [str(c) for c in witness]}
    _emit(args, data, [str(value), _fmt_point(witness)])
    return EXIT_OK


def cmd_min(args):
    return _cmd_extremum(args, geometry.minimum)


def cmd_max(args):
    return _cmd_extremum(args, geometry.maximum)


def cmd_valid(args):
    phi = parse(args.formula)
    verdict = geometry.is_valid(phi, args.budget)
    _emit(args, {"valid": verdict}, ["true" if verdict else "false"])
    return EXIT_OK


def cmd_invalid(args):
    phi = parse(args.formula)
    verdict, witness = geometry.is_invalid(phi, args.budget)
    if verdict:
        data = {"invalid": True, "witness": [str(c) for c in witness]}
        _emit(args, data, ["true", _fmt_point(witness)])
    else:
        _emit(args, {"invalid": False}, ["false"])
    return EXIT_OK


def cmd_equiv(args):
    left = parse(args.left)
    right = parse(args.right)
    verdict = geometry.semantic_equiv(left, right, args.budget)
    _emit(args, {"equivalent": verdict}, ["true" if verdict else "false"])
    return EXIT_OK


def cmd_norm(args):
    phi = parse(args.formula)
    value = geometry.unit_norm(phi, args.budget)
    _emit(args, {"norm": str(value)}, [str(value)])
    return EXIT_OK


def cmd_coherent(args):
    book = coherence.book_from_json(_load_json(args.book))
    if args.verify is not None:
        cert = coherence.certificate_from_json(_load_json(args.verify))
        ok = coherence.verify_certificate(book, cert, args.budget)
        _emit(args, {"verified": ok}, ["verified" if ok else "NOT verified"])
        return EXIT_OK if ok else EXIT_DOMAIN
    result = coherence.check_coherent(book, args.budget)
    print(json.dumps(coherence.certificate_to_json(result), indent=2))
    return EXIT_OK


def cmd_span(args):
    book = coherence.book_from_json(_load_json(args.book))
    stakes = [parse_rational(s) for s in args.stakes]
    combo = coherence.span_combination(book, stakes)
    phi = synthesis.synth_pwl(combo, args.budget)
    # the synthesized formula agrees with the combination pointwise, so both
    # have the same minimum, at the same least point
    lo, lo_at = geometry._box_min(combo, args.budget)
    verdict = lo == 0
    text = format_formula(phi)
    data = {"formula": text, "invalid": verdict}
    lines = [text, "invalid" if verdict else "not invalid"]
    if verdict:
        witness = lo_at()
        data["witness"] = [str(c) for c in witness]
        lines.append(_fmt_point(witness))
    _emit(args, data, lines)
    return EXIT_OK


@functools.cache
def build_parser():
    parser = _Parser(prog="rieszmv", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of plain lines")
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the simplex pivots of one extremum (min, max, valid, invalid, norm, equiv, "
        "synth, span) or on vertex-enumeration subsets (coherent, and a synth or span minimum "
        f"whose reflection outgrows the piece cap); without it RIESZ_BUDGET, else {geometry.DEFAULT_BUDGET}. "
        "A bad RIESZ_BUDGET is a domain error, checked before any subcommand runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula at a point")
    p.add_argument("formula")
    p.add_argument("--at", default="", help="comma-separated rational coordinates")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("components", help="affine pieces of the term function")
    p.add_argument("formula")
    p.add_argument("--arity", type=int, default=None, help="embed in this dimension")
    p.set_defaults(run=cmd_components)

    p = sub.add_parser("synth", help="formula for a piecewise-linear JSON file")
    p.add_argument("pwl", help="path to {'n': ..., 'groups': ...} JSON")
    p.set_defaults(run=cmd_synth)

    for name, runner, help_text in (
        ("min", cmd_min, "exact minimum with witness"),
        ("max", cmd_max, "exact maximum with witness"),
        ("valid", cmd_valid, "is the formula identically 1?"),
        ("invalid", cmd_invalid, "does some evaluation give 0?"),
        ("norm", cmd_norm, "unit seminorm (sup of the term function)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("formula")
        p.set_defaults(run=runner)

    p = sub.add_parser("equiv", help="do two formulas share a term function?")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("coherent", help="decide coherence of a book JSON file")
    p.add_argument("book")
    p.add_argument("--verify", default=None, help="re-check this certificate instead of solving")
    p.set_defaults(run=cmd_coherent)

    p = sub.add_parser("span", help="synthesize a quasi-linear span member")
    p.add_argument("book")
    # REMAINDER, so that negative stakes such as -1/2 are not read as options
    p.add_argument("stakes", nargs=argparse.REMAINDER, help="one rational stake per event")
    p.set_defaults(run=cmd_span)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may need more than 4,300 digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "span" and not args.stakes:
            parser.error("the following arguments are required: stakes")
        for name in ("budget", "arity"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                parser.error(f"argument --{name}: must be a nonnegative integer, got {value}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    env = os.environ.get("RIESZ_BUDGET")
    try:
        if args.budget is None and env:  # else the library's DEFAULT_BUDGET
            try:
                args.budget = int(env)
            except ValueError:
                args.budget = -1
            if args.budget < 0:
                raise ValueError(f"RIESZ_BUDGET must be a nonnegative integer, got {env!r}")
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, RangeViolationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
