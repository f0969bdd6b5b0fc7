"""Batch command-line front end.

One subcommand per invocation; line-oriented text by default, JSON with
``--json``.  Rationals print as ``p/q`` in lowest terms, never as floats.
Exit status: 0 success, 1 domain error, 2 budget exceeded (or out of
memory), 64 usage error.

``--json`` and ``--budget`` go before the subcommand.  A subcommand is one
row of ``COMMANDS`` plus a handler returning its JSON data and text lines,
which ``main`` prints.  Handlers look library functions up at call time,
so wrappers installed on the module attributes see every call.
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


def _stake(text):
    if text.startswith("--"):  # no rational does: an option after the book
        raise argparse.ArgumentTypeError(f"not a stake: {text!r} (options go before the subcommand)")
    return text


def _fmt_point(point):
    return ",".join(str(c) for c in point)


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()  # the reader it is passed to decodes it, once


def cmd_eval(args):
    value = str(evaluate(parse(args.formula), _point(args.at)))
    return {"value": value}, [value]


def cmd_components(args):
    phi = parse(args.formula)
    n = args.arity if args.arity is not None else max(1, arity(phi))
    pieces = [[str(c) for c in a.coeffs] for a in components(term_pwl(phi, n))]
    return {"n": n, "components": pieces}, [" ".join(piece) for piece in pieces]


def cmd_synth(args):
    text = format_formula(synthesis.synth_pwl(maxmin_from_json(_load_json(args.pwl)), args.budget))
    return {"formula": text}, [text]


def _extremum(args, optimize):
    value, witness = optimize(parse(args.formula), args.budget)
    return {"value": str(value), "witness": [str(c) for c in witness]}, [str(value), _fmt_point(witness)]


def cmd_valid(args):
    verdict = geometry.is_valid(parse(args.formula), args.budget)
    return {"valid": verdict}, ["true" if verdict else "false"]


def cmd_invalid(args):
    verdict, witness = geometry.is_invalid(parse(args.formula), args.budget)
    if not verdict:
        return {"invalid": False}, ["false"]
    return {"invalid": True, "witness": [str(c) for c in witness]}, ["true", _fmt_point(witness)]


def cmd_norm(args):
    value = str(geometry.unit_norm(parse(args.formula), args.budget))
    return {"norm": value}, [value]


def cmd_equiv(args):
    verdict = geometry.semantic_equiv(parse(args.left), parse(args.right), args.budget)
    return {"equivalent": verdict}, ["true" if verdict else "false"]


def cmd_coherent(args):
    book = coherence.book_from_json(_load_json(args.book))
    if args.verify is not None:
        cert = coherence.certificate_from_json(_load_json(args.verify))
        ok = coherence.verify_certificate(book, cert, args.budget)
        return {"verified": ok}, ["verified" if ok else "NOT verified"]
    data = coherence.certificate_to_json(coherence.check_coherent(book, args.budget))
    return data, [json.dumps(data, indent=2)]


def cmd_span(args):
    book = coherence.book_from_json(_load_json(args.book))
    combo = coherence.span_combination(book, [parse_rational(s) for s in args.stakes])
    phi = synthesis.synth_pwl(combo, args.budget)
    # the synthesized formula agrees with the combination pointwise, so both
    # have the same minimum, at the same least point
    lo, lo_at = geometry._box_min(combo, args.budget)
    text = format_formula(phi)
    if lo != 0:
        return {"formula": text, "invalid": False}, [text, "not invalid"]
    witness = lo_at()
    data = {"formula": text, "invalid": True, "witness": [str(c) for c in witness]}
    return data, [text, "invalid", _fmt_point(witness)]


# name, help, handler, arguments: a name, or a name and its add_argument options
COMMANDS = (
    ("eval", "evaluate a formula at a point", cmd_eval,
     ("formula", ("--at", {"default": "", "help": "comma-separated rational coordinates"}))),
    ("components", "affine pieces of the term function", cmd_components,
     ("formula", ("--arity", {"type": int, "help": "embed in this dimension"}))),
    ("synth", "formula for a piecewise-linear JSON file", cmd_synth,
     (("pwl", {"help": "path to {'n': ..., 'groups': ...} JSON"}),)),
    ("min", "exact minimum with witness", lambda args: _extremum(args, geometry.minimum), ("formula",)),
    ("max", "exact maximum with witness", lambda args: _extremum(args, geometry.maximum), ("formula",)),
    ("valid", "is the formula identically 1?", cmd_valid, ("formula",)),
    ("invalid", "does some evaluation give 0?", cmd_invalid, ("formula",)),
    ("norm", "unit seminorm (sup of the term function)", cmd_norm, ("formula",)),
    ("equiv", "do two formulas share a term function?", cmd_equiv, ("left", "right")),
    ("coherent", "decide coherence of a book JSON file", cmd_coherent,
     ("book", ("--verify", {"help": "re-check this certificate instead of solving"}))),
    # REMAINDER, so that negative stakes such as -1/2 are not read as options
    ("span", "synthesize a quasi-linear span member", cmd_span,
     ("book", ("stakes", {"nargs": argparse.REMAINDER, "type": _stake, "help": "one rational stake per event"}))),
)


@functools.cache
def build_parser():
    # the docstring's last paragraph is for readers of the code, not of --help
    parser = _Parser(prog="rieszmv", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    parser.add_argument("--json", action="store_true", help="emit JSON instead of plain lines")
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the simplex pivots of one extremum (min, max, valid, invalid, norm, equiv, "
        "synth, span; pivots of the dual form of each LP) or on vertex-enumeration subsets (coherent, and a synth or span minimum "
        f"whose reflection outgrows the piece cap); without it RIESZ_BUDGET, else {geometry.DEFAULT_BUDGET}. "
        "A bad RIESZ_BUDGET is a domain error, checked before any subcommand runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            dest, options = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(dest, **options)
        p.set_defaults(run=handler)
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
        data, lines = args.run(args)
        for line in [json.dumps(data, indent=2)] if args.json else lines:
            print(line)
        return EXIT_DOMAIN if data.get("verified") is False else EXIT_OK  # a certificate that fails
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
