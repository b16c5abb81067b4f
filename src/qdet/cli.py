"""Command line entry points.

    qdet verify --m 3 --n 3 --gamma "1,3|1,2" --max-degree 3 \
        --suites torus,ore-tower --report out.json
    qdet compute minor --m 3 --n 3 "1,3|1,2"
    qdet compute expr --m 2 --n 2 "x[1,1]*x[2,2] - q*x[1,2]*x[2,1]"
    qdet compute expr --m 2 --n 2 -- "-x[1,1]"

An expression that starts with '-' goes after '--', or argparse reads it
as an option.

verify exits 0 when every check passes, 1 when any check fails, and 2 on
configuration or syntax problems, an unusable --report path among them
(an empty path, a directory, or a path in a missing one, is refused
before any suite runs).  Every check is exact and the suites run one
after the other in this process.  --cache is the only source of a span
cache directory; one that cannot be written only makes the run uncached.
"""

import argparse
import os
import sys

from .errors import (ConfigError, DegreeTooLarge, ExprSyntaxError,
                     WorkbenchError)
from .algebra import MatrixShape, render_poly
from .minors import Minor, minor_value
from .parser import (check_entries, minor_terms, parse_expression,
                     parse_index_pair)
from .suites import SUITE_NAMES, WorkbenchConfig, emit_report, run_workbench

#: failing checks printed before the list is elided
FAIL_PRINT_CAP = 25


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdet",
        description="Exact checks for quantum matrix algebras and their "
                    "determinantal factor rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--m", type=int, required=True, help="number of rows")
    verify.add_argument("--n", type=int, required=True, help="number of columns")
    verify.add_argument("--gamma", default=None,
                        help="minor as 'rows|cols', e.g. '1,3|1,2'")
    verify.add_argument("--max-degree", type=int, default=3, dest="max_degree")
    verify.add_argument("--suites", default="all",
                        help="comma-separated subset of: %s, all"
                             % ", ".join(SUITE_NAMES))
    verify.add_argument("--report", default=None,
                        help="write a JSON report to this path")
    verify.add_argument("--cache", default=None,
                        help="directory for cached ideal spans")

    compute = sub.add_parser("compute", help="evaluate one expression")
    compute.add_argument("what", choices=("minor", "expr"))
    compute.add_argument("text", help="minor indices 'rows|cols' or an expression")
    compute.add_argument("--m", type=int, required=True)
    compute.add_argument("--n", type=int, required=True)
    return parser


def _cmd_verify(args):
    gamma = None
    if args.gamma is not None:
        gamma = parse_index_pair(args.gamma)
    config = WorkbenchConfig(
        m=args.m, n=args.n, gamma=gamma, max_degree=args.max_degree,
        suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
        cache=args.cache)
    if args.report is not None:
        folder = os.path.dirname(args.report) or "."
        if (not args.report or os.path.isdir(args.report)
                or not os.path.isdir(folder)):
            raise ConfigError("cannot write the report to %s: not a file in "
                              "an existing directory" % args.report)
    run = run_workbench(config)
    shown = 0
    for suite in run.suites:
        failed = suite.failed
        print("suite %-13s pass %d / fail %d"
              % (suite.name, len(suite.checks) - len(failed), len(failed)))
        for check in failed:
            if shown < FAIL_PRINT_CAP:
                detail = " (%s)" % check.witness if check.witness else ""
                print("  FAIL %s: %s%s" % (suite.name, check.name, detail))
            shown += 1
    if shown > FAIL_PRINT_CAP:
        print("  ... %d more failures" % (shown - FAIL_PRINT_CAP))
    print(run.summary_line())
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="ascii") as fh:
                emit_report(run, fh)
        except OSError as exc:
            raise ConfigError("cannot write the report to %s: %s"
                              % (args.report, exc.strerror)) from None
        print("report written to %s" % args.report)
    return 0 if run.ok else 1


def _cmd_compute(args):
    shape = MatrixShape(args.m, args.n)
    if args.what == "minor":
        rows, cols = parse_index_pair(args.text)
        minor = Minor(shape, rows, cols)
        check_entries(shape, minor_terms(minor))
        value, den = minor_value(minor), 1
    else:
        value, den = parse_expression(args.text, shape)
    try:
        text = render_poly(value, den)
    except ValueError as exc:   # an int past sys.get_int_max_str_digits()
        raise DegreeTooLarge("result too large to print: %s" % exc) from None
    print(text)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # a usage error (2) or --help (0)
        return exc.code
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_compute(args)
    except ExprSyntaxError as exc:
        print("syntax error at position %d: %s" % (exc.pos, exc),
              file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
