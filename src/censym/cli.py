"""Command line front end.

Exit status: 0 success, 1 verification failure, 2 usage error,
3 invalid input data, 4 internal error (an unexpected exception, such as
a failed consistency check inside the library; its traceback goes to
stderr).  A reader that closes stdout early, as ``| head`` does, is not an
error: the command stops writing and exits 0 without a word on stderr,
except that ``verify`` still exits 1 when a check failed.
"""

import argparse
import json
import os
import sys

from . import bijection, oracle, tables, verify
from .oracle import CapExceeded
from .paths import InvalidPath, LatticePath
from .perms import InvalidPermutation, parse_permutation, stats
from .series import NAMED_SERIES, NamedSeries


def _parse_pattern(text: str):
    values = tuple(int(c) for c in text) if text.isdigit() else ()
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"not a pattern: {text!r}")
    return values


def _stdout_closed() -> None:
    """Send the rest of stdout to os.devnull once its reader has gone, so
    that no later write or the final flush at exit fails again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _input_text(text: str) -> str:
    """A positional input as given, or all of stdin (stripped) for '-'.

    One command-line argument is capped by the OS (128 KiB on Linux), so
    long members and paths are piped in instead.
    """
    return sys.stdin.read().strip() if text == "-" else text


def _cmd_perm_stats(args) -> int:
    record = stats(parse_permutation(_input_text(args.perm)))
    print(json.dumps(record))
    return 0


def _cmd_phi(args) -> int:
    print(bijection.phi(parse_permutation(_input_text(args.perm))))
    return 0


def _cmd_phi_inv(args) -> int:
    print(bijection.phi_inverse(LatticePath(_input_text(args.path))))
    return 0


def _cmd_enumerate(args) -> int:
    spec = oracle.ClassSpec(
        args.len,
        centrosymmetric=args.centro,
        avoid=_parse_pattern(args.avoid) if args.avoid else None,
        subclass=args.subclass,
    )
    members = list(oracle.enumerate_class(spec))
    if args.format == "lines":
        for p in members:
            print(p)
    elif args.format == "csv":
        for p in members:
            print(",".join(str(v) for v in p.values))
    else:
        payload = {
            "length": args.len,
            "count": len(members),
            "members": [str(p) for p in members],
        }
        print(json.dumps(payload))
    return 0


def _cmd_table(args) -> int:
    table = tables.descent_tables(args.source, (args.family,), args.max_n)[args.family]
    if args.format == "csv":
        sys.stdout.write(tables.table_to_csv(table))
    else:
        width = table.width()
        payload = {
            "family": table.family,
            "max_n": table.max_n,
            "source": args.source,
            "rows": [
                [str(table.cell(n, d)) for d in range(width)]
                for n in range(table.max_n + 1)
            ],
        }
        print(json.dumps(payload))
    return 0


def _cmd_series(args) -> int:
    series = NamedSeries(args.order)[args.name]
    payload = {
        "name": args.name,
        "order": args.order,
        "coeffs": [[str(c) for c in row] for row in series.coeffs],
    }
    print(json.dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.max_n, seed=args.seed)
    ok = all(r.ok for r in reports)
    try:
        for report in reports:
            print(report.render())
        print("all suites passed" if ok else "verification FAILED")
        sys.stdout.flush()
    except BrokenPipeError:  # a failed check fails the run, read or not
        _stdout_closed()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censym",
        description=(
            "Pattern-avoiding centrosymmetric permutations: statistics, the "
            "path bijection, enumeration, descent tables, and series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perm-stats", help="statistics of one permutation")
    p.add_argument("perm", help="space/comma-separated 1-based values, or - for stdin")
    p.set_defaults(func=_cmd_perm_stats)

    p = sub.add_parser("phi", help="map a member to its Dyck prefix")
    p.add_argument("perm", help="the member as for perm-stats, or - for stdin")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("phi-inv", help="map a Dyck prefix back to the member")
    p.add_argument("path", help="U/D string, or - for stdin")
    p.set_defaults(func=_cmd_phi_inv)

    p = sub.add_parser("enumerate", help="list a permutation class")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--centro", action="store_true")
    p.add_argument("--avoid", help="pattern such as 123 or 132")
    p.add_argument("--subclass", choices=oracle.SUBCLASSES)
    p.add_argument("--format", choices=("lines", "json", "csv"), default="lines")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="descent table of a family")
    p.add_argument("--family", choices=tables.FAMILIES, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--source",
        choices=("recurrence", "series", "oracle"),
        default="recurrence",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("series", help="coefficients of a named series")
    p.add_argument("--name", choices=NAMED_SERIES, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here at the latest
        return code
    except BrokenPipeError:  # the reader stopped reading: not an error
        _stdout_closed()
        return 0
    except (InvalidPermutation, InvalidPath, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only here: importing it slows every start-up

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
