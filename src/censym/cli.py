"""Command line front end.

Exit status: 0 success, 1 verification failure, 2 usage error,
3 invalid input data, 4 internal error (an unexpected exception, such as
a failed consistency check inside the library; its traceback goes to
stderr).  A reader that closes stdout early, as ``| head`` does, is not an
error: the command stops writing and exits 0 without a word on stderr,
except that ``verify`` still exits 1 when a check failed.
"""

import argparse
import os
import sys

from . import bijection, oracle, tables, verify
from .paths import LatticePath
from .perms import InvalidPermutation, Permutation, parse_permutation, stats
from .series import NAMED_SERIES, NamedSeries


def _parse_pattern(text: str):
    """A pattern such as 132 as its tuple of values.  Permutation, the rule
    that ClassSpec applies to avoid, decides which digits form one."""
    try:
        if text.isascii() and text.isdigit():
            return Permutation(map(int, text)).values
    except InvalidPermutation:
        pass
    raise ValueError(f"not a pattern: {text!r}")


def _print_json(payload) -> None:
    import json  # only here: a command that prints no JSON need not load it

    print(json.dumps(payload))


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
    _print_json(record)
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
        avoid=None if args.avoid is None else _parse_pattern(args.avoid),
        subclass=args.subclass,
    )
    members = oracle.enumerate_class(spec)  # lines and csv print as it goes
    if args.format == "lines":
        for p in members:
            print(p)
    elif args.format == "csv":
        for p in members:
            print(",".join(str(v) for v in p.values))
    else:
        members = list(members)  # json prints the count first
        payload = {
            "length": args.len,
            "count": len(members),
            "members": [str(p) for p in members],
        }
        _print_json(payload)
    return 0


def _cmd_table(args) -> int:
    table = tables.descent_tables(args.source, (args.family,), args.max_n)[args.family]
    if args.format == "csv":
        sys.stdout.write(tables.table_to_csv(table))
    else:
        payload = {
            "family": table.family,
            "max_n": len(table.rows) - 1,
            "source": args.source,
            "rows": [[str(c) for c in row] for row in table.padded_rows()],
        }
        _print_json(payload)
    return 0


def _cmd_series(args) -> int:
    series = NamedSeries(args.order)[args.name]
    payload = {
        "name": args.name,
        "order": args.order,
        "coeffs": [[str(c) for c in row] for row in series.coeffs],
    }
    _print_json(payload)
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


def _perm_stats_args(p) -> None:
    p.add_argument("perm", help="space/comma-separated 1-based values, or - for stdin")


def _phi_args(p) -> None:
    p.add_argument("perm", help="the member as for perm-stats, or - for stdin")


def _phi_inv_args(p) -> None:
    p.add_argument("path", help="U/D string, or - for stdin")


def _enumerate_args(p) -> None:
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--centro", action="store_true")
    p.add_argument("--avoid", help="pattern such as 123 or 132")
    p.add_argument("--subclass", choices=oracle.SUBCLASSES)
    p.add_argument("--format", choices=("lines", "json", "csv"), default="lines")


def _table_args(p) -> None:
    p.add_argument("--family", choices=tables.FAMILIES, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--source",
        choices=("recurrence", "series", "oracle"),
        default="recurrence",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _series_args(p) -> None:
    p.add_argument("--name", choices=NAMED_SERIES, required=True)
    p.add_argument("--order", type=int, required=True)


def _verify_args(p) -> None:
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)


# (name, help, the command, a function adding its arguments to its parser)
_COMMANDS = (
    ("perm-stats", "statistics of one permutation", _cmd_perm_stats, _perm_stats_args),
    ("phi", "map a member to its Dyck prefix", _cmd_phi, _phi_args),
    ("phi-inv", "map a Dyck prefix back to the member", _cmd_phi_inv, _phi_inv_args),
    ("enumerate", "list a permutation class", _cmd_enumerate, _enumerate_args),
    ("table", "descent table of a family", _cmd_table, _table_args),
    ("series", "coefficients of a named series", _cmd_series, _series_args),
    ("verify", "run a verification suite", _cmd_verify, _verify_args),
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of only the named command when it
    is one.  Both print the same help, usage and error text for an argv
    that starts with that command."""
    parser = argparse.ArgumentParser(
        prog="censym",
        description=(
            "Pattern-avoiding centrosymmetric permutations: statistics, the "
            "path bijection, enumeration, descent tables, and series."
        ),
    )
    chosen = [entry for entry in _COMMANDS if entry[0] == command]
    # one command's parser still lists all of them in its usage line, by
    # the metavar; the full parser sets none, because argparse would name
    # the action by it, not by "command", in its "invalid choice" and
    # "arguments are required" errors
    metavar = "{" + ",".join(entry[0] for entry in _COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, func, add_arguments in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
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
    except ValueError as exc:  # InvalidPermutation, InvalidPath and CapExceeded too
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only here: importing it slows every start-up

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
