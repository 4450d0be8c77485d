"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: worker.py SRC_DIR < request.json

Imports censym from SRC_DIR and builds the CLI parser, the set-up a user
pays in every ``censym`` process, then calls ``censym.cli.main(argv)`` for
each operation of the request with stdout and stderr captured.  Writes one
JSON reply on stdout: set-up and pass times, the median tick time of
the host-speed gauge (gauge.py) that runs from set-up to the end of the
pass, peak RSS, and each operation's exit code, output and escaped
exception.  With ``trace`` set, the span tracer wraps the layers after
set-up and the reply carries its per-layer summary.

Only modules the interpreter loads at start-up, ``signal`` and the gauge
are imported before the set-up clock starts.  censym imports none of the
last two, so it pays for its own imports as it would in a user's process.
"""

import os
import sys
import time

from gauge import Gauge

# in an argv, stands for the stripped stdout of the previous operation
PREVIOUS = "@previous-stdout"


def run_ops(cli, ops):
    import contextlib
    import io

    results = []
    previous = ""
    for argv in ops:
        argv = [previous if arg == PREVIOUS else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"[:500]
        previous = out.getvalue().strip()
        results.append(
            {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[:500], "error": error}
        )
    return results


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    raw_request = sys.stdin.read()

    gauge = Gauge()
    gauge.start()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import censym.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    import resource

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"censym was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    request = json.loads(raw_request)

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer(pass_id=request["pass_id"])
        tracer.install()

    t1 = time.perf_counter()
    results = run_ops(cli, request["ops"])
    ops_s = time.perf_counter() - t1
    gauge.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reply = {
        "setup_s": setup_s,
        "wall_s": setup_s + ops_s,
        "gauge_s": gauge.median_s(),
        "peak_rss_mb": rss_mb,
        "recursion_limit": sys.getrecursionlimit(),
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        reply["trace"] = tracer.summary()
        reply["spans"] = len(tracer)
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
