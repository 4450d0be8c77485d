"""Benchmark censym through its CLI, end to end and, traced, per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracle_tables, closed_forms, bijection_long, verify_all (see
workloads.py and README.md).  A pass runs every operation of the workload
once in a fresh interpreter (worker.py) with PYTHONHASHSEED=0 and no
CENSYM_* or other PYTHON* variables, because every ``censym`` command a
user runs starts a new process.  Passes repeat for about S seconds: a new
pass starts only if half of it still fits.  Each pass's outputs are
checked.  Before each pass, SETUP_PROBES_PER_PASS processes only import
censym and build the parser, so set-up time is a median of many samples
spread over the run even when a pass is long.

Shared hosts drift in speed by a third or more over minutes, so each pass
process gauges the host's speed while it runs (gauge.py).  Every time in
the end-to-end metrics is scaled by gauge.NOMINAL_S over the pass's
median tick time: the seconds it would have taken on the host where the
benchmark was defined.  Set-up probes take the scale of the pass after
them.  The record line keeps the raw times and the tick times.

With --trace 0 the result carries the end-to-end metrics; with --trace 1
untraced and traced passes alternate, and it carries the per-layer
metrics of the traced passes and the tracing overhead.  The last line of
stdout is the result; the line before it records the environment and the
samples behind each median.  Traced runs also write every span to
bench/out/spans-<workload>.csv.gz.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
from workloads import WORKLOADS, load_digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES_PER_PASS = 3
RUN_BUDGET_S = 160  # a run must end within 180 s, set-up probes included


def metric_units(section: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class PassFailed(Exception):
    """A pass process crashed, timed out or sent no reply."""


def pass_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "CENSYM_"))
    }
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(ops, trace=False, pass_id=0, spans_path=None, timeout=150.0) -> dict:
    request = {"ops": ops, "trace": trace, "pass_id": pass_id, "spans_path": spans_path}
    # Linux starts a child's ru_maxrss at its parent's peak RSS, across exec.
    # A small shell forks the pass, so the pass's peak is its own and not
    # this runner's.  The shell and the pass share a new process group,
    # which is killed if the pass does not end in time.
    proc = subprocess.Popen(
        ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, str(BENCH / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=pass_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {timeout:.0f} s") from exc
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: {stderr.strip()[-500:]}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise PassFailed(f"pass sent no reply: {stderr.strip()[-500:]}") from exc


def judge(workload, ops, reply, digests, seed):
    """Messages for the pass's failed operations, and the items it did."""
    results = reply["results"]
    outputs = [r["stdout"] for r in results]
    reasons = []
    items = 0
    for index, (argv, result) in enumerate(zip(ops, results)):
        if result["error"] is not None:
            reason = f"raised {result['error']}"
        elif result["code"] != 0:
            reason = f"exit code {result['code']}: {result['stderr'].strip()}"
        else:
            reason = workload.check(index, argv, result["stdout"], digests, seed)
        if reason is None:
            items += workload.items(argv, result["stdout"])
        reasons.append(reason)
    for index, reason in enumerate(workload.check_pass(ops, outputs, digests, seed)):
        reasons[index] = reasons[index] or reason
    failures = [f"{' '.join(ops[i])[:80]}: {r}" for i, r in enumerate(reasons) if r]
    return failures, items


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": head.stdout.strip() if head.returncode == 0 else None,
        "git_dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
    }


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def scaled_wall(p) -> float:
    """A pass's wall time at the host speed that gauge.NOMINAL_S stands for."""
    return p["wall_s"] * p["scale"]


def end_to_end_metrics(plain, setups) -> dict:
    """Medians over the untraced passes; setups are already scaled."""
    return {
        "wall_s": statistics.median(scaled_wall(p) for p in plain),
        "items_per_s": statistics.median(p["items"] / scaled_wall(p) for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer_metrics(plain, traced) -> dict:
    """Medians over the traced passes; overhead is against the plain ones.

    Layer times are raw; trace.wall_s and trace.overhead_s are scaled like
    the end-to-end wall_s they are compared with.
    """
    values = {
        key: statistics.median(p["trace"][key] for p in traced) for key in traced[0]["trace"]
    }
    traced_wall = statistics.median(scaled_wall(p) for p in traced)
    values["cli.stdout_bytes"] = statistics.median(p["stdout_bytes"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(scaled_wall(p) for p in plain)
    values["trace.unattributed_s"] = statistics.median(
        p["wall_s"]
        - p["setup_s"]
        - sum(v for k, v in p["trace"].items() if k.endswith(".self_s"))
        for p in traced
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "censym" / "__init__.py").is_file():
        print(f"error: no censym package under {SRC}", file=sys.stderr)
        return 2

    run_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    digests = load_digests()
    ops = workload.ops(args.seed)
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}.csv.gz"
        spans_path.unlink(missing_ok=True)

    setups, plain, traced, failures = [], [], [], []
    attempted = failed = crashed = 0
    start = time.perf_counter()
    pass_id = 0
    while True:
        try:
            probes = [run_pass([])["setup_s"] for _ in range(SETUP_PROBES_PER_PASS)]
        except PassFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        trace_this = bool(args.trace) and pass_id % 2 == 1
        remaining = RUN_BUDGET_S - (time.perf_counter() - run_start)
        attempted += len(ops)
        try:
            reply = run_pass(
                ops,
                trace=trace_this,
                pass_id=pass_id,
                spans_path=str(spans_path) if trace_this else None,
                timeout=max(remaining, 10.0),
            )
        except PassFailed as exc:
            failed += len(ops)
            crashed += 1
            failures.append(str(exc))
        else:
            scale = gauge.NOMINAL_S / reply["gauge_s"]
            setups += [s * scale for s in probes]
            reasons, items = judge(workload, ops, reply, digests, args.seed)
            failed += len(reasons)
            failures.extend(reasons)
            reply["items"] = items
            reply["scale"] = scale
            reply["stdout_bytes"] = sum(
                len(r["stdout"].encode("utf-8")) for r in reply.pop("results")
            )
            (traced if trace_this else plain).append(reply)
            setups.append(reply["setup_s"] * scale)
        pass_id += 1
        elapsed = time.perf_counter() - start
        per_pass = elapsed / pass_id
        # start another pass only if at least half of it fits in --seconds
        done = elapsed + per_pass / 2 >= args.seconds and plain and (traced or not args.trace)
        out_of_time = time.perf_counter() - run_start + per_pass > RUN_BUDGET_S
        if done or out_of_time or crashed > 2:
            break

    if not plain or (args.trace and not traced):
        print("error: no pass completed; " + "; ".join(failures[:3]), file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in plain]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(args.seed),
        "operations_per_pass": len(ops),
        **git_state(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "recursion_limit": plain[0]["recursion_limit"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "raw_wall_s_samples": walls,
        "raw_wall_s_quartiles": quartiles(walls),
        "gauge_tick_s_samples": [p["gauge_s"] for p in plain],
        "gauge_nominal_s": gauge.NOMINAL_S,
        "setup_s_samples": len(setups),
        "error_rate": failed / attempted,
        "failures": failures[:10],
    }

    if args.trace:
        record["spans_per_pass"] = [p["spans"] for p in traced]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        values, units = per_layer_metrics(plain, traced), metric_units("per_layer")
    else:
        values, units = end_to_end_metrics(plain, setups), metric_units("end_to_end")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}

    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
