"""Write digests.json, the reference outputs the benchmark checks against.

Usage: python3 bench/freeze.py

Runs the digest-checked operations once through worker.py and stores the
sha256 of each stdout: every table of oracle_tables and closed_forms, and
for bijection_long the concatenated phi-inv outputs of each seed below
BIJECTION_DIGEST_SEEDS (its inputs depend on the seed).  The stored
digests were taken on the commit that added the benchmark; a later commit
must reproduce them, so rerun this only when a workload's operations
change.
"""

import json

from run import PassFailed, run_pass
from workloads import BIJECTION_DIGEST_SEEDS, DIGESTS_PATH, WORKLOADS, sha256


def stdout_of(ops) -> list:
    results = run_pass(ops)["results"]
    for argv, result in zip(ops, results):
        if result["error"] is not None or result["code"] != 0:
            raise PassFailed(f"{' '.join(argv)[:80]} failed: {result}")
    return [r["stdout"] for r in results]


def main() -> int:
    digests = {}
    for name in ("oracle_tables", "closed_forms"):
        ops = WORKLOADS[name].ops(0)
        digests[name] = {
            " ".join(argv): sha256(out) for argv, out in zip(ops, stdout_of(ops))
        }
    bijection = WORKLOADS["bijection_long"]
    digests[bijection.name] = {}
    for seed in range(BIJECTION_DIGEST_SEEDS):
        ops = [["phi-inv", path] for path in bijection.paths(seed)]
        digests[bijection.name][str(seed)] = sha256("".join(stdout_of(ops)))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
