"""The benchmark's workloads: the CLI calls of one pass and their checks.

A workload turns a seed into a list of operations.  An operation is one
``censym.cli.main(argv)`` call.  ``PREVIOUS`` in an argv stands for the
stripped stdout of the operation before it, which is how ``phi`` gets the
permutation that ``phi-inv`` printed.

Every output is checked twice: against sha256 digests frozen from the
seed commit (``digests.json``), and by properties the benchmark computes
on its own (row sums, round trips, pattern avoidance, verify's verdict).
``check`` returns the reason an operation failed, or None.
"""

import hashlib
import json
from bisect import bisect_left
from math import comb
from pathlib import Path

from dyck import random_prefixes
from worker import PREVIOUS

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

ORACLE_TABLES = (("q", 6), ("r", 6), ("t", 7), ("v", 7), ("k", 6), ("ck", 6), ("g", 6))
FAMILIES = ("q", "r", "v", "k", "ck", "g", "t")
CLOSED_FORM_MAX_N = 30
BIJECTION_PATHS = 40
BIJECTION_LENGTH = 1600
BIJECTION_DIGEST_SEEDS = 100  # bijection_long seeds below this have frozen digests
VERIFY_MAX_N = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def row_sum(family: str, n: int) -> int:
    """Members of a family at size n, from counts the paper proves."""
    if family in ("q", "r"):
        return 2**n
    if family == "t":
        return comb(2 * n, n)
    if family in ("v", "k"):
        return _catalan(n)
    if family == "ck":
        return _catalan(n - 1) if n else 0
    if family == "g":
        return comb(2 * n - 1, n - 1) if n else 0
    raise ValueError(family)


def series_row_sum(family: str, n: int) -> int:
    """Row sums of the printed closed forms, which differ from the tables
    where censym reports a known discrepancy: Q lacks its constant term,
    R lacks a factor (1 + y^2), and CK and S count the empty path."""
    if family == "q" and n == 0:
        return 0
    if family == "r":
        return 2 ** (n - 1) if n else 0
    if family in ("ck", "g") and n == 0:
        return 1
    return row_sum(family, n)


def parse_csv_table(text: str) -> list:
    """Rows of a ``table --format csv`` output; raises ValueError if malformed."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n\\d,"):
        raise ValueError("missing header")
    width = len(lines[0].split(",")) - 1
    if lines[0] != "n\\d," + ",".join(str(d) for d in range(width)):
        raise ValueError("bad header")
    rows = []
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells[0] != str(n) or len(cells) != width + 1:
            raise ValueError(f"bad row {n}")
        rows.append([int(c) for c in cells[1:]])
    return rows


def _check_row_sums(text: str, max_n: int, expected) -> str | None:
    try:
        rows = parse_csv_table(text)
    except ValueError as exc:
        return f"malformed table: {exc}"
    if len(rows) != max_n + 1:
        return f"{len(rows)} rows, expected {max_n + 1}"
    for n, row in enumerate(rows):
        if sum(row) != expected(n):
            return f"row {n} sums to {sum(row)}, expected {expected(n)}"
    return None


def _check_digest(stdout: str, frozen: str) -> str | None:
    if sha256(stdout) != frozen:
        return "stdout digest differs from the frozen one"
    return None


def _lis_length(values) -> int:
    tails = []
    for v in values:
        i = bisect_left(tails, v)
        tails[i : i + 1] = [v]
    return len(tails)


def check_member(text: str, length: int) -> str | None:
    """Is text a centrosymmetric 123-avoiding permutation of 1..length?"""
    try:
        values = [int(v) for v in text.split()]
    except ValueError:
        return "permutation is not a list of integers"
    if sorted(values) != list(range(1, length + 1)):
        return f"not a permutation of 1..{length}"
    if any(a + b != length + 1 for a, b in zip(values, reversed(values))):
        return "permutation is not centrosymmetric"
    if _lis_length(values) >= 3:
        return "permutation contains 123"
    return None


class Workload:
    """The operations of one pass and their checks."""

    name = ""

    def ops(self, seed: int) -> list:
        raise NotImplementedError

    def sizes(self, seed: int) -> dict:
        raise NotImplementedError

    def check(self, index, argv, stdout, digests, seed) -> str | None:
        raise NotImplementedError

    def items(self, argv, stdout) -> int:
        raise NotImplementedError

    def check_pass(self, ops, outputs, digests, seed) -> list:
        """Failure reasons by operation index for checks spanning a pass."""
        return [None] * len(ops)


class OracleTables(Workload):
    """Brute-force descent tables of all 7 families, lengths up to 12-15.

    Isolates the oracle search and the pattern tests it makes; no series
    or recurrence code runs.  This is the route the oracle-pruning work
    targets.
    """

    name = "oracle_tables"

    def ops(self, seed):
        return [
            ["table", "--family", f, "--max-n", str(n), "--source", "oracle", "--format", "csv"]
            for f, n in ORACLE_TABLES
        ]

    def sizes(self, seed):
        return {"tables": [f"{f}:max_n={n}" for f, n in ORACLE_TABLES]}

    def check(self, index, argv, stdout, digests, seed):
        family, max_n = ORACLE_TABLES[index]
        reason = _check_row_sums(stdout, max_n, lambda n: row_sum(family, n))
        return reason or _check_digest(stdout, digests[self.name][" ".join(argv)])

    def items(self, argv, stdout):
        return sum(sum(row) for row in parse_csv_table(stdout))


class ClosedForms(Workload):
    """Recurrence and series tables of all 7 families at n = 30.

    Time goes to Fraction arithmetic in series and the O(n^4) recurrences
    in tables; the oracle never runs.  It is the control for
    oracle_tables and the target of an integer polynomial kernel.
    """

    name = "closed_forms"

    def ops(self, seed):
        return [
            ["table", "--family", f, "--max-n", str(CLOSED_FORM_MAX_N), "--source", s, "--format", "csv"]
            for f in FAMILIES
            for s in ("recurrence", "series")
        ]

    def sizes(self, seed):
        return {"families": list(FAMILIES), "max_n": CLOSED_FORM_MAX_N}

    def check(self, index, argv, stdout, digests, seed):
        family, source = argv[2], argv[6]
        expected = row_sum if source == "recurrence" else series_row_sum
        reason = _check_row_sums(stdout, CLOSED_FORM_MAX_N, lambda n: expected(family, n))
        return reason or _check_digest(stdout, digests[self.name][" ".join(argv)])

    def items(self, argv, stdout):
        return sum(len(row) for row in parse_csv_table(stdout))


class BijectionLong(Workload):
    """Round trips of 40 uniform random Dyck prefixes of 1600 steps.

    Each prefix goes through ``phi-inv`` and its output through ``phi``.
    On long inputs the per-block alphabet rebuilds in the bijection, which
    cost O(n^2), dominate.

    Paths of 2000 or more steps, such as "UD" * 1000, raise RecursionError
    in phi and phi_inverse as they are written now (a known defect listed
    in ROADMAP.md), so this workload stays at 1600 steps.  The change that
    removes the recursion brings its own longer workload.
    """

    name = "bijection_long"

    def paths(self, seed):
        return random_prefixes(seed, BIJECTION_PATHS, BIJECTION_LENGTH)

    def ops(self, seed):
        out = []
        for path in self.paths(seed):
            out.append(["phi-inv", path])
            out.append(["phi", PREVIOUS])
        return out

    def sizes(self, seed):
        return {"paths": BIJECTION_PATHS, "length": BIJECTION_LENGTH}

    def check(self, index, argv, stdout, digests, seed):
        if argv[0] == "phi-inv":
            return check_member(stdout, len(argv[1]))
        return None  # phi is checked against its input in check_pass

    def check_pass(self, ops, outputs, digests, seed):
        reasons = [None] * len(ops)
        for i in range(1, len(ops), 2):
            if outputs[i].strip() != ops[i - 1][1]:
                reasons[i] = "phi(phi-inv(path)) is not the input path"
        frozen = digests[self.name].get(str(seed))
        inverses = "".join(outputs[i] for i in range(0, len(ops), 2))
        if frozen is not None and sha256(inverses) != frozen:
            for i in range(0, len(ops), 2):
                reasons[i] = reasons[i] or "phi-inv outputs differ from the frozen digest"
        return reasons

    def items(self, argv, stdout):
        return len(argv[1]) if argv[0] == "phi-inv" else 0


class VerifyAll(Workload):
    """``verify --suite all --max-n 6``, the user's full three-route check.

    Runs every layer on many tiny inputs, so a change that helps long or
    large inputs but slows small ones shows here.
    """

    name = "verify_all"

    def ops(self, seed):
        return [["verify", "--suite", "all", "--max-n", str(VERIFY_MAX_N), "--seed", str(seed)]]

    def sizes(self, seed):
        return {"suite": "all", "max_n": VERIFY_MAX_N}

    def check(self, index, argv, stdout, digests, seed):
        lines = stdout.splitlines()
        if any(line.startswith("FAIL") for line in lines):
            return "verify printed a FAIL line"
        if not lines or lines[-1] != "all suites passed":
            return "last line is not 'all suites passed'"
        return None

    def items(self, argv, stdout):
        return 1


WORKLOADS = {w.name: w for w in (OracleTables(), ClosedForms(), BijectionLong(), VerifyAll())}
