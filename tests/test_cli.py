import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from censym import bijection, cli, oracle, perms, tables
from censym.paths import LatticePath
from censym.perms import VerificationError, parse_permutation
from censym.verify import Check, SuiteReport

from tests.paper import PHI_FIGURE, PHI_INVERSE_FIGURE
from tests.test_bijection import LONG_PATHS

# stdout of `censym verify --suite all --max-n 4 --seed 0`
VERIFY_ALL_4 = """\
suite perm (max n = 4)
PASS centrosymmetric count 2^n n! (5 checked)
PASS 123-avoiding count C(2n, n) (5 checked)
PASS 132-avoiding count 2^n (5 checked)
PASS mirror-symmetric descent sets (502 checked)
PASS descents recoverable from the first half (443 checked)
PASS minima decomposition well formed (99 checked)
suite perm: ok
suite path (max n = 4)
PASS prefix count C(2n, n) (5 checked)
PASS Dyck path count Catalan(n) (5 checked)
PASS classification trichotomy and split (99 checked)
PASS heights, final height, returns agree (99 checked)
suite path: ok
suite bijection (max n = 4)
PASS round trip path -> member -> path (99 checked)
PASS round trip member -> path -> member (99 checked)
PASS structural generator matches inverse image (5 checked)
PASS final height 2#tiny; Dyck iff no tiny minima (99 checked)
PASS right components track path returns (99 checked)
PASS Dyck-class descents from valleys and triple falls (23 checked)
PASS per-block height formulas (no tiny minima) (23 checked)
PASS composite members factor at the last return (27 checked)
PASS odd 123 class is the lifted image of S_n(123) (23 checked)
PASS 132 structural generator matches brute force (9 checked)
suite bijection: ok
suite series (max n = 4)
PASS t table matches the published rows (5 checked)
PASS row sums and parity constraints (15 checked)
PASS recurrence vs series vs brute force, all families (290 checked)
PASS series arithmetic round trips (randomized) (75 checked)
PASS generating function for Dyck path counts (4 checked)
PASS named series identities (5 checked)
paper discrepancies (expected, not failures):
  q[0][0]: table 1 vs series 0 (printed Q omits the constant term for the empty permutation)
  r[0][0]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[1][2]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[2][2]: table 2 vs series 1 (printed R is short one factor of (1+y^2))
  r[2][4]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[3][2]: table 3 vs series 2 (printed R is short one factor of (1+y^2))
  r[3][4]: table 3 vs series 1 (printed R is short one factor of (1+y^2))
  r[3][6]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[4][2]: table 4 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][4]: table 6 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][6]: table 4 vs series 1 (printed R is short one factor of (1+y^2))
  r[4][8]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  ck[0][0]: table 0 vs series 1 (printed CK counts the empty path as elevated)
  g[0][0]: table 0 vs series 1 (printed S counts the empty path as an elevated proper prefix)
suite series: ok
all suites passed
"""

# the same command with perms.descent_count one too high on length 4 and
# generate_c132 dropping its last member of length 4
VERIFY_ALL_4_FAULTS = """\
suite perm (max n = 4)
PASS centrosymmetric count 2^n n! (5 checked)
PASS 123-avoiding count C(2n, n) (5 checked)
PASS 132-avoiding count 2^n (5 checked)
PASS mirror-symmetric descent sets (502 checked)
FAIL descents recoverable from the first half (443 checked): half-word descent count wrong for 1 2 3 4
PASS minima decomposition well formed (99 checked)
suite perm: FAILED
suite path (max n = 4)
PASS prefix count C(2n, n) (5 checked)
PASS Dyck path count Catalan(n) (5 checked)
PASS classification trichotomy and split (99 checked)
PASS heights, final height, returns agree (99 checked)
suite path: ok
suite bijection (max n = 4)
PASS round trip path -> member -> path (99 checked)
PASS round trip member -> path -> member (99 checked)
PASS structural generator matches inverse image (5 checked)
PASS final height 2#tiny; Dyck iff no tiny minima (99 checked)
PASS right components track path returns (99 checked)
FAIL Dyck-class descents from valleys and triple falls (23 checked): descent formula fails for 3 4 1 2
PASS per-block height formulas (no tiny minima) (23 checked)
FAIL composite members factor at the last return (27 checked): composite descent offset fails for 4 2 3 1
FAIL odd 123 class is the lifted image of S_n(123) (23 checked): odd descent transfer fails for 1 4 3 2
FAIL 132 structural generator matches brute force (9 checked): 132 generator mismatch at length 4
suite bijection: FAILED
suite series (max n = 4)
PASS t table matches the published rows (5 checked)
PASS row sums and parity constraints (15 checked)
PASS recurrence vs series vs brute force, all families (290 checked)
PASS series arithmetic round trips (randomized) (75 checked)
PASS generating function for Dyck path counts (4 checked)
PASS named series identities (5 checked)
paper discrepancies (expected, not failures):
  q[0][0]: table 1 vs series 0 (printed Q omits the constant term for the empty permutation)
  r[0][0]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[1][2]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[2][2]: table 2 vs series 1 (printed R is short one factor of (1+y^2))
  r[2][4]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[3][2]: table 3 vs series 2 (printed R is short one factor of (1+y^2))
  r[3][4]: table 3 vs series 1 (printed R is short one factor of (1+y^2))
  r[3][6]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[4][2]: table 4 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][4]: table 6 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][6]: table 4 vs series 1 (printed R is short one factor of (1+y^2))
  r[4][8]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  ck[0][0]: table 0 vs series 1 (printed CK counts the empty path as elevated)
  g[0][0]: table 0 vs series 1 (printed S counts the empty path as an elevated proper prefix)
suite series: ok
verification FAILED
"""

# stdout of `censym verify --suite series --max-n 4 --seed 0` with the
# series route giving k row 2 an extra cell 7 at d = 4 and the oracle
# taking one more member of length 6 with 3 descents for g
VERIFY_SERIES_4_ROUTE_FAULTS = """\
suite series (max n = 4)
PASS t table matches the published rows (5 checked)
PASS row sums and parity constraints (15 checked)
FAIL recurrence vs series vs brute force, all families (292 checked): k[2][4]: table 0 vs series 7
PASS series arithmetic round trips (randomized) (75 checked)
PASS generating function for Dyck path counts (4 checked)
PASS named series identities (5 checked)
paper discrepancies (expected, not failures):
  q[0][0]: table 1 vs series 0 (printed Q omits the constant term for the empty permutation)
  r[0][0]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[1][2]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[2][2]: table 2 vs series 1 (printed R is short one factor of (1+y^2))
  r[2][4]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[3][2]: table 3 vs series 2 (printed R is short one factor of (1+y^2))
  r[3][4]: table 3 vs series 1 (printed R is short one factor of (1+y^2))
  r[3][6]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  r[4][2]: table 4 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][4]: table 6 vs series 3 (printed R is short one factor of (1+y^2))
  r[4][6]: table 4 vs series 1 (printed R is short one factor of (1+y^2))
  r[4][8]: table 1 vs series 0 (printed R is short one factor of (1+y^2))
  ck[0][0]: table 0 vs series 1 (printed CK counts the empty path as elevated)
  g[0][0]: table 0 vs series 1 (printed S counts the empty path as an elevated proper prefix)
suite series: FAILED
verification FAILED
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_figure(capsys):
    member, path = PHI_FIGURE
    code, out, err = run(capsys, "phi", member)
    assert code == 0
    assert out == path + "\n"
    assert err == ""


def test_phi_inv_figure(capsys):
    path, member = PHI_INVERSE_FIGURE
    code, out, _ = run(capsys, "phi-inv", path)
    assert code == 0
    assert out == member + "\n"


def test_phi_invalid_input(capsys):
    code, out, err = run(capsys, "phi", "1 3 2")
    assert code == 3
    assert out == ""
    assert "not centrosymmetric of even length" in err


def test_phi_inv_bad_path(capsys):
    code, _, err = run(capsys, "phi-inv", "DDU")
    assert code == 3
    assert "dips below the x-axis" in err


@pytest.mark.parametrize("steps", list(LONG_PATHS.values()), ids=list(LONG_PATHS))
def test_phi_inv_long_paths(capsys, steps):
    code, member, _ = run(capsys, "phi-inv", steps)
    assert code == 0
    assert run(capsys, "phi", member.strip()) == (0, steps + "\n", "")


def test_long_inputs_on_stdin(monkeypatch, capsys):
    rng = random.Random(5)
    steps, height = [], 0
    for _ in range(100000):
        up = height == 0 or rng.random() < 0.5
        steps.append("U" if up else "D")
        height += 1 if up else -1
    path = "".join(steps)
    monkeypatch.setattr("sys.stdin", io.StringIO(path + "\n"))
    code, member, _ = run(capsys, "phi-inv", "-")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(member))
    assert run(capsys, "phi", "-") == (0, path + "\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO("4 2 3 1\n"))
    assert run(capsys, "perm-stats", "-") == run(capsys, "perm-stats", "4 2 3 1")


@pytest.mark.parametrize("error", [VerificationError, RuntimeError])
def test_internal_error_exit_code(monkeypatch, capsys, error):
    def crash(path):
        raise error("boom")

    monkeypatch.setattr(cli.bijection, "phi_inverse", crash)
    code, out, err = run(capsys, "phi-inv", "UD")
    assert code == 4
    assert out == ""
    assert f"error: internal error: {error.__name__}: boom" in err


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "table", "--family", "zz", "--max-n", "2")[0] == 2
    assert run(capsys, "enumerate")[0] == 2


def test_perm_stats_json(capsys):
    code, out, _ = run(capsys, "perm-stats", "4 2 3 1")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "n": 4,
        "centrosymmetric": True,
        "descents": [1, 3],
        "des": 2,
        "ltr_minima": [4, 2, 1],
        "tiny_minima": [2],
        "right_components": 3,
    }


def test_perm_stats_rejects_garbage(capsys):
    assert run(capsys, "perm-stats", "1 1")[0] == 3
    assert run(capsys, "perm-stats", "0 1")[0] == 3
    assert run(capsys, "perm-stats", "nope")[0] == 3


def test_enumerate_lines(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--len", "4", "--centro", "--avoid", "123"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == [
        "2 1 4 3",
        "2 4 1 3",
        "3 1 4 2",
        "3 4 1 2",
        "4 2 3 1",
        "4 3 2 1",
    ]
    for line in lines:
        assert str(parse_permutation(line)) == line


def test_enumerate_json_and_csv(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--len",
        "4",
        "--centro",
        "--avoid",
        "123",
        "--subclass",
        "k",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["members"] == ["3 4 1 2", "4 3 2 1"]

    code, out, _ = run(
        capsys,
        "enumerate",
        "--len",
        "3",
        "--centro",
        "--avoid",
        "123",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == "3,2,1\n"


def test_enumerate_bad_pattern(capsys):
    code, _, err = run(capsys, "enumerate", "--len", "4", "--avoid", "122")
    assert code == 3
    assert "not a pattern" in err


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--len", "12")
    assert code == 3
    assert "cap" in err


def test_table_csv(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--family",
        "t",
        "--max-n",
        "5",
        "--source",
        "recurrence",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n\\d,0,1,")
    assert lines[-1] == "5,0,0,0,0,10,50,85,75,31,1"


def test_table_sources_agree(capsys):
    outputs = []
    for source in ("recurrence", "series", "oracle"):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "t",
            "--max-n",
            "3",
            "--source",
            source,
            "--format",
            "csv",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "max_n, message", [("-1", "max_n must be nonnegative"), ("9", "exceeds cap 16")]
)
def test_oracle_table_checks_size_first(monkeypatch, capsys, max_n, message):
    searched = []

    def search(*args):
        searched.append(args)
        return []

    monkeypatch.setattr(cli.oracle, "_centro_members", search)
    monkeypatch.delenv("CENSYM_MAX_ORACLE_N", raising=False)
    argv = ("table", "--family", "q", "--max-n", max_n, "--source", "oracle")
    code, out, err = run(capsys, *argv)
    assert (code, out, searched) == (3, "", [])
    assert message in err


def test_t_oracle_table_never_classifies(monkeypatch, capsys):
    # t is all of C_2n(123), so the k/ck/g classification has no part in it
    classified = []
    monkeypatch.setattr(oracle, "_subclass_match", lambda *a: classified.append(a))
    argv = ("table", "--family", "t", "--max-n", "4", "--source", "oracle")
    code, out, _ = run(capsys, *argv)
    assert (code, classified) == (0, [])
    assert out.splitlines()[-1] == "4,0,0,0,6,20,28,15,1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("table", "--family", "t", "--max-n", "-1", "--source", "series"),
            "max_n must be nonnegative",
        ),
        (("series", "--name", "T", "--order", "-1"), "order must be nonnegative"),
    ],
    ids=["table", "series"],
)
def test_series_checks_size_first(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert message in err


def test_table_json_cells_are_strings(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--family",
        "q",
        "--max-n",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2] == ["1", "1", "1", "1"]


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--name", "T", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "T"
    assert payload["order"] == 3
    assert payload["coeffs"] == [
        ["1"],
        ["1", "1"],
        ["0", "2", "3", "1"],
        ["0", "0", "3", "9", "7", "1"],
    ]


def test_series_negative_order(capsys):
    assert run(capsys, "series", "--name", "K", "--order", "-1")[0] == 3


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "path", "--max-n", "2")
    assert code == 0
    assert "PASS" in out
    assert "all suites passed" in out


def test_verify_reports_failure(monkeypatch, capsys):
    bad = SuiteReport("path", 2, checks=[Check("doomed", False, 1, "boom")])
    monkeypatch.setattr(cli.verify, "run_suite", lambda *a, **k: [bad])
    code, out, _ = run(capsys, "verify", "--suite", "path", "--max-n", "2")
    assert code == 1
    assert "FAIL doomed" in out
    assert "verification FAILED" in out


def test_verify_rejects_negative(capsys):
    assert run(capsys, "verify", "--suite", "path", "--max-n", "-1")[0] == 3


def test_verify_report_is_frozen(capsys):
    out = run(capsys, "verify", "--suite", "all", "--max-n", "4", "--seed", "0")
    assert out == (0, VERIFY_ALL_4, "")


def test_verify_report_under_faults_is_frozen(monkeypatch, capsys):
    real_descent_count = perms.descent_count
    real_generate_c132 = bijection.generate_c132

    def descent_count(p):
        return real_descent_count(p) + (len(p) == 4)

    def generate_c132(n):
        members = list(real_generate_c132(n))
        return iter(members[:-1] if n == 4 else members)

    monkeypatch.setattr(perms, "descent_count", descent_count)
    monkeypatch.setattr(bijection, "generate_c132", generate_c132)
    out = run(capsys, "verify", "--suite", "all", "--max-n", "4", "--seed", "0")
    assert out == (1, VERIFY_ALL_4_FAULTS, "")


def test_verify_series_report_under_route_faults_is_frozen(monkeypatch, capsys):
    real_series_rows = tables._series_rows
    real_match = oracle._subclass_match
    k_6 = oracle.ClassSpec(6, centrosymmetric=True, avoid=(1, 2, 3), subclass="k")
    extra = next(p for p in oracle.enumerate_class(k_6) if perms.descent_count(p) == 3)

    def series_rows(families, max_n):
        rows = real_series_rows(families, max_n)
        rows["k"] = list(rows["k"])
        rows["k"][2] += (7,)
        return rows

    def subclass_match(p, name):
        return real_match(p, name) or (name == "g" and p == extra)

    monkeypatch.setattr(oracle, "_subclass_match", subclass_match)
    argv = ("verify", "--suite", "series", "--max-n", "4", "--seed", "0")
    # the oracle fault alone fails one cell and adds no count
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert (
        "FAIL recurrence vs series vs brute force, all families (290 checked): "
        "g[3][3]: table 4 vs oracle 5\n"
    ) in out
    monkeypatch.setattr(tables, "_series_rows", series_rows)
    out = run(capsys, *argv)
    assert out == (1, VERIFY_SERIES_4_ROUTE_FAULTS, "")


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "censym", "verify", "--suite", "path", "--max-n", "2"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("all suites passed\n")


def run_piped(script, read_lines):
    """Run a CLI script in a fresh interpreter whose stdout reader takes
    read_lines lines and then closes the pipe (at once for 0, before the
    script writes anything): (exit code, lines read, stderr)."""
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    reader = open(read_end, encoding="utf-8")
    if not read_lines:
        reader.close()
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        os.close(write_end)
        lines = [reader.readline() for _ in range(read_lines)]
        reader.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), lines, err


def test_closed_stdout_is_not_an_error():
    # C_16(123) has 12870 members, far more output than a pipe buffer holds
    script = (
        "import sys; from censym.cli import main; "
        "sys.exit(main(['enumerate', '--len', '16', '--centro', '--avoid', '123']))"
    )
    assert run_piped(script, 1) == (0, ["8 7 6 5 4 3 2 1 16 15 14 13 12 11 10 9\n"], "")


@pytest.mark.parametrize("ok, code", [(True, 0), (False, 1)])
def test_verify_with_closed_stdout_keeps_its_verdict(ok, code):
    script = (
        "import sys; from censym import cli, verify\n"
        f"report = verify.SuiteReport('path', 2, [verify.Check('c', {ok}, 1, 'boom')])\n"
        "verify.run_suite = lambda *a, **k: [report]\n"
        "sys.exit(cli.main(['verify']))"
    )
    assert run_piped(script, 0) == (code, [], "")


@pytest.mark.parametrize("value, code", [("-2", 3), ("abc", 3), ("", 0)])
def test_oracle_cap_variable(monkeypatch, capsys, value, code):
    monkeypatch.setenv("CENSYM_MAX_ORACLE_N", value)
    got, out, err = run(capsys, "verify", "--suite", "path", "--max-n", "2")
    assert got == code
    assert ("CENSYM_MAX_ORACLE_N" in err) == (code == 3)
    assert out.endswith("all suites passed\n") == (code == 0)


def test_output_determinism(capsys):
    first = run(capsys, "enumerate", "--len", "6", "--centro", "--avoid", "132")
    second = run(capsys, "enumerate", "--len", "6", "--centro", "--avoid", "132")
    assert first == second
    emitted = first[1].strip().split("\n")
    assert emitted == sorted(emitted, key=lambda s: parse_permutation(s).values)


def test_emitted_paths_reparse(capsys):
    code, out, _ = run(capsys, "phi", "3 4 1 2")
    assert code == 0
    assert LatticePath(out.strip()).steps == "UUDD"
