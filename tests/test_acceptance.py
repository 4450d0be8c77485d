"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison here is exact; the only tolerances are the
stated runtime budgets.
"""

import random
import time
from itertools import zip_longest
from math import comb

from censym.bijection import phi, phi_inverse
from censym.oracle import ClassSpec, descent_histogram, enumerate_class
from censym.paths import LatticePath, enumerate_prefixes
from censym.perms import parse_permutation
from censym.series import BivariateSeries, NamedSeries
from censym.tables import descent_tables, known_series_discrepancy
from censym.verify import T_ROWS_FROZEN

from tests.paper import C6_132, C7_132, PHI_FIGURE, PHI_INVERSE_FIGURE


def _line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} acceptance criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_central_binomial_counts(catalogue):
    start = time.monotonic()
    ok = all(
        len({phi_inverse(path) for path in enumerate_prefixes(2 * n)}) == comb(2 * n, n)
        for n in range(9)
    )
    ok = ok and catalogue(7, "123-avoiding count C(2n, n)").ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _line(1, ok, f"|C_2n(123)| = C(2n,n), phi_inverse images n<=8 and brute force n<=7 ({elapsed:.1f}s)")


def test_criterion_2_round_trips(catalogue):
    report = catalogue(
        8, "round trip path -> member -> path", "round trip member -> path -> member"
    )
    _line(2, report.ok, "phi/phi_inverse mutually inverse, image complete, 2n <= 16")


def test_criterion_3_figure_fidelity():
    member, path = PHI_FIGURE
    ok = phi(parse_permutation(member)).steps == path
    path, member = PHI_INVERSE_FIGURE
    ok = ok and str(phi_inverse(LatticePath(path))) == member
    _line(3, ok, "both worked figures reproduced bit-exactly")


def test_criterion_4_t_table_three_ways():
    start = time.monotonic()
    rec = descent_tables("recurrence", ("t",), 8)["t"]
    ser = descent_tables("series", ("t",), 8)["t"]
    orc = descent_tables("oracle", ("t",), 7)["t"]
    ok = rec.rows[:6] == T_ROWS_FROZEN
    ok = ok and ser.rows == rec.rows
    ok = ok and orc.rows == rec.rows[:8]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _line(4, ok, f"t rows 0..5 exact, three routes agree to n=8/oracle 7 ({elapsed:.1f}s)")


def test_criterion_5_132_results():
    q, r = descent_tables("recurrence", ("q", "r"), 7).values()
    orc = descent_tables("oracle", ("q", "r"), 7)
    series = descent_tables("series", ("q", "r"), 7)
    ok = True
    for family, table in (("q", q), ("r", r)):
        # equal oracle rows make these rows the brute-force histograms
        ok = ok and orc[family].rows == table.rows
        ser = series[family]
        for n, row in enumerate(table.rows):
            for d, (a, b) in enumerate(zip_longest(row, ser.rows[n], fillvalue=0)):
                if a != b:
                    reason = known_series_discrepancy(family, n, d) or ""
                    ok = ok and ("printed Q" in reason or "printed R" in reason)
    for n in range(8):
        hist = {d: c for d, c in enumerate(q.rows[n]) if c}
        if n == 0:
            ok = ok and hist == {0: 1}
        else:
            want = {
                d: comb(n - 1, d // 2)
                for d in range(2 * n)
                if comb(n - 1, d // 2)
            }
            ok = ok and hist == want
        hist = {d: c for d, c in enumerate(r.rows[n]) if c}
        want = {2 * k: comb(n, k) for k in range(n + 1) if comb(n, k)}
        ok = ok and hist == want
    six = {
        p.values
        for p in enumerate_class(ClassSpec(6, centrosymmetric=True, avoid=(1, 3, 2)))
    }
    seven = {
        p.values
        for p in enumerate_class(ClassSpec(7, centrosymmetric=True, avoid=(1, 3, 2)))
    }
    ok = ok and six == C6_132 and seven == C7_132
    _line(5, ok, "132 histograms match binomial formulas n<=7; listed classes verbatim")


def test_criterion_6_odd_123_case(catalogue):
    ok = True
    eulerian = {}
    for n in range(9):
        hist = descent_histogram(ClassSpec(n, avoid=(1, 2, 3)))
        eulerian[n] = hist
        odd = descent_histogram(
            ClassSpec(2 * n + 1, centrosymmetric=True, avoid=(1, 2, 3))
        )
        if n == 0:
            ok = ok and odd == {0: 1}
            continue
        want = {2 * k + 2: c for k, c in hist.items()}
        ok = ok and odd == want
    e = NamedSeries(8)["E"]
    for n in range(9):
        row = e.coeffs[n]
        hist = {k: c for k, c in enumerate(row) if c}
        ok = ok and hist == eulerian[n]
    ok = ok and catalogue(8, "named series identities").ok
    _line(6, ok, "odd histograms shift the S_n(123) Eulerian rows; V identity to order 8")


def test_criterion_7_structure_theorems(catalogue):
    report = catalogue(
        7,
        "final height 2#tiny; Dyck iff no tiny minima",
        "Dyck-class descents from valleys and triple falls",
        "right components track path returns",
        "per-block height formulas (no tiny minima)",
    )
    checked = sum(c.count for c in report.checks)
    detail = "height/tiny, descent, component, and height-formula laws"
    _line(7, report.ok, f"{detail} on {checked} cases, 2n <= 14")


def test_criterion_8_series_engine(catalogue):
    rng = random.Random(20260814)
    ok = True
    order = 12
    cases = 0
    while cases < 100:
        terms = [
            (i, j, rng.randint(-3, 3))
            for i in range(1, order + 1)
            for j in range(2 * i)
            if rng.random() < 0.3
        ]
        a = BivariateSeries.one(order) + BivariateSeries.from_terms(order, terms)
        b = BivariateSeries.one(order) + BivariateSeries.from_terms(
            order, [(i + 1, j, c) for i, j, c in terms if i < order]
        )
        ok = ok and (a / b) * b == a
        ok = ok and (a * a).sqrt() == a
        cases += 2
    report = catalogue(
        order, "generating function for Dyck path counts", "named series identities"
    )
    ok = ok and report.ok
    _line(8, ok, f"{cases} randomized algebra cases, Catalan leg n<=10, composite identities to order 12")
