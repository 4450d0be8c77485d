import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import censym.series
import censym.tables
from censym.series import BivariateSeries, NAMED_SERIES, NamedSeries
from censym.tables import (
    FAMILIES,
    descent_tables,
    known_series_discrepancy,
    table_to_csv,
)
from censym.verify import T_ROWS_FROZEN

# brute-force confirmed by the three-route check of verify at n <= 7
K_ROWS = [
    [1],
    [0, 1],
    [0, 1, 0, 1],
    [0, 0, 0, 4, 0, 1],
    [0, 0, 0, 2, 0, 11, 0, 1],
    [0, 0, 0, 0, 0, 15, 0, 26, 0, 1],
]
CK_ROWS = [[0], [0, 1], [0, 1], [0, 0, 0, 2], [0, 0, 0, 1, 0, 4]]
G_ROWS = [[0], [1], [0, 1, 2], [0, 0, 2, 4, 4], [0, 0, 0, 3, 12, 12, 8]]
E_ROWS = [
    [1],
    [1],
    [1, 1],
    [0, 4, 1],
    [0, 2, 11, 1],
    [0, 0, 15, 26, 1],
    [0, 0, 5, 69, 57, 1],
    [0, 0, 0, 56, 252, 120, 1],
    [0, 0, 0, 14, 364, 804, 247, 1],
]


def table(source, family, max_n):
    return descent_tables(source, (family,), max_n)[family]


def series_of(rows):
    return BivariateSeries.from_terms(
        len(rows) - 1,
        [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row)],
    )


small_polys = st.builds(
    lambda rows: BivariateSeries(6, rows),
    st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=7),
)


def test_constructor_and_coefficient():
    s = BivariateSeries.from_terms(3, [(0, 0, 1), (2, 3, -7)])
    assert s.coefficient(0, 0) == 1
    assert s.coefficient(2, 3) == -7
    assert s.coefficient(1, 5) == 0
    with pytest.raises(IndexError):
        s.coefficient(4, 0)
    with pytest.raises(ValueError):
        BivariateSeries(-1, [])


def test_arithmetic_against_known_product():
    a = series_of([[1], [1, 1]])  # 1 + x(1+y)
    b = series_of([[1], [0, -1]])  # 1 - xy
    product = a * b
    assert product.coefficient(1, 0) == 1
    assert product.coefficient(1, 1) == 0
    assert product.coefficient(0, 0) == 1


@given(small_polys, small_polys)
def test_add_commutes_and_mul_distributes(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b


@given(small_polys)
def test_division_and_sqrt_round_trip(a):
    u = BivariateSeries.one(6) + a.mul_term(1, 0, 1)
    assert (a / u) * u == a
    assert (u * u).sqrt() == u


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        BivariateSeries.from_terms(3, [(0, 0, 4)]).sqrt()
    with pytest.raises(ValueError):
        BivariateSeries.from_terms(3, [(1, 0, 1)]).sqrt()


def test_division_requires_scalar_constant():
    one_plus_y = BivariateSeries.from_terms(3, [(0, 0, 1), (0, 1, 1)])
    with pytest.raises(ValueError):
        BivariateSeries.one(3) / one_plus_y


def test_div_x_and_div_y():
    s = BivariateSeries.from_terms(4, [(1, 2, 3), (2, 1, 5)])
    t = s.div_x(1)
    assert t.order == 3
    assert t.coefficient(0, 2) == 3
    with pytest.raises(ValueError):
        BivariateSeries.one(3).div_x(1)
    u = s.div_y(1)
    assert u.coefficient(1, 1) == 3
    with pytest.raises(ValueError):
        BivariateSeries.from_terms(2, [(1, 0, 1)]).div_y(1)


def test_substitute_y_squared():
    s = BivariateSeries.from_terms(2, [(1, 1, 2), (2, 3, 5)])
    t = s.substitute_y_squared()
    assert t.coefficient(1, 2) == 2
    assert t.coefficient(2, 6) == 5
    assert t.coefficient(1, 1) == 0


def test_truncate():
    s = BivariateSeries.from_terms(5, [(4, 0, 1), (1, 1, 1)])
    t = s.truncate(2)
    assert t.order == 2
    assert t.coefficient(1, 1) == 1
    with pytest.raises(ValueError):
        t.truncate(3)


def test_catalan_generating_function():
    disc = BivariateSeries.from_terms(11, [(0, 0, 1), (1, 0, -4)])
    catalan = (1 - disc.sqrt()).div_x(1) / 2
    assert [catalan.coefficient(n, 0) for n in range(11)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796
    ]


@pytest.mark.parametrize("name", NAMED_SERIES)
def test_named_series_coefficients_are_ints(name):
    series = NamedSeries(12)[name]
    assert all(type(c) is int for row in series.coeffs for c in row)


@pytest.mark.parametrize("name", NAMED_SERIES)
def test_named_series_are_integral(name):
    # the kernel raises at the first inexact division, so each build below
    # divided exactly at every step; a lower order is a truncation
    full = NamedSeries(30)[name]
    for order in (0, 1, 2, 5):
        assert NamedSeries(order)[name] == full.truncate(order)
    for i in range(31):
        assert full.y_degree(i) <= 2 * i + 1


def test_inexact_division_raises():
    one = BivariateSeries.one(2)
    with pytest.raises(ValueError, match="coefficient 1 is not divisible by 2"):
        one / BivariateSeries.constant(2, 2)
    with pytest.raises(ValueError, match="not divisible by 2"):
        one / 2
    # sqrt(1 + x) = 1 + x/2 - ...: the first halving is inexact
    with pytest.raises(ValueError, match="coefficient 1 is not divisible by 2"):
        BivariateSeries.from_terms(2, [(0, 0, 1), (1, 0, 1)]).sqrt()


def test_non_int_scalars_are_refused():
    s = BivariateSeries.one(2)
    for scalar in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
        with pytest.raises(TypeError, match="is not an int"):
            BivariateSeries.from_terms(2, [(0, 0, scalar)])
        with pytest.raises(TypeError, match="is not an int"):
            s.scale(scalar)
        with pytest.raises(TypeError, match="is not an int"):
            s.mul_term(1, 0, scalar)
        with pytest.raises(TypeError, match="is not an int"):
            s + scalar


def test_non_int_coefficients_are_refused():
    # rows are checked as given, not only scalars; a bool is not a count
    for rows in ([(0.5,), (1.5,)], [(True, 2)], [(1, Fraction(1, 2))], [(1, 0.0)]):
        with pytest.raises(TypeError, match="is not an int"):
            BivariateSeries(1, rows)
    with pytest.raises(TypeError, match="True is not an int"):
        BivariateSeries.from_terms(1, [(0, 0, True)])


def test_no_module_imports_fractions():
    # every coefficient is an int, so the package has no use for Fraction
    package = Path(censym.series.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", path.name
            elif isinstance(node, ast.Import):
                assert all(a.name != "fractions" for a in node.names), path.name


def test_named_series_validation():
    with pytest.raises(ValueError):
        NamedSeries(4)["Z"]
    with pytest.raises(ValueError, match="order must be nonnegative"):
        NamedSeries(-1)


def test_v_series_is_one_plus_y_times_k_minus_one():
    named = NamedSeries(40)
    v, k = named["V"], named["K"]
    assert v == 1 + (k - 1).mul_term(0, 1)


def test_series_T_matches_frozen_rows():
    rows = NamedSeries(5)["T"].coeffs
    assert tuple(tuple(r) for r in rows) == T_ROWS_FROZEN


def test_series_E_matches_frozen_rows():
    rows = NamedSeries(8)["E"].coeffs
    assert [list(r) for r in rows] == E_ROWS


def test_recurrence_tables_match_frozen_rows():
    assert table("recurrence", "t", 5).rows == T_ROWS_FROZEN
    assert [list(r) for r in table("recurrence", "k", 5).rows] == K_ROWS
    assert [list(r) for r in table("recurrence", "ck", 4).rows] == CK_ROWS
    assert [list(r) for r in table("recurrence", "g", 4).rows] == G_ROWS


def test_binomial_tables():
    q = table("recurrence", "q", 4)
    assert q.cell(3, 2) == comb(2, 1)
    assert sum(q.rows[4]) == 2**4
    r = table("recurrence", "r", 4)
    assert r.cell(3, 4) == comb(3, 2)
    assert r.cell(3, 3) == 0
    assert sum(r.rows[4]) == 2**4


def test_v_table_shifts_eulerian_rows():
    v = table("recurrence", "v", 6)
    for n in range(1, 7):
        for k, c in enumerate(E_ROWS[n]):
            assert v.cell(n, 2 * k + 2) == c
        assert v.cell(n, 0) == 0
        assert all(v.cell(n, d) == 0 for d in range(1, 2 * n + 1, 2))


def test_oracle_table_small():
    assert table("oracle", "t", 3).rows == T_ROWS_FROZEN[:4]
    assert [list(r) for r in table("oracle", "g", 3).rows] == G_ROWS[:4]


def test_series_tables_match_recurrences_where_defined():
    for family in ("v", "k", "t"):
        ser = table("series", family, 40)
        rec = table("recurrence", family, 40)
        assert ser.rows == rec.rows


def catalan(n):
    return comb(2 * n, n) // (n + 1)


ROW_SUMS = {
    "q": lambda n: 2**n,
    "r": lambda n: 2**n,
    "v": catalan,
    "t": lambda n: comb(2 * n, n),
    "k": catalan,
    "ck": lambda n: catalan(n - 1) if n else 0,
    "g": lambda n: comb(2 * n - 1, n - 1) if n else 0,
}


@pytest.mark.parametrize("family", sorted(ROW_SUMS))
def test_table_row_sums_match_paper_counts(family):
    rows = table("recurrence", family, 60).rows
    assert [sum(row) for row in rows] == [ROW_SUMS[family](n) for n in range(61)]


def test_series_table_validation():
    with pytest.raises(ValueError, match="unknown family 'x'"):
        table("series", "x", 3)
    with pytest.raises(ValueError, match="max_n must be nonnegative"):
        table("series", "t", -1)
    with pytest.raises(ValueError, match="unknown source 'guess'"):
        table("guess", "t", 3)


@pytest.mark.parametrize(
    "source, max_n", [("recurrence", 40), ("series", 40), ("oracle", 6)]
)
def test_a_family_asked_alone_matches_all_families(source, max_n):
    together = descent_tables(source, FAMILIES, max_n)
    assert list(together) == list(FAMILIES)
    for family in FAMILIES:
        assert descent_tables(source, (family,), max_n) == {family: together[family]}
    assert descent_tables(source, ("t", "t"), max_n) == {"t": together["t"]}


def test_known_discrepancy_cells():
    assert known_series_discrepancy("q", 0, 0)
    assert known_series_discrepancy("r", 3, 4)
    assert known_series_discrepancy("ck", 0, 0)
    assert known_series_discrepancy("g", 0, 0)
    assert known_series_discrepancy("q", 1, 0) is None
    assert known_series_discrepancy("t", 0, 0) is None
    s = table("series", "q", 3)
    rec = table("recurrence", "q", 3)
    assert s.cell(0, 0) == 0 and rec.cell(0, 0) == 1
    assert s.rows[1:] == rec.rows[1:]


def test_table_csv_layout():
    csv = table_to_csv(table("recurrence", "t", 2))
    lines = csv.strip().split("\n")
    assert lines[0] == "n\\d,0,1,2,3"
    assert lines[1] == "0,1,0,0,0"
    assert lines[3] == "2,0,2,3,1"


def test_recurrences_never_read_a_closed_form():
    # tables takes the y-polynomial kernel and NamedSeries from series,
    # and only _series_rows touches NamedSeries
    kernel = {"_trim", "_padd", "_pneg", "_pdot", "_pmul", "_pscale", "_pshift", "_pdiv_y"}
    assert kernel <= set(vars(censym.series))
    tree = ast.parse(Path(censym.tables.__file__).read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module in ("series", "censym.series"):
                assert all(a.asname is None for a in node.names)
                taken |= names
            elif node.module in (None, "censym"):
                assert "series" not in names
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("censym.series") for a in node.names)
    assert taken <= kernel | {"NamedSeries"}

    def uses(node):
        return sum(
            isinstance(n, ast.Name) and n.id == "NamedSeries"
            for n in ast.walk(node)
        )

    (series_rows,) = (
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_series_rows"
    )
    assert uses(series_rows) and uses(tree) == uses(series_rows)
