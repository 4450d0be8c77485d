"""Descent tables per family, computed three ways.

Families index descent histograms by (n, d):

  q   even-length centrosymmetric 132-avoiders, length 2n
  r   odd-length centrosymmetric 132-avoiders, length 2n+1
  v   odd-length centrosymmetric 123-avoiders, length 2n+1
  t   even-length centrosymmetric 123-avoiders, length 2n
  k   members of t whose path image is a Dyck path
  ck  members of k whose path image is elevated
  g   members of t whose path image is an elevated proper prefix

``descent_tables`` builds the requested families' tables by one route,
and what they share once per call.  The recurrence tables are the
normative output; their rows are y-polynomials on the series module's
kernel, and they never read a closed form (only _series_rows does).  The
closed-form series and the oracle are verification inputs, compared cell
by cell with these tables by the three-route check of ``censym verify``:
where a printed closed form is known to disagree with the combinatorially
verified table (Q's constant term, R's missing (1+y^2) factor, the
empty-path cells of CK and S), the mismatch is a paper discrepancy rather
than a failure.
"""

from dataclasses import dataclass
from math import comb

from . import oracle
from .perms import descent_count
from .series import NamedSeries, _padd, _pdot, _pmul, _pneg, _pshift, _trim

# family: (its named series, length offset, pattern); its members of size
# n are in C_2n+offset(pattern), and k, ck and g are subclasses of C_2n(123)
_FAMILY_ROUTES = {
    "q": ("Q", 0, (1, 3, 2)),
    "r": ("R", 1, (1, 3, 2)),
    "v": ("V", 1, (1, 2, 3)),
    "k": ("K", 0, (1, 2, 3)),
    "ck": ("CK", 0, (1, 2, 3)),
    "g": ("S", 0, (1, 2, 3)),
    "t": ("T", 0, (1, 2, 3)),
}
FAMILIES = tuple(_FAMILY_ROUTES)


@dataclass(frozen=True)
class DescentTable:
    """Rows of descent counts: rows[n][d] members with d descents."""

    family: str
    rows: tuple

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def cell(self, n: int, d: int) -> int:
        if not 0 <= n < len(self.rows) or d < 0:
            return 0
        row = self.rows[n]
        return row[d] if d < len(row) else 0

    def width(self) -> int:
        return max((len(row) for row in self.rows), default=0)


def _trim_row(row):
    return _trim(row) or (0,)


def _table_q(max_n):
    rows = [(1,)]
    for n in range(1, max_n + 1):
        rows.append(tuple(comb(n - 1, d // 2) for d in range(2 * n)))
    return rows


def _table_r(max_n):
    rows = [(1,)]
    for n in range(1, max_n + 1):
        rows.append(
            tuple(comb(n, d // 2) if d % 2 == 0 else 0 for d in range(2 * n + 1))
        )
    return rows


def _table_v(k):
    """v_0 = 1 and v_n = y k_n, that is V = 1 + y(K - 1).

    A v member of size n >= 1 is odd_embed of some alpha in S_n(123) and has
    2 des(alpha) + 2 descents; a k member has 2(tf + valleys) + 1 for its
    Dyck path.  des on S_n(123) and tf + valleys on Dyck paths of semilength
    n have one distribution, so the odd class is the Dyck class with one
    descent more.  In closed form V - 1 = y(K - 1) = (P - root) / (2xy^2 h),
    with h = 1 + x - xy^2, P = 1 - 2xy^2 h and root^2 = 1 - 4xy^2 h.
    """
    return [(1,)] + [_pshift(row, 1) for row in k[1:]]


def _tables_k_ck(max_n):
    """Mutual recurrence for Dyck-path members and the elevated subfamily.

    Rows are y-polynomials (row n of K and CK as coefficient tuples).
    ck_n = y^2 k_(n-1) + (y^2 - y^4) k_(n-2) holds from n = 3 on; the n <= 2
    rows are seeded (the printed n = 2 instance would create a spurious
    entry at d = 3).  Splitting a Dyck path at its first return gives
    k_n = ck_n + y sum_(0<i<n) ck_i k_(n-i): the join adds one descent.
    """
    k = [(1,), (0, 1)]
    ck = [(), (0, 1), (0, 1)]
    for n in range(2, max_n + 1):
        if n >= 3:
            ck.append(
                _padd(_pshift(k[n - 1], 2), _pmul((0, 0, 1, 0, -1), k[n - 2]))
            )
        split = _pdot(ck[1:n], reversed(k[1:n]))
        k.append(_padd(ck[n], _pshift(split, 1)))
    return k, ck


def _tables_g_t(k, max_n):
    """g from shifted t rows, t by splitting at the last return.

    g_n = (y + y^2) t_(n-1) - y^2 k_(n-1) and
    t_n = g_n + k_n + y sum_(0<i<n) g_i k_(n-i), on the k rows given.
    """
    g = [(), (1,)]
    t = [(1,), (1, 1)]
    for n in range(2, max_n + 1):
        g.append(_padd(_pmul((0, 1, 1), t[n - 1]), _pneg(_pshift(k[n - 1], 2))))
        split = _pdot(g[1:n], reversed(k[1:n]))
        t.append(_padd(_padd(g[n], k[n]), _pshift(split, 1)))
    return g, t


def _recurrence_rows(families, max_n):
    """Rows by formula and recurrence; k and ck are built once for v, k, ck, g, t."""
    rows = {}
    if "q" in families:
        rows["q"] = _table_q(max_n)
    if "r" in families:
        rows["r"] = _table_r(max_n)
    if not {"v", "k", "ck", "g", "t"}.isdisjoint(families):
        rows["k"], rows["ck"] = _tables_k_ck(max_n)
        if "v" in families:
            rows["v"] = _table_v(rows["k"])
        if not {"g", "t"}.isdisjoint(families):
            rows["g"], rows["t"] = _tables_g_t(rows["k"], max_n)
    return rows


def _series_rows(families, max_n):
    named = NamedSeries(max_n)
    return {f: named[_FAMILY_ROUTES[f][0]].coeffs for f in families}


def _oracle_rows(families, max_n):
    """Histograms of the requested families: each class is enumerated once
    per n, and a member counts for every requested family it is in."""
    by_class = {}
    for f in families:
        by_class.setdefault(_FAMILY_ROUTES[f][1:], []).append(f)

    def spec(n, offset, pattern):
        return oracle.ClassSpec(2 * n + offset, centrosymmetric=True, avoid=pattern)

    for key in by_class:
        oracle._check_cap(spec(max_n, *key))
    rows = {f: [] for f in families}
    for n in range(max_n + 1):
        for key, members_of in by_class.items():
            for f in members_of:
                rows[f].append([0] * (2 * n + 2))  # room for 2n + 1 descents
            for p in oracle.enumerate_class(spec(n, *key)):
                for f in members_of:
                    if f not in oracle.SUBCLASSES or oracle._subclass_match(p, f):
                        rows[f][n][descent_count(p)] += 1
    return rows


def descent_tables(source: str, families, max_n: int) -> dict:
    """{family: DescentTable} with rows n = 0..max_n for each requested
    family, by source 'recurrence', 'series' or 'oracle'."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    families = dict.fromkeys(families)  # in order, each once
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r} (choose from {FAMILIES})")
    routes = {
        "recurrence": _recurrence_rows, "series": _series_rows, "oracle": _oracle_rows
    }
    if source not in routes:
        raise ValueError(f"unknown source {source!r} (choose from {tuple(routes)})")
    rows = routes[source](families, max_n)
    return {
        f: DescentTable(f, tuple(_trim_row(r) for r in rows[f][: max_n + 1]))
        for f in families
    }


def known_series_discrepancy(family: str, n: int, d: int) -> str | None:
    """Expected disagreements between printed closed forms and the tables."""
    if family == "q" and (n, d) == (0, 0):
        return "printed Q omits the constant term for the empty permutation"
    if family == "r":
        return "printed R is short one factor of (1+y^2)"
    if family == "ck" and (n, d) == (0, 0):
        return "printed CK counts the empty path as elevated"
    if family == "g" and (n, d) == (0, 0):
        return "printed S counts the empty path as an elevated proper prefix"
    return None


def table_to_csv(table: DescentTable) -> str:
    r"""Render with header ``n\d,0,1,...,D`` and zero-padded rows."""
    width = table.width()
    lines = ["n\\d," + ",".join(str(d) for d in range(width))]
    for n, row in enumerate(table.rows):
        padded = list(row) + [0] * (width - len(row))
        lines.append(f"{n}," + ",".join(str(c) for c in padded))
    return "\n".join(lines) + "\n"
