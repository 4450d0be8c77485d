"""Verification suites: perm, path, bijection, series, all.

Each invariant is one entry of ``CHECKS``, which both ``run_suite`` and
the tests run through ``run_checks``; reports give per-check counts with
the first counterexample on failure.  Known printed-form discrepancies
are listed separately and never fail a run.

An entry is (suite, name, domain, check).  A domain enumerates one
exhaustive member set, such as all of C_m or the Dyck prefixes: given
the size bound and the even length where enumeration stops, it yields
one (size, members) group per length.  A check takes one group and
yields one verdict per case: "" when the case holds, the counterexample
when it does not.  A ``Whole`` verdict fails the group as a whole and
counts no case.  ``run_checks`` walks each domain once per run, one
length at a time, and hands every group to each selected check on that
domain.  The series checks have no domain: they take the whole run and
yield verdicts too.
"""

import random
from dataclasses import dataclass, field
from math import comb, factorial

from . import bijection, oracle, paths, perms, tables
from .series import BivariateSeries, NamedSeries

SUITES = ("perm", "path", "bijection", "series", "all")

# exhaustive suites stop at this even length unless the environment cap
# is set explicitly; targeted oracle calls may still go to the cap
DEFAULT_SUITE_LENGTH = 14

# final descent table rows, frozen from the combinatorial recurrences
T_ROWS_FROZEN = (
    (1,),
    (1, 1),
    (0, 2, 3, 1),
    (0, 0, 3, 9, 7, 1),
    (0, 0, 0, 6, 20, 28, 15, 1),
    (0, 0, 0, 0, 10, 50, 85, 75, 31, 1),
)


class Whole(str):
    """A failure of a whole group rather than of one case: it adds no count."""


@dataclass
class Check:
    name: str
    passed: bool
    count: int = 0
    detail: str = ""

    def tally(self, verdicts):
        """Count each verdict but a Whole one; keep the first failure."""
        for verdict in verdicts:
            self.count += not isinstance(verdict, Whole)
            if verdict and self.passed:
                self.passed, self.detail = False, verdict

    def render(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.count} checked)"
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclass
class SuiteReport:
    suite: str
    max_n: int
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"suite {self.suite} (max n = {self.max_n})"]
        lines.extend(c.render() for c in self.checks)
        if self.notes:
            lines.append("paper discrepancies (expected, not failures):")
            lines.extend(f"  {n}" for n in self.notes)
        lines.append(
            f"suite {self.suite}: " + ("ok" if self.ok else "FAILED")
        )
        return "\n".join(lines)


def _oracle_members(length, **spec):
    return list(oracle.enumerate_class(oracle.ClassSpec(length, **spec)))


def _centro(max_n, cap):
    """All of C_m."""
    for m in range(min(2 * max_n, cap) + 1):
        yield m, _oracle_members(m, centrosymmetric=True)


def _c123(max_n, cap):
    """C_2n(123) as the preimages of the Dyck prefixes under phi."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, list(bijection.generate_c123_even(2 * n))


def _c123_oracle(max_n, cap):
    """C_2n(123) by brute force."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, _oracle_members(2 * n, centrosymmetric=True, avoid=(1, 2, 3))


def _c132(max_n, cap):
    """C_m(132) by brute force."""
    for m in range(2 * min(max_n, cap // 2) + 1):
        yield m, _oracle_members(m, centrosymmetric=True, avoid=(1, 3, 2))


def _prefixes(max_n, cap):
    """The Dyck prefixes of length 2n."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, list(paths.enumerate_prefixes(2 * n))


def _s123(max_n, cap):
    """S_m(123), with the odd class C_2m+1(123) it should lift onto."""
    for m in range(min(max_n, oracle.GENERAL_MAX_LENGTH - 1, cap // 2) + 1):
        odd = _oracle_members(2 * m + 1, centrosymmetric=True, avoid=(1, 2, 3))
        yield m, (_oracle_members(m, avoid=(1, 2, 3)), {p.values for p in odd})


def _centro_count(m, members):
    if m % 2 == 0:
        n = m // 2
        ok = len(members) == 2**n * factorial(n)
        yield "" if ok else f"|C_{m}| = {len(members)}"


def _count_123(m, members):
    want = comb(m, m // 2)
    ok = len(members) == want
    yield "" if ok else f"|C_{m}(123)| = {len(members)}, expected {want}"


def _count_132(m, members):
    if m % 2 == 0:
        want = 2 ** (m // 2)
        ok = len(members) == want
        yield "" if ok else f"|C_{m}(132)| = {len(members)}, expected {want}"


def _mirror_descents(m, members):
    for p in members:
        dset = set(perms.descent_set(p))
        ok = all((m - i) in dset for i in dset)
        yield "" if ok else f"asymmetric descent set for {p}"


def _descents_from_half(m, members):
    if m % 2 == 0:
        for p in members:
            ok = perms.descents_from_half(p) == perms.descent_count(p)
            yield "" if ok else f"half-word descent count wrong for {p}"


def _minima_decomposition(m, members):
    for p in members:
        dec = perms.minima_decomposition(p)
        flags = dec.tiny_flags
        rebuilt = []
        for x, w in dec.blocks:
            rebuilt.append(x)
            rebuilt.extend(w)
        if any(a and not b for a, b in zip(flags, flags[1:])):
            yield f"tiny flags not monotone for {p}"
        elif tuple(rebuilt) != perms.left_half_word(p):
            yield f"decomposition does not reassemble for {p}"
        else:
            yield ""


def _prefix_count(m, prefixes):
    ok = len(prefixes) == comb(m, m // 2)
    yield "" if ok else f"{len(prefixes)} prefixes of length {m}"


def _dyck_count(m, prefixes):
    got = sum(1 for p in prefixes if p.is_dyck_path)
    ok = got == comb(m, m // 2) // (m // 2 + 1)
    yield "" if ok else f"{got} Dyck paths of length {m}"


def _classification(m, prefixes):
    for p in prefixes:
        c = paths.classify(p)
        kinds = (c.is_dyck_path, c.is_elevated and not c.is_dyck_path)
        if c.kind == "composite":
            if any(kinds) or c.split is None:
                yield f"bad composite classification for {p}"
                continue
            left, right = c.split
            if left.steps + right.steps != p.steps:
                yield f"split does not reassemble {p}"
            elif not left.is_dyck_path or left.final_height != 0:
                yield f"split left part not Dyck for {p}"
            elif right.returns != 0 or not right.steps:
                yield f"split right part returns to 0 for {p}"
            else:
                yield ""
        elif c.kind == "dyck" and not p.is_dyck_path:
            yield f"non-Dyck classified dyck: {p}"
        elif c.kind == "elevated-proper" and (p.is_dyck_path or p.returns != 0):
            yield f"bad elevated-proper: {p}"
        else:
            yield ""


def _heights(m, prefixes):
    for p in prefixes:
        h = p.heights()
        if h[-1] != p.final_height or min(h) < 0:
            yield f"height bookkeeping wrong for {p}"
        elif sum(1 for v in h[1:] if v == 0) != p.returns:
            yield f"return count wrong for {p}"
        else:
            yield ""


def _round_trip_paths(m, prefixes):
    seen = set()
    for path in prefixes:
        p = bijection.phi_inverse(path)
        seen.add(p.values)
        ok = bijection.phi(p).steps == path.steps
        yield "" if ok else f"phi(phi_inverse({path.steps})) differs"
    if len(seen) != comb(m, m // 2):
        yield Whole(f"phi_inverse not injective at 2n = {m}")


def _round_trip_members(m, members):
    for p in members:
        ok = bijection.phi_inverse(bijection.phi(p)) == p
        yield "" if ok else f"phi_inverse(phi({p})) differs"


def _structural_generator(m, members):
    structural = {p.values for p in bijection.generate_c123_structural(m)}
    ok = structural == {p.values for p in members}
    yield "" if ok else f"structural generator mismatch at 2n = {m}"


def _final_height(m, members):
    for p in members:
        tiny = sum(perms.minima_decomposition(p).tiny_flags)
        path = bijection.phi(p)
        half_high = all(v > m // 2 for v in perms.left_half_word(p))
        if path.final_height != 2 * tiny:
            yield f"final height != 2 tiny for {p}"
        elif path.is_dyck_path != (tiny == 0) or (tiny == 0) != half_high:
            yield f"Dyck iff no tiny iff high half fails for {p}"
        else:
            yield ""


def _components_vs_returns(m, members):
    for p in members:
        try:
            bijection.components_vs_returns(p)
        except bijection.VerificationError as exc:
            yield str(exc)
        else:
            yield ""


def _dyck_descents(m, members):
    for p in members:
        path = bijection.phi(p)
        if path.is_dyck_path:
            want = 2 * (path.triple_falls + path.valleys) + 1 if m else 0
            ok = perms.descent_count(p) == want
            yield "" if ok else f"descent formula fails for {p}"


def _block_heights(m, members):
    for p in members:
        trace = bijection.phi_trace(p)
        if trace.predicted_heights is not None:
            ok = trace.predicted_heights == trace.block_heights()
            yield "" if ok else f"predicted heights differ for {p}"


def _composite_split(m, members):
    for p in members:
        c = paths.classify(bijection.phi(p))
        if c.split is None:
            continue
        dyck_part, proper_part = c.split
        a = len(dyck_part) // 2
        middle = p.values[a : m - a]
        ends = p.values[:a] + p.values[m - a :]
        inner = bijection.phi_inverse(proper_part)
        outer = bijection.phi_inverse(dyck_part)
        if (
            perms.rank_within(middle, tuple(sorted(middle))) != inner.values
            or perms.rank_within(ends, tuple(sorted(ends))) != outer.values
        ):
            yield f"composite split structure fails for {p}"
        elif perms.descent_count(p) != (
            perms.descent_count(inner) + perms.descent_count(outer) + 1
        ):
            yield f"composite descent offset fails for {p}"
        else:
            yield ""


def _odd_123(m, group):
    alphas, odd_members = group
    image = set()
    for alpha in alphas:
        lifted = bijection.odd_embed(alpha)
        image.add(lifted.values)
        want = 2 * perms.descent_count(alpha) + 2 if m else 0
        if bijection.odd_project(lifted) != alpha:
            yield f"odd round trip fails for {alpha}"
        elif perms.descent_count(lifted) != want:
            yield f"odd descent transfer fails for {alpha}"
        else:
            yield ""
    if image != odd_members:
        yield Whole(f"odd embedding not onto at length {2 * m + 1}")


def _generator_132(m, members):
    ok = {p.values for p in bijection.generate_c132(m)} == {p.values for p in members}
    yield "" if ok else f"132 generator mismatch at length {m}"


# series checks take (max_n, cap, seed, notes); notes collects expected
# paper discrepancies


def _t_rows(max_n, cap, seed, notes):
    t_table = tables.descent_tables("recurrence", ("t",), max_n)["t"]
    for n in range(min(max_n, len(T_ROWS_FROZEN) - 1) + 1):
        ok = tuple(t_table.rows[n]) == tables._trim_row(T_ROWS_FROZEN[n])
        yield "" if ok else f"t row {n} = {t_table.rows[n]}"


def _row_sums(max_n, cap, seed, notes):
    rec = tables.descent_tables("recurrence", ("t", "q", "v"), max_n)
    for n in range(max_n + 1):
        row_sum = sum(rec["t"].rows[n])
        yield "" if row_sum == comb(2 * n, n) else f"t row {n} sums to {row_sum}"
        row_sum = sum(rec["q"].rows[n])
        yield "" if row_sum == 2**n else f"q row {n} sums to {row_sum}"
        bad = [
            d
            for d, c in enumerate(rec["v"].rows[n])
            if c and (d % 2 or (d == 0 and n >= 1))
        ]
        yield f"v row {n} nonzero at d = {bad[0]}" if bad else ""


def _three_routes(max_n, cap, seed, notes):
    # every table cell against the oracle (through n = cap // 2) and the
    # series; a series mismatch on a known discrepancy is a note
    oracle_max_n = min(max_n, cap // 2)
    sizes = (("recurrence", max_n), ("series", max_n), ("oracle", oracle_max_n))
    routes = [tables.descent_tables(s, tables.FAMILIES, m) for s, m in sizes]
    for family in tables.FAMILIES:
        table, ser, orc = (route[family] for route in routes)
        for n in range(max_n + 1):
            width = max(
                len(table.rows[n]),
                len(ser.rows[n]),
                len(orc.rows[n]) if n <= oracle_max_n else 0,
            )
            for d in range(width):
                want = table.cell(n, d)
                if n <= oracle_max_n:
                    got = orc.cell(n, d)
                    yield "" if got == want else (
                        f"{family}[{n}][{d}]: table {want} vs oracle {got}"
                    )
                got = ser.cell(n, d)
                if got == want:
                    yield ""
                    continue
                message = f"{family}[{n}][{d}]: table {want} vs series {got}"
                reason = tables.known_series_discrepancy(family, n, d)
                if reason is None:
                    yield message
                else:
                    notes.append(f"{message} ({reason})")
                    yield ""


def _random_integral_series(rng, order):
    terms = []
    for i in range(order + 1):
        for j in range(2 * i + 2):
            if rng.random() < 0.4:
                terms.append((i, j, rng.randint(-4, 4)))
    return BivariateSeries.one(order) + BivariateSeries.from_terms(
        order, [(i, j, c) for i, j, c in terms if i > 0]
    )


def _series_arithmetic(max_n, cap, seed, notes):
    rng = random.Random(seed)
    order = max(max_n, 2)
    for trial in range(25):
        a = _random_integral_series(rng, order)
        b = _random_integral_series(rng, order)
        ok = (a * b) == (b * a)
        yield "" if ok else f"multiplication not commutative (trial {trial})"
        ok = (a / b) * b == a
        yield "" if ok else f"division round trip fails (trial {trial})"
        ok = (a * a).sqrt() == a
        yield "" if ok else f"sqrt(a^2) != a (trial {trial})"


def _catalan_series(max_n, cap, seed, notes):
    disc = BivariateSeries.from_terms(max(max_n, 2), [(0, 0, 1), (1, 0, -4)])
    catalan = (1 - disc.sqrt()).div_x(1) / 2
    for m, prefixes in _prefixes(min(catalan.order, 10), cap):
        n = m // 2
        coeff = catalan.coefficient(n, 0)
        counted = sum(1 for p in prefixes if p.is_dyck_path)
        ok = coeff == counted == comb(m, n) // (n + 1)
        yield "" if ok else f"Catalan coefficient {n} = {coeff}"


def _series_identities(max_n, cap, seed, notes):
    order = max(max_n, 2)
    named = NamedSeries(order)
    v, k, ck, s, t = (named[name] for name in ("V", "K", "CK", "S", "T"))
    e_sub = named["E"].substitute_y_squared()
    identity = 1 + (e_sub - 1).mul_term(0, 2, 1)
    yield "" if v == identity else "V != 1 + y^2 (E(x, y^2) - 1)"
    ok = k == ck + ((ck - 1) * (k - 1)).mul_term(0, 1, 1)
    yield "" if ok else "K != CK + y (CK - 1)(K - 1)"
    zero = BivariateSeries.from_terms(order, [])
    poly = BivariateSeries.from_terms
    km1 = k - 1
    quadratic = (
        km1 * km1 * poly(order, [(1, 3, 1), (2, 5, -1), (2, 3, 1)])
        + km1 * poly(order, [(1, 2, 2), (2, 2, 2), (2, 4, -2), (0, 0, -1)])
        + poly(order, [(1, 1, 1), (2, 3, -1), (2, 1, 1)])
    )
    yield "" if quadratic == zero else "quadratic relation for K fails"
    composite = k + s - 1 + ((k - 1) * (s - 1)).mul_term(0, 1, 1)
    yield "" if t == composite else "T != K + S - 1 + y (K - 1)(S - 1)"
    s_relation = (
        1
        + BivariateSeries.from_terms(order, [(1, 0, 1)])
        + (t - 1).mul_term(1, 1, 1)
        + t.mul_term(1, 2, 1)
        - k.mul_term(1, 2, 1)
    )
    yield "" if s == s_relation else "S linear relation in T and K fails"


CHECKS = (
    ("perm", "centrosymmetric count 2^n n!", _centro, _centro_count),
    ("perm", "123-avoiding count C(2n, n)", _c123_oracle, _count_123),
    ("perm", "132-avoiding count 2^n", _c132, _count_132),
    ("perm", "mirror-symmetric descent sets", _centro, _mirror_descents),
    ("perm", "descents recoverable from the first half", _centro,
     _descents_from_half),
    ("perm", "minima decomposition well formed", _c123, _minima_decomposition),
    ("path", "prefix count C(2n, n)", _prefixes, _prefix_count),
    ("path", "Dyck path count Catalan(n)", _prefixes, _dyck_count),
    ("path", "classification trichotomy and split", _prefixes, _classification),
    ("path", "heights, final height, returns agree", _prefixes, _heights),
    ("bijection", "round trip path -> member -> path", _prefixes,
     _round_trip_paths),
    ("bijection", "round trip member -> path -> member", _c123,
     _round_trip_members),
    ("bijection", "structural generator matches inverse image", _c123,
     _structural_generator),
    ("bijection", "final height 2#tiny; Dyck iff no tiny minima", _c123,
     _final_height),
    ("bijection", "right components track path returns", _c123,
     _components_vs_returns),
    ("bijection", "Dyck-class descents from valleys and triple falls", _c123,
     _dyck_descents),
    ("bijection", "per-block height formulas (no tiny minima)", _c123,
     _block_heights),
    ("bijection", "composite members factor at the last return", _c123,
     _composite_split),
    ("bijection", "odd 123 class is the lifted image of S_n(123)", _s123,
     _odd_123),
    ("bijection", "132 structural generator matches brute force", _c132,
     _generator_132),
    ("series", "t table matches the published rows", None, _t_rows),
    ("series", "row sums and parity constraints", None, _row_sums),
    ("series", "recurrence vs series vs brute force, all families", None,
     _three_routes),
    ("series", "series arithmetic round trips (randomized)", None,
     _series_arithmetic),
    ("series", "generating function for Dyck path counts", None, _catalan_series),
    ("series", "named series identities", None, _series_identities),
)


def run_checks(entries, max_n, cap, seed, reports):
    """Append the Check of each catalogue entry to reports[its suite].

    Each domain of the entries is walked once, one length at a time, and
    every group goes to each entry on that domain.
    """
    checks = {entry: Check(entry[1], True) for entry in entries}
    for domain in dict.fromkeys(entry[2] for entry in entries if entry[2]):
        on_domain = [entry for entry in entries if entry[2] is domain]
        for size, members in domain(max_n, cap):
            for entry in on_domain:
                checks[entry].tally(entry[3](size, members))
    for entry in entries:
        suite, _, domain, fn = entry
        if domain is None:
            checks[entry].tally(fn(max_n, cap, seed, reports[suite].notes))
        reports[suite].checks.append(checks[entry])


def run_suite(suite: str, max_n: int, seed: int = 0) -> list:
    """Run one suite (or all of them); returns a list of SuiteReport."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {SUITES})")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cap = oracle.length_cap(DEFAULT_SUITE_LENGTH)
    entries = [entry for entry in CHECKS if suite in ("all", entry[0])]
    reports = {entry[0]: SuiteReport(entry[0], max_n) for entry in entries}
    run_checks(entries, max_n, cap, seed, reports)
    return list(reports.values())
