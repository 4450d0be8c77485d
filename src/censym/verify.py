"""Verification suites: perm, path, bijection, series, all.

Each invariant is one entry of ``CHECKS``, which both ``run_suite`` and
the tests run over exhaustive ranges; reports give per-check counts with
the first counterexample on failure.  Known printed-form discrepancies
are listed separately and never fail a run.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from . import bijection, oracle, paths, perms, tables
from .series import BivariateSeries, build_named_series

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


@dataclass
class Check:
    name: str
    passed: bool
    count: int = 0
    detail: str = ""

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

    def add(self, name, failures, count):
        """failures is a list of counterexample strings; first one is shown."""
        self.checks.append(
            Check(name, not failures, count, failures[0] if failures else "")
        )

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


# A check takes (max_n, cap, seed, notes): the size bound, the even length
# where exhaustive enumeration stops, the seed of the randomized check and
# a list for expected paper discrepancies.  It returns (failures, count).


def _centro_count(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        spec = oracle.ClassSpec(2 * n, centrosymmetric=True)
        members = list(oracle.enumerate_class(spec))
        if len(members) != 2**n * factorial(n):
            failures.append(f"|C_{2 * n}| = {len(members)}")
        count += 1
    return failures, count


def _count_123(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        got = sum(
            1
            for _ in oracle.enumerate_class(
                oracle.ClassSpec(2 * n, centrosymmetric=True, avoid=(1, 2, 3))
            )
        )
        if got != comb(2 * n, n):
            failures.append(f"|C_{2 * n}(123)| = {got}, expected {comb(2 * n, n)}")
        count += 1
    return failures, count


def _count_132(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        got = sum(
            1
            for _ in oracle.enumerate_class(
                oracle.ClassSpec(2 * n, centrosymmetric=True, avoid=(1, 3, 2))
            )
        )
        if got != 2**n:
            failures.append(f"|C_{2 * n}(132)| = {got}, expected {2 ** n}")
        count += 1
    return failures, count


def _mirror_descents(max_n, cap, seed, notes):
    failures, count = [], 0
    for m in range(min(2 * max_n, cap) + 1):
        for p in oracle.enumerate_class(oracle.ClassSpec(m, centrosymmetric=True)):
            dset = set(perms.descent_set(p))
            if any((m - i) not in dset for i in dset):
                failures.append(f"asymmetric descent set for {p}")
            count += 1
    return failures, count


def _descents_from_half(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in oracle.enumerate_class(
            oracle.ClassSpec(2 * n, centrosymmetric=True)
        ):
            if perms.descents_from_half(p) != perms.descent_count(p):
                failures.append(f"half-word descent count wrong for {p}")
            count += 1
    return failures, count


def _minima_decomposition(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            dec = perms.minima_decomposition(p)
            flags = dec.tiny_flags
            if any(a and not b for a, b in zip(flags, flags[1:])):
                failures.append(f"tiny flags not monotone for {p}")
            rebuilt = []
            for x, w in dec.blocks:
                rebuilt.append(x)
                rebuilt.extend(w)
            if tuple(rebuilt) != perms.left_half_word(p):
                failures.append(f"decomposition does not reassemble for {p}")
            count += 1
    return failures, count


def _prefix_count(max_n, cap, seed, notes):
    failures, count = [], 0
    for m in range(0, min(2 * max_n, cap) + 1, 2):
        got = sum(1 for _ in paths.enumerate_prefixes(m))
        if got != comb(m, m // 2):
            failures.append(f"{got} prefixes of length {m}")
        count += 1
    return failures, count


def _dyck_count(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        got = sum(
            1 for p in paths.enumerate_prefixes(2 * n) if p.is_dyck_path
        )
        catalan = comb(2 * n, n) // (n + 1)
        if got != catalan:
            failures.append(f"{got} Dyck paths of length {2 * n}")
        count += 1
    return failures, count


def _classification(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in paths.enumerate_prefixes(2 * n):
            c = paths.classify(p)
            kinds = (c.is_dyck_path, c.is_elevated and not c.is_dyck_path)
            if c.kind == "composite":
                if any(kinds) or c.split is None:
                    failures.append(f"bad composite classification for {p}")
                    count += 1
                    continue
                left, right = c.split
                if left.steps + right.steps != p.steps:
                    failures.append(f"split does not reassemble {p}")
                elif not left.is_dyck_path or left.final_height != 0:
                    failures.append(f"split left part not Dyck for {p}")
                elif right.returns != 0 or not right.steps:
                    failures.append(f"split right part returns to 0 for {p}")
            elif c.kind == "dyck" and not p.is_dyck_path:
                failures.append(f"non-Dyck classified dyck: {p}")
            elif c.kind == "elevated-proper" and (
                p.is_dyck_path or p.returns != 0
            ):
                failures.append(f"bad elevated-proper: {p}")
            count += 1
    return failures, count


def _heights(max_n, cap, seed, notes):
    failures, count = [], 0
    for m in range(0, min(2 * max_n, cap) + 1, 2):
        for p in paths.enumerate_prefixes(m):
            h = p.heights()
            if h[-1] != p.final_height or min(h) < 0:
                failures.append(f"height bookkeeping wrong for {p}")
            zeros = sum(1 for v in h[1:] if v == 0)
            if zeros != p.returns:
                failures.append(f"return count wrong for {p}")
            count += 1
    return failures, count


def _round_trip_paths(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        seen = set()
        for path in paths.enumerate_prefixes(2 * n):
            p = bijection.phi_inverse(path)
            if bijection.phi(p).steps != path.steps:
                failures.append(f"phi(phi_inverse({path.steps})) differs")
            seen.add(p.values)
            count += 1
        if len(seen) != comb(2 * n, n):
            failures.append(f"phi_inverse not injective at 2n = {2 * n}")
    return failures, count


def _round_trip_members(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            path = bijection.phi(p)
            if bijection.phi_inverse(path) != p:
                failures.append(f"phi_inverse(phi({p})) differs")
            count += 1
    return failures, count


def _structural_generator(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        structural = {p.values for p in bijection.generate_c123_structural(2 * n)}
        via_paths = {p.values for p in bijection.generate_c123_even(2 * n)}
        if structural != via_paths:
            failures.append(f"structural generator mismatch at 2n = {2 * n}")
        count += 1
    return failures, count


def _final_height(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            dec = perms.minima_decomposition(p)
            path = bijection.phi(p)
            tiny = sum(dec.tiny_flags)
            if path.final_height != 2 * tiny:
                failures.append(f"final height != 2 tiny for {p}")
            no_tiny = tiny == 0
            half_high = all(v > n for v in perms.left_half_word(p))
            if path.is_dyck_path != no_tiny or no_tiny != half_high:
                failures.append(f"Dyck iff no tiny iff high half fails for {p}")
            count += 1
    return failures, count


def _components_vs_returns(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            try:
                bijection.components_vs_returns(p)
            except bijection.VerificationError as exc:
                failures.append(str(exc))
            count += 1
    return failures, count


def _dyck_descents(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            path = bijection.phi(p)
            if not path.is_dyck_path:
                continue
            want = 2 * (path.triple_falls + path.valleys) + 1 if len(p) else 0
            if perms.descent_count(p) != want:
                failures.append(f"descent formula fails for {p}")
            count += 1
    return failures, count


def _block_heights(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            trace = bijection.phi_trace(p)
            if trace.predicted_heights is None:
                continue
            if trace.predicted_heights != trace.block_heights():
                failures.append(f"predicted heights differ for {p}")
            count += 1
    return failures, count


def _composite_split(max_n, cap, seed, notes):
    failures, count = [], 0
    for n in range(min(max_n, cap // 2) + 1):
        for p in bijection.generate_c123_even(2 * n):
            c = paths.classify(bijection.phi(p))
            if c.split is None:
                continue
            dyck_part, proper_part = c.split
            a = len(dyck_part) // 2
            middle = p.values[a : len(p) - a]
            ends = p.values[:a] + p.values[len(p) - a :]
            tau_mid = perms.rank_within(middle, tuple(sorted(middle)))
            tau_ends = perms.rank_within(ends, tuple(sorted(ends)))
            inner = bijection.phi_inverse(proper_part)
            outer = bijection.phi_inverse(dyck_part)
            if tau_mid != inner.values or tau_ends != outer.values:
                failures.append(f"composite split structure fails for {p}")
            want = perms.descent_count(inner) + perms.descent_count(outer) + 1
            if perms.descent_count(p) != want:
                failures.append(f"composite descent offset fails for {p}")
            count += 1
    return failures, count


def _odd_123(max_n, cap, seed, notes):
    failures, count = [], 0
    for m in range(min(max_n, oracle.GENERAL_MAX_LENGTH - 1, cap // 2) + 1):
        odd_members = {
            p.values
            for p in oracle.enumerate_class(
                oracle.ClassSpec(2 * m + 1, centrosymmetric=True, avoid=(1, 2, 3))
            )
        }
        image = set()
        for alpha in oracle.enumerate_class(oracle.ClassSpec(m, avoid=(1, 2, 3))):
            lifted = bijection.odd_embed(alpha)
            if bijection.odd_project(lifted) != alpha:
                failures.append(f"odd round trip fails for {alpha}")
            d_alpha = perms.descent_count(alpha)
            want = 2 * d_alpha + 2 if len(alpha) else 0
            if perms.descent_count(lifted) != want:
                failures.append(f"odd descent transfer fails for {alpha}")
            image.add(lifted.values)
            count += 1
        if image != odd_members:
            failures.append(f"odd embedding not onto at length {2 * m + 1}")
    return failures, count


def _generator_132(max_n, cap, seed, notes):
    failures, count = [], 0
    for m in range(2 * min(max_n, cap // 2) + 1):
        built = {p.values for p in bijection.generate_c132(m)}
        brute = {
            p.values
            for p in oracle.enumerate_class(
                oracle.ClassSpec(m, centrosymmetric=True, avoid=(1, 3, 2))
            )
        }
        if built != brute:
            failures.append(f"132 generator mismatch at length {m}")
        count += 1
    return failures, count


def _t_rows(max_n, cap, seed, notes):
    failures, count = [], 0
    t_table = tables.build_table("t", max_n)
    for n in range(min(max_n, len(T_ROWS_FROZEN) - 1) + 1):
        if tuple(t_table.rows[n]) != tables._trim_row(T_ROWS_FROZEN[n]):
            failures.append(f"t row {n} = {t_table.rows[n]}")
        count += 1
    return failures, count


def _row_sums(max_n, cap, seed, notes):
    failures, count = [], 0
    t_table = tables.build_table("t", max_n)
    q_table = tables.build_table("q", max_n)
    v_table = tables.build_table("v", max_n)
    for n in range(max_n + 1):
        row_sum = sum(t_table.rows[n])
        if row_sum != comb(2 * n, n):
            failures.append(f"t row {n} sums to {row_sum}")
        if sum(q_table.rows[n]) != 2**n:
            failures.append(f"q row {n} sums to {sum(q_table.rows[n])}")
        bad = [
            d
            for d, c in enumerate(v_table.rows[n])
            if c and (d % 2 or (d == 0 and n >= 1))
        ]
        if bad:
            failures.append(f"v row {n} nonzero at d = {bad[0]}")
        count += 3
    return failures, count


def _three_routes(max_n, cap, seed, notes):
    checked = tables.cross_check(max_n, oracle_max_n=min(max_n, cap // 2))
    notes.extend(checked.discrepancies)
    return checked.failures, checked.cells_checked


def _random_integral_series(rng, order):
    terms = []
    for i in range(order + 1):
        for j in range(2 * i + 2):
            if rng.random() < 0.4:
                terms.append((i, j, Fraction(rng.randint(-4, 4))))
    return BivariateSeries.one(order) + BivariateSeries.from_terms(
        order, [(i, j, c) for i, j, c in terms if i > 0]
    )


def _series_arithmetic(max_n, cap, seed, notes):
    failures, count = [], 0
    rng = random.Random(seed)
    order = max(max_n, 2)
    for trial in range(25):
        a = _random_integral_series(rng, order)
        b = _random_integral_series(rng, order)
        if (a * b) != (b * a):
            failures.append(f"multiplication not commutative (trial {trial})")
        if (a / b) * b != a:
            failures.append(f"division round trip fails (trial {trial})")
        if (a * a).sqrt() != a:
            failures.append(f"sqrt(a^2) != a (trial {trial})")
        count += 3
    return failures, count


def _catalan_series(max_n, cap, seed, notes):
    failures, count = [], 0
    disc = BivariateSeries.from_terms(max(max_n, 2), [(0, 0, 1), (1, 0, -4)])
    catalan = (1 - disc.sqrt()).div_x(1).scale(Fraction(1, 2))
    for n in range(min(catalan.order, cap // 2, 10) + 1):
        coeff = catalan.coefficient(n, 0)
        counted = sum(
            1 for p in paths.enumerate_prefixes(2 * n) if p.is_dyck_path
        )
        if coeff != counted or coeff != comb(2 * n, n) // (n + 1):
            failures.append(f"Catalan coefficient {n} = {coeff}")
        count += 1
    return failures, count


def _series_identities(max_n, cap, seed, notes):
    failures, count = [], 0
    order = max(max_n, 2)
    v = build_named_series("V", order)
    e_sub = build_named_series("E", order).substitute_y_squared()
    identity = 1 + (e_sub - 1).mul_term(0, 2, 1)
    if v != identity:
        failures.append("V != 1 + y^2 (E(x, y^2) - 1)")
    count += 1
    k = build_named_series("K", order)
    ck = build_named_series("CK", order)
    s = build_named_series("S", order)
    t = build_named_series("T", order)
    if k != ck + ((ck - 1) * (k - 1)).mul_term(0, 1, 1):
        failures.append("K != CK + y (CK - 1)(K - 1)")
    count += 1
    zero = BivariateSeries.from_terms(order, [])
    poly = BivariateSeries.from_terms
    km1 = k - 1
    quadratic = (
        km1 * km1 * poly(order, [(1, 3, 1), (2, 5, -1), (2, 3, 1)])
        + km1 * poly(order, [(1, 2, 2), (2, 2, 2), (2, 4, -2), (0, 0, -1)])
        + poly(order, [(1, 1, 1), (2, 3, -1), (2, 1, 1)])
    )
    if quadratic != zero:
        failures.append("quadratic relation for K fails")
    count += 1
    composite = k + s - 1 + ((k - 1) * (s - 1)).mul_term(0, 1, 1)
    if t != composite:
        failures.append("T != K + S - 1 + y (K - 1)(S - 1)")
    count += 1
    s_relation = (
        1
        + BivariateSeries.from_terms(order, [(1, 0, 1)])
        + (t - 1).mul_term(1, 1, 1)
        + t.mul_term(1, 2, 1)
        - k.mul_term(1, 2, 1)
    )
    if s != s_relation:
        failures.append("S linear relation in T and K fails")
    count += 1
    return failures, count


CHECKS = (
    ("perm", "centrosymmetric count 2^n n!", _centro_count),
    ("perm", "123-avoiding count C(2n, n)", _count_123),
    ("perm", "132-avoiding count 2^n", _count_132),
    ("perm", "mirror-symmetric descent sets", _mirror_descents),
    ("perm", "descents recoverable from the first half", _descents_from_half),
    ("perm", "minima decomposition well formed", _minima_decomposition),
    ("path", "prefix count C(2n, n)", _prefix_count),
    ("path", "Dyck path count Catalan(n)", _dyck_count),
    ("path", "classification trichotomy and split", _classification),
    ("path", "heights, final height, returns agree", _heights),
    ("bijection", "round trip path -> member -> path", _round_trip_paths),
    ("bijection", "round trip member -> path -> member", _round_trip_members),
    ("bijection", "structural generator matches inverse image", _structural_generator),
    ("bijection", "final height 2#tiny; Dyck iff no tiny minima", _final_height),
    ("bijection", "right components track path returns", _components_vs_returns),
    ("bijection", "Dyck-class descents from valleys and triple falls", _dyck_descents),
    ("bijection", "per-block height formulas (no tiny minima)", _block_heights),
    ("bijection", "composite members factor at the last return", _composite_split),
    ("bijection", "odd 123 class is the lifted image of S_n(123)", _odd_123),
    ("bijection", "132 structural generator matches brute force", _generator_132),
    ("series", "t table matches the published rows", _t_rows),
    ("series", "row sums and parity constraints", _row_sums),
    ("series", "recurrence vs series vs brute force, all families", _three_routes),
    ("series", "series arithmetic round trips (randomized)", _series_arithmetic),
    ("series", "generating function for Dyck path counts", _catalan_series),
    ("series", "named series identities", _series_identities),
)


def run_suite(suite: str, max_n: int, seed: int = 0) -> list:
    """Run one suite (or all of them); returns a list of SuiteReport."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from {SUITES})")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cap = oracle.length_cap(DEFAULT_SUITE_LENGTH)
    reports = {}
    for check_suite, name, fn in CHECKS:
        if suite in ("all", check_suite):
            report = reports.setdefault(check_suite, SuiteReport(check_suite, max_n))
            report.add(name, *fn(max_n, cap, seed, report.notes))
    return list(reports.values())
