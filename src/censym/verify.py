"""Verification suites: perm, path, bijection, series, all.

Each invariant is one entry of ``CHECKS``, which both ``run_suite`` and
the tests run through ``run_checks``; reports give per-check counts with
the first counterexample on failure.  Known printed-form discrepancies
are listed separately and never fail a run.

An entry is (suite, name, domain, check).  A domain is given the size
bound, the even length where enumeration stops and the seed, and yields
(size, batches) pairs: the group of one size, as batches.  A member
domain, such as all of C_m or the Dyck prefixes, streams the members of
each length in lists of at most ``BATCH``, so no length is ever held
whole.  ``_c123`` streams C_2n(123) as one record per Dyck prefix of
length 2n, (path, member, image, trace): the member is
phi_inverse(path), the image phi(member) and the trace
phi_trace(member), the member's minima decomposition block by block.
Each record is built once, and every check on the domain reads it
rather than calling phi or phi_trace itself.  The other domains yield
each group as a single batch:
``_s123`` S_m(123) with its odd class, ``_routes`` every family's table
by each route, and ``_run`` the run's cap and seed for the checks that
build their own inputs.

A check is a generator function of the size.  It asks for the next batch
with a bare ``yield``, and ``run_checks`` sends it one, or None once the
group is done; before it asks again, it yields one verdict per case of
the batch: "" when the case holds, the counterexample when it does not.
A check on the group as a whole keeps a running count or set across the
batches, as those that ``_count`` and ``_same_set`` build do, and yields
its verdict once it is sent None.  A check with no cases at some size,
such as one on even lengths only, may end before its group does.  A
``Whole`` verdict fails the group as a whole and counts no case; a
``Note`` verdict is a passing case that records a known paper
discrepancy.  ``run_checks`` walks each domain once per run, one batch
at a time, and sends every batch to each selected check on that domain.
"""

from itertools import chain, islice, zip_longest
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


class Note(str):
    """A passing case that a known paper discrepancy explains."""


class Check:
    """One invariant's tally: cases counted, and the first failure's detail."""

    __slots__ = ("name", "passed", "count", "detail")

    def __init__(self, name, passed, count=0, detail=""):
        self.name, self.passed, self.count, self.detail = name, passed, count, detail

    def feed(self, check, batch, notes):
        """Send a running check batch and tally the verdicts it yields up
        to its next request or its end: count each verdict but a Whole
        one, keep the first failure and append each Note to notes."""
        try:
            verdict = check.send(batch)
            while verdict is not None:
                if not verdict:  # a pass; a Whole or Note verdict is never empty
                    self.count += 1
                else:
                    self.count += not isinstance(verdict, Whole)
                    if isinstance(verdict, Note):
                        notes.append(verdict)
                    elif self.passed:
                        self.passed, self.detail = False, verdict
                verdict = next(check)
        except StopIteration:  # the check is done and takes no more batches
            pass

    def render(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.count} checked)"
        if self.detail:
            line += f": {self.detail}"
        return line


class SuiteReport:
    """The checks of one suite and its paper discrepancy notes."""

    __slots__ = ("suite", "max_n", "checks", "notes")

    def __init__(self, suite, max_n, checks=None, notes=None):
        self.suite, self.max_n = suite, max_n
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

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


# members a member domain holds at once; from 256 up, the time per member
# does not measurably change with the batch size
BATCH = 1024


def _batches(members):
    """The members, an iterator, in lists of at most BATCH."""
    return iter(lambda: list(islice(members, BATCH)), [])


def _oracle(length, **spec):
    return _batches(oracle.enumerate_class(oracle.ClassSpec(length, **spec)))


def _centro(max_n, cap, seed):
    """All of C_m."""
    for m in range(min(2 * max_n, cap) + 1):
        yield m, _oracle(m, centrosymmetric=True)


def _c123(max_n, cap, seed):
    """C_2n(123) as the preimages of the Dyck prefixes under phi, one
    (path, member, image, trace) record a prefix."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, _batches(map(_c123_record, paths.enumerate_prefixes(2 * n)))


class _Record(tuple):
    """(path, member, image, trace); a set check reads its member's values."""

    __slots__ = ()
    values = property(lambda record: record[1].values)


def _c123_record(path):
    p = bijection.phi_inverse(path)
    return _Record((path, p, bijection.phi(p), bijection.phi_trace(p)))


def _c123_oracle(max_n, cap, seed):
    """C_2n(123) by brute force."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, _oracle(2 * n, centrosymmetric=True, avoid=(1, 2, 3))


def _c132(max_n, cap, seed):
    """C_m(132) by brute force."""
    for m in range(2 * min(max_n, cap // 2) + 1):
        yield m, _oracle(m, centrosymmetric=True, avoid=(1, 3, 2))


def _prefixes(max_n, cap, seed):
    """The Dyck prefixes of length 2n."""
    for n in range(min(max_n, cap // 2) + 1):
        yield 2 * n, _batches(paths.enumerate_prefixes(2 * n))


def _s123(max_n, cap, seed):
    """S_m(123), with the odd class C_2m+1(123) it should lift onto."""
    for m in range(min(max_n, oracle.GENERAL_MAX_LENGTH - 1, cap // 2) + 1):
        alphas = list(oracle.enumerate_class(oracle.ClassSpec(m, avoid=(1, 2, 3))))
        odd = oracle.ClassSpec(2 * m + 1, centrosymmetric=True, avoid=(1, 2, 3))
        yield m, [(alphas, {p.values for p in oracle.enumerate_class(odd)})]


def _routes(max_n, cap, seed):
    """Every family's table by each route, as (route, tables, the max n
    they are built to); the oracle's stop at n = cap // 2."""
    sizes = (("recurrence", max_n), ("series", max_n), ("oracle", min(max_n, cap // 2)))
    yield max_n, [
        [(s, tables.descent_tables(s, tables.FAMILIES, m), m) for s, m in sizes]
    ]


def _run(max_n, cap, seed):
    """The run's cap and seed, for the checks that build their own inputs."""
    yield max_n, [(cap, seed)]


def _count(want, message):
    """The check that counts a group of even size m = 2n and compares the
    count with the closed form want(n); a group of odd size has no case.
    Its failure is message, formatted with m, count and want."""

    def check(m):
        count = 0
        while (members := (yield)) is not None:
            count += len(members)
        if m % 2 == 0:
            expected = want(m // 2)
            ok = count == expected
            yield "" if ok else message.format(m=m, count=count, want=expected)

    return check


def _same_set(generate, message, reverse=False):
    """The check that compares the value set of a group of size m with
    that of generate(m), called as the check runs, with each member of
    generate(m) reversed when reverse is set.  Its failure is message,
    formatted with m."""

    def check(m):
        values = set()
        while (members := (yield)) is not None:
            values.update(p.values for p in members)
        ok = {p.values[::-1] if reverse else p.values for p in generate(m)} == values
        yield "" if ok else message.format(m=m)

    return check


def _walk(pattern):
    """The generator of C_m(pattern) by brute force, for _same_set."""
    return lambda m: oracle.enumerate_class(
        oracle.ClassSpec(m, centrosymmetric=True, avoid=pattern)
    )


def _mirror_descents(m):
    while (members := (yield)) is not None:
        for p in members:
            d = perms.descent_set(p)
            ok = d == tuple(map(m.__sub__, reversed(d)))
            yield "" if ok else f"asymmetric descent set for {p}"


def _descents_from_half(m):
    while m % 2 == 0 and (members := (yield)) is not None:
        for p in members:
            ok = perms.descents_from_half(p) == perms.descent_count(p)
            yield "" if ok else f"half-word descent count wrong for {p}"


def _minima_blocks(m):
    while (records := (yield)) is not None:
        for _, p, _, trace in records:
            flags = [b.tiny for b in trace.blocks]
            rebuilt = []
            for b in trace.blocks:
                rebuilt.append(b.minimum)
                rebuilt.extend(b.word)
            if any(a and not b for a, b in zip(flags, flags[1:])):
                yield f"tiny flags not monotone for {p}"
            elif tuple(rebuilt) != perms.left_half_word(p):
                yield f"decomposition does not reassemble for {p}"
            else:
                yield ""


def _dyck_count(m):
    got = 0
    while (prefixes := (yield)) is not None:
        got += sum(1 for p in prefixes if p.is_dyck_path)
    ok = got == comb(m, m // 2) // (m // 2 + 1)
    yield "" if ok else f"{got} Dyck paths of length {m}"


def _classification(m):
    while (prefixes := (yield)) is not None:
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


def _heights(m):
    while (prefixes := (yield)) is not None:
        for p in prefixes:
            h = p.heights()
            if h[-1] != p.final_height or min(h) < 0:
                yield f"height bookkeeping wrong for {p}"
            elif sum(1 for v in h[1:] if v == 0) != p.returns:
                yield f"return count wrong for {p}"
            else:
                yield ""


def _round_trip_paths(m):
    seen = set()
    while (records := (yield)) is not None:
        for path, p, image, _ in records:
            seen.add(p.values)
            ok = image.steps == path.steps
            yield "" if ok else f"phi(phi_inverse({path.steps})) differs"
    if len(seen) != comb(m, m // 2):
        yield Whole(f"phi_inverse not injective at 2n = {m}")


def _round_trip_members(m):
    while (records := (yield)) is not None:
        for _, p, image, _ in records:
            ok = bijection.phi_inverse(image) == p
            yield "" if ok else f"phi_inverse(phi({p})) differs"


def _final_height(m):
    while (records := (yield)) is not None:
        for _, p, image, trace in records:
            tiny = sum(b.tiny for b in trace.blocks)
            half_high = all(v > m // 2 for v in perms.left_half_word(p))
            if image.final_height != 2 * tiny:
                yield f"final height != 2 tiny for {p}"
            elif image.is_dyck_path != (tiny == 0) or (tiny == 0) != half_high:
                yield f"Dyck iff no tiny iff high half fails for {p}"
            else:
                yield ""


def _components_vs_returns(m):
    """Right components number twice the returns of phi(p), plus one
    when phi(p) is not a Dyck path."""
    while (records := (yield)) is not None:
        for _, p, image, _ in records:
            components = len(perms.right_connected_components(p))
            expected = 2 * image.returns + (not image.is_dyck_path)
            yield "" if components == expected else (
                f"component/return relation failed for {p}: "
                f"{components} components vs {expected} expected"
            )


def _dyck_descents(m):
    while (records := (yield)) is not None:
        for _, p, image, _ in records:
            if image.is_dyck_path:
                want = 2 * (image.triple_falls + image.valleys) + 1 if m else 0
                ok = perms.descent_count(p) == want
                yield "" if ok else f"descent formula fails for {p}"


def _block_heights(m):
    while (records := (yield)) is not None:
        for _, p, _, trace in records:
            if trace.predicted_heights is not None:
                ok = trace.predicted_heights == trace.block_heights()
                yield "" if ok else f"predicted heights differ for {p}"


def _composite_split(m):
    while (records := (yield)) is not None:
        for _, p, image, _ in records:
            c = paths.classify(image)
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


def _subclass_walks(m):
    """Each subclass's oracle walk holds exactly the members whose image is
    a Dyck path (k), an elevated Dyck path (ck), an elevated proper prefix
    (g) or composite; and Catalan(n - 1) images are elevated Dyck paths."""
    by_image = {name: set() for name in oracle.SUBCLASSES}
    elevated = 0
    while (records := (yield)) is not None:
        for _, p, image, _ in records:
            c = paths.classify(image)
            if c.is_dyck_path:
                by_image["k"].add(p.values)
                if c.is_elevated:
                    by_image["ck"].add(p.values)
                    elevated += 1
            else:
                by_image["g" if c.split is None else "composite"].add(p.values)
    for name, members in by_image.items():
        spec = oracle.ClassSpec(m, True, (1, 2, 3), name)
        ok = {p.values for p in oracle.enumerate_class(spec)} == members
        yield "" if ok else f"{name} walk differs from the path images at 2n = {m}"
    n = m // 2
    ok = elevated == (comb(2 * n - 2, n - 1) // n if n else 0)
    yield "" if ok else f"{elevated} elevated Dyck paths of length {m}"


def _odd_123(m):
    alphas, odd_members = yield
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


def _t_rows(max_n):
    (_, rec, _), _, _ = yield
    rows = rec["t"].rows
    for n in range(min(max_n, len(T_ROWS_FROZEN) - 1) + 1):
        yield "" if rows[n] == T_ROWS_FROZEN[n] else f"t row {n} = {rows[n]}"


def _row_sums(max_n):
    (_, rec, _), _, _ = yield
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


def _three_routes(max_n):
    # every table cell against the oracle (through its own max n) and the
    # series, on rows padded with zeros to the widest of the three; a route
    # with the wrong number of rows fails the group, and a series mismatch
    # on a known discrepancy is a Note (for r, if 1 + (1+y^2)R matches)
    routes = yield
    for family in tables.FAMILIES:
        table, ser, orc = (built[family].rows for _, built, _ in routes)
        wrong = False
        for route, built, size in routes:
            rows = len(built[family].rows)
            if rows != size + 1:
                wrong = True
                yield Whole(
                    f"{family}: {route} route has {rows} rows, expected {size + 1}"
                )
        if wrong:
            continue
        for n, row in enumerate(table):
            with_oracle = n < len(orc)
            lift = (n == 0, 0, *ser[n])  # row n of 1 + y^2 R
            cells = zip_longest(row, ser[n], orc[n] if with_oracle else (), fillvalue=0)
            for d, (want, got, by_oracle) in enumerate(cells):
                if with_oracle:
                    yield "" if by_oracle == want else (
                        f"{family}[{n}][{d}]: table {want} vs oracle {by_oracle}"
                    )
                fixed = got + (lift[d] if d < len(lift) else 0)
                if family == "r" and fixed != want:
                    yield f"r[{n}][{d}]: table {want} vs {fixed} by 1 + (1+y^2)R"
                    continue
                if got == want:
                    yield ""
                    continue
                message = f"{family}[{n}][{d}]: table {want} vs series {got}"
                reason = tables.known_series_discrepancy(family, n, d)
                yield message if reason is None else Note(f"{message} ({reason})")


def _random_integral_series(rng, order):
    terms = []
    for i in range(order + 1):
        for j in range(2 * i + 2):
            if rng.random() < 0.4:
                terms.append((i, j, rng.randint(-4, 4)))
    return BivariateSeries.one(order) + BivariateSeries.from_terms(
        order, [(i, j, c) for i, j, c in terms if i > 0]
    )


def _series_arithmetic(max_n):
    import random  # only here: importing it slows every start-up

    _, seed = yield
    rng = random.Random(seed)
    # the round trips do not depend on the order, so it stops at 10
    order = min(max(max_n, 2), 10)
    for trial in range(25):
        a = _random_integral_series(rng, order)
        b = _random_integral_series(rng, order)
        ok = (a * b) == (b * a)
        yield "" if ok else f"multiplication not commutative (trial {trial})"
        ok = (a / b) * b == a
        yield "" if ok else f"division round trip fails (trial {trial})"
        ok = (a * a).sqrt() == a
        yield "" if ok else f"sqrt(a^2) != a (trial {trial})"


def _catalan_series(max_n):
    run = yield
    disc = BivariateSeries.from_terms(max(max_n, 2), [(0, 0, 1), (1, 0, -4)])
    catalan = (1 - disc.sqrt()).div_x(1) / 2
    for m, batches in _prefixes(min(catalan.order, 10), *run):
        n = m // 2
        coeff = catalan.coefficient(n, 0)
        counted = sum(p.is_dyck_path for prefixes in batches for p in prefixes)
        ok = coeff == counted == comb(m, n) // (n + 1)
        yield "" if ok else f"Catalan coefficient {n} = {coeff}"


def _series_identities(max_n):
    yield  # the run's group: this check needs only the order
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
    km1_squared = km1 * km1
    quadratic = (
        km1_squared * poly(order, [(1, 3, 1), (2, 5, -1), (2, 3, 1)])
        + km1 * poly(order, [(1, 2, 2), (2, 2, 2), (2, 4, -2), (0, 0, -1)])
        + poly(order, [(1, 1, 1), (2, 3, -1), (2, 1, 1)])
    )
    yield "" if quadratic == zero else "quadratic relation for K fails"
    # the T that the paper prints, a quotient in K, cross-multiplied, so
    # that the rationalized form NamedSeries builds is checked against it;
    # its K^2 is (K - 1)^2 + 2K - 1
    printed_num = (
        -(km1_squared + k.scale(2) - 1).mul_term(1, 3)
        + k
        + k.mul_term(1, 1)
        - k.mul_term(1, 2).scale(2)
        + k.mul_term(1, 3)
        + poly(order, [(1, 2, 1), (1, 1, -2), (1, 0, 1)])
    )
    printed_den = (
        poly(order, [(0, 0, 1), (1, 1, -1), (1, 3, 1)])
        - k.mul_term(1, 2)
        - k.mul_term(1, 3)
    )
    if t * printed_den != printed_num:
        yield "printed T != its rationalized form"
    else:
        composite = k + s - 1 + (km1 * (s - 1)).mul_term(0, 1, 1)
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
    ("perm", "centrosymmetric count 2^n n!", _centro,
     _count(lambda n: 2**n * factorial(n), "|C_{m}| = {count}")),
    ("perm", "123-avoiding count C(2n, n)", _c123_oracle,
     _count(lambda n: comb(2 * n, n), "|C_{m}(123)| = {count}, expected {want}")),
    ("perm", "132-avoiding count 2^n", _c132,
     _count(lambda n: 2**n, "|C_{m}(132)| = {count}, expected {want}")),
    ("perm", "321 class is the reversed 123 class", _c123_oracle,
     _same_set(_walk((3, 2, 1)), "rev C_{m}(321) != C_{m}(123)", reverse=True)),
    ("perm", "213 class is the 132 class", _c132,
     _same_set(_walk((2, 1, 3)), "C_{m}(213) != C_{m}(132)")),
    ("perm", "231 class is the reversed 132 class", _c132,
     _same_set(_walk((2, 3, 1)), "rev C_{m}(231) != C_{m}(132)", reverse=True)),
    ("perm", "312 class is the reversed 132 class", _c132,
     _same_set(_walk((3, 1, 2)), "rev C_{m}(312) != C_{m}(132)", reverse=True)),
    ("perm", "mirror-symmetric descent sets", _centro, _mirror_descents),
    ("perm", "descents recoverable from the first half", _centro,
     _descents_from_half),
    ("perm", "minima decomposition well formed", _c123, _minima_blocks),
    ("path", "prefix count C(2n, n)", _prefixes,
     _count(lambda n: comb(2 * n, n), "{count} prefixes of length {m}")),
    ("path", "Dyck path count Catalan(n)", _prefixes, _dyck_count),
    ("path", "classification trichotomy and split", _prefixes, _classification),
    ("path", "heights, final height, returns agree", _prefixes, _heights),
    ("bijection", "round trip path -> member -> path", _c123,
     _round_trip_paths),
    ("bijection", "round trip member -> path -> member", _c123,
     _round_trip_members),
    ("bijection", "structural generator matches inverse image", _c123,
     _same_set(lambda m: bijection.generate_c123_structural(m),
               "structural generator mismatch at 2n = {m}")),
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
    ("bijection", "subclass walks are the path-image classes", _c123,
     _subclass_walks),
    ("bijection", "odd 123 class is the lifted image of S_n(123)", _s123,
     _odd_123),
    ("bijection", "132 structural generator matches brute force", _c132,
     _same_set(lambda m: bijection.generate_c132(m),
               "132 generator mismatch at length {m}")),
    ("series", "t table matches the published rows", _routes, _t_rows),
    ("series", "row sums and parity constraints", _routes, _row_sums),
    ("series", "recurrence vs series vs brute force, all families", _routes,
     _three_routes),
    ("series", "series arithmetic round trips (randomized)", _run,
     _series_arithmetic),
    ("series", "generating function for Dyck path counts", _run, _catalan_series),
    ("series", "named series identities", _run, _series_identities),
)


def run_checks(entries, max_n, cap, seed, reports):
    """Append the Check of each catalogue entry to reports[its suite].

    Each domain of the entries is walked once, one batch at a time, and
    every batch goes to each entry's running check on that domain.
    """
    checks = {entry: Check(entry[1], True) for entry in entries}
    for domain in dict.fromkeys(entry[2] for entry in entries):
        on_domain = [entry for entry in entries if entry[2] is domain]
        for size, batches in domain(max_n, cap, seed):
            running = [
                (checks[entry], entry[3](size), reports[entry[0]].notes)
                for entry in on_domain
            ]
            # the first None starts each check, the last ends its group
            for batch in chain((None,), batches, (None,)):
                for tally, check, notes in running:
                    tally.feed(check, batch, notes)
    for entry in entries:
        reports[entry[0]].checks.append(checks[entry])


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
