import ast
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import censym
from censym import bijection, oracle, paths, perms, series, tables, verify
from censym.oracle import ClassSpec
from censym.perms import Permutation
from censym.verify import CHECKS, run_suite

from tests.reference import descent_set_by_index, mirror_closed_by_set, statistic_words


@pytest.mark.parametrize("entry", CHECKS, ids=[entry[1] for entry in CHECKS])
def test_catalogue_entry_passes(entry, catalogue):
    report = catalogue(4, entry[1])
    assert report.ok
    assert report.checks[0].count > 0


def test_mirror_check_matches_the_set_form():
    # on any word, not only on members, so that failing verdicts are pinned too
    for values in statistic_words():
        p = Permutation(values)
        m = len(values)
        ok = mirror_closed_by_set(descent_set_by_index(values), m)
        tally, check = verify.Check("mirror", True), verify._mirror_descents(m)
        for batch in (None, [p], None):
            tally.feed(check, batch, [])
        detail = "" if ok else f"asymmetric descent set for {p}"
        assert (tally.passed, tally.count, tally.detail) == (ok, 1, detail), values


@pytest.mark.parametrize(
    "name, detail",
    [
        ("centrosymmetric count 2^n n!", "|C_4| = 7"),
        ("123-avoiding count C(2n, n)", "|C_4(123)| = 5, expected 6"),
        ("132-avoiding count 2^n", "|C_4(132)| = 3, expected 4"),
        ("prefix count C(2n, n)", "5 prefixes of length 4"),
        # the last prefix of length 4 is the Dyck path UDUD
        ("Dyck path count Catalan(n)", "1 Dyck paths of length 4"),
        ("structural generator matches inverse image",
         "structural generator mismatch at 2n = 4"),
        ("132 structural generator matches brute force",
         "132 generator mismatch at length 4"),
        ("321 class is the reversed 123 class", "rev C_4(321) != C_4(123)"),
        ("213 class is the 132 class", "C_4(213) != C_4(132)"),
        ("231 class is the reversed 132 class", "rev C_4(231) != C_4(132)"),
        ("312 class is the reversed 132 class", "rev C_4(312) != C_4(132)"),
    ],
)
def test_group_checks_fail_a_group_short_of_one(name, detail):
    # the entry's own domain at size 4, with its last member dropped
    ((_, _, domain, check),) = [entry for entry in CHECKS if entry[1] == name]
    group = next(batches for size, batches in domain(2, 4, 0) if size == 4)
    members = [member for batch in group for member in batch][:-1]
    tally, running = verify.Check(name, True), check(4)
    for batch in (None, members, None):
        tally.feed(running, batch, [])
    assert (tally.passed, tally.count, tally.detail) == (False, 1, detail)


@pytest.mark.parametrize(
    "fault, detail",
    [
        # no path is elevated
        ("is_elevated", "ck walk differs from the path images at 2n = 2"),
        # the composite search no longer asks for a component before n
        ("composite", "composite walk differs from the path images at 2n = 2"),
    ],
)
def test_subclass_check_fails_either_route(monkeypatch, catalogue, fault, detail):
    real_enumerate_class = oracle.enumerate_class

    def enumerate_class(spec):
        if spec.subclass == "composite":
            yield from real_enumerate_class(spec._replace(subclass="g"))
        yield from real_enumerate_class(spec)

    if fault == "is_elevated":
        never = property(lambda path: False)
        monkeypatch.setattr(paths.LatticePath, "is_elevated", never)
    else:
        monkeypatch.setattr(oracle, "enumerate_class", enumerate_class)
    report = catalogue(3, "subclass walks are the path-image classes")
    (check,) = report.checks
    assert (check.passed, check.detail) == (False, detail)


def test_member_domains_stream_their_groups(catalogue):
    # C_12 has 46080 members: held as one list they peaked at 9.8 MiB, and
    # streamed they peak at 1.4-2 MiB
    names = [entry[1] for entry in CHECKS if entry[2] is verify._centro]
    tracemalloc.start()
    try:
        report = catalogue(6, *names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 4 * 2**20, peak


def test_each_domain_length_is_enumerated_once(monkeypatch):
    calls = Counter()
    real_prefixes, real_class = paths.enumerate_prefixes, oracle.enumerate_class

    def enumerate_prefixes(length):
        # the path domain's prefixes are walked again by the Catalan check,
        # which builds its own inputs; only the C_2n(123) domain counts here
        if sys._getframe(1).f_code is verify._c123.__code__:
            calls["_c123", length] += 1
        return real_prefixes(length)

    def enumerate_class(spec):
        # the three-route check enumerates its own classes through
        # tables.descent_tables; only verify's enumerations count here
        if sys._getframe(1).f_globals["__name__"] == "censym.verify":
            calls[spec] += 1
        return real_class(spec)

    monkeypatch.setattr(paths, "enumerate_prefixes", enumerate_prefixes)
    monkeypatch.setattr(oracle, "enumerate_class", enumerate_class)
    run_suite("all", 4)
    centro, c123, c132 = {"centrosymmetric": True}, (1, 2, 3), (1, 3, 2)
    # the set checks walk each other class they compare a domain with, and
    # the subclass check each subclass, once per length of their domain
    assert calls == Counter(
        [("_c123", 2 * n) for n in range(5)]
        + [ClassSpec(m, **centro) for m in range(9)]
        + [ClassSpec(2 * n, **centro, avoid=c123) for n in range(5)]
        + [ClassSpec(2 * n + 1, **centro, avoid=c123) for n in range(5)]
        + [ClassSpec(n, avoid=c123) for n in range(5)]
        + [ClassSpec(m, **centro, avoid=c132) for m in range(9)]
        + [ClassSpec(2 * n, **centro, avoid=(3, 2, 1)) for n in range(5)]
        + [
            ClassSpec(m, **centro, avoid=pattern)
            for pattern in ((2, 1, 3), (2, 3, 1), (3, 1, 2))
            for m in range(9)
        ]
        + [
            ClassSpec(2 * n, **centro, avoid=c123, subclass=name)
            for name in oracle.SUBCLASSES
            for n in range(5)
        ]
    )


def test_bijection_suite_builds_each_record_once(monkeypatch):
    prefixes = [path for n in range(5) for path in paths.enumerate_prefixes(2 * n)]
    composites = sum(paths.classify(path).split is not None for path in prefixes)
    calls = Counter()

    def counted(fn):
        def wrapper(arg):
            calls[fn.__name__] += 1
            return fn(arg)

        return wrapper

    for module, name in (
        (bijection, "phi"),
        (bijection, "phi_inverse"),
        (bijection, "phi_trace"),
        (bijection, "_walk_blocks"),
        (perms, "_walk_blocks"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    (report,) = run_suite("bijection", 4)
    assert report.ok
    # one record a prefix: its member by phi_inverse, the member's image by
    # phi and its trace by phi_trace, each of the two walking the member's
    # blocks once; the member round trip takes phi_inverse of each image,
    # and the composite split of each composite's two parts
    members = len(prefixes)
    assert calls == Counter(
        phi=members,
        phi_trace=members,
        _walk_blocks=2 * members,
        phi_inverse=2 * members + 2 * composites,
    )


def _three_routes_tally(group, max_n):
    tally, check = verify.Check("three routes", True), verify._three_routes(max_n)
    for batch in (None, group, None):
        tally.feed(check, batch, [])
    return tally


@pytest.mark.parametrize("fault", ["last row dropped", "row 0 zeroed"])
@pytest.mark.parametrize("route", range(3))
def test_three_routes_fails_a_faulty_route(route, fault, monkeypatch):
    # the oracle stops at n = 2 below the others' 3, so rows past its own
    # max n are covered too
    monkeypatch.delenv("CENSYM_MAX_ORACLE_N", raising=False)
    ((max_n, (group,)),) = verify._routes(3, 4, 0)
    assert _three_routes_tally(group, max_n).passed
    name, built, size = group[route]
    if fault == "last row dropped":
        faulty = {f: t._replace(rows=t.rows[:-1]) for f, t in built.items()}
        want = f"q: {name} route has {size} rows, expected {size + 1}"
    else:
        faulty = {f: t._replace(rows=((0,),) + t.rows[1:]) for f, t in built.items()}
        want = "[0][0]: table "
    group = [*group[:route], (name, faulty, size), *group[route + 1 :]]
    tally = _three_routes_tally(group, max_n)
    assert not tally.passed
    assert want in tally.detail


def test_three_routes_build_what_families_share_once(monkeypatch):
    calls = Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[key(*args)] += 1
            return fn(*args)

        return wrapper

    monkeypatch.delenv("CENSYM_MAX_ORACLE_N", raising=False)
    for name in ("_tables_k_ck", "_tables_g_t"):
        builder = counted(getattr(tables, name), lambda *args, name=name: name)
        monkeypatch.setattr(tables, name, builder)
    for name in ("K", "T"):
        builder = counted(series._BUILDERS[name], lambda order, named, name=name: name)
        monkeypatch.setitem(series._BUILDERS, name, builder)
    classes = counted(
        oracle.enumerate_class, lambda spec: (spec.length, spec.avoid, spec.subclass)
    )
    monkeypatch.setattr(oracle, "enumerate_class", classes)
    (report,) = run_suite("series", 6)
    assert report.ok
    # one build of each route for all the table checks: the k, ck and g, t
    # recurrences and series K and T; the identities check builds series K
    # and T once more, from its own NamedSeries.  The oracle searches each
    # family's own class once per n <= 6: t, k, ck and g in C_2n(123), q in
    # C_2n(132), v in C_2n+1(123) and r in C_2n+1(132)
    c123, c132 = (1, 2, 3), (1, 3, 2)
    assert calls == Counter(
        ["_tables_k_ck", "_tables_g_t", "K", "T", "K", "T"]
        + [
            key
            for n in range(7)
            for key in (
                *((2 * n, c123, s) for s in (None, "k", "ck", "g")),
                (2 * n, c132, None),
                (2 * n + 1, c123, None),
                (2 * n + 1, c132, None),
            )
        ]
    )


def test_library_has_no_assert():
    """python -O strips assert statements, so library checks must raise."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(censym.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_recursion():
    """A function that calls itself by name fails at the recursion limit,
    so input size alone could crash it."""
    found = [
        f"{path.stem}.{node.name}:{node.lineno}"
        for path in sorted(Path(censym.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert found == []
