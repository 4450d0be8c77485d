import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import censym
from censym import bijection, oracle, series, tables, verify
from censym.oracle import ClassSpec
from censym.verify import CHECKS, run_suite


@pytest.mark.parametrize("entry", CHECKS, ids=[entry[1] for entry in CHECKS])
def test_catalogue_entry_passes(entry, catalogue):
    report = catalogue(4, entry[1])
    assert report.ok
    assert report.checks[0].count > 0


def test_each_domain_length_is_enumerated_once(monkeypatch):
    calls = Counter()
    real_even, real_class = bijection.generate_c123_even, oracle.enumerate_class

    def generate_c123_even(length):
        calls["phi_inverse", length] += 1
        return real_even(length)

    def enumerate_class(spec):
        # the three-route check enumerates its own classes through
        # tables.descent_tables; only verify's enumerations count here
        if sys._getframe(1).f_globals["__name__"] == "censym.verify":
            calls[spec] += 1
        return real_class(spec)

    monkeypatch.setattr(bijection, "generate_c123_even", generate_c123_even)
    monkeypatch.setattr(oracle, "enumerate_class", enumerate_class)
    run_suite("all", 4)
    centro, c123, c132 = {"centrosymmetric": True}, (1, 2, 3), (1, 3, 2)
    assert calls == Counter(
        [("phi_inverse", 2 * n) for n in range(5)]
        + [ClassSpec(m, **centro) for m in range(9)]
        + [ClassSpec(2 * n, **centro, avoid=c123) for n in range(5)]
        + [ClassSpec(2 * n + 1, **centro, avoid=c123) for n in range(5)]
        + [ClassSpec(n, avoid=c123) for n in range(5)]
        + [ClassSpec(m, **centro, avoid=c132) for m in range(9)]
    )


def test_three_routes_build_what_families_share_once(monkeypatch):
    calls = Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[key(*args)] += 1
            return fn(*args)

        return wrapper

    k_ck = counted(tables._tables_k_ck, lambda max_n: "k, ck")
    monkeypatch.setattr(tables, "_tables_k_ck", k_ck)
    for name in ("K", "T"):
        builder = counted(series._BUILDERS[name], lambda order, named, name=name: name)
        monkeypatch.setitem(series._BUILDERS, name, builder)
    classes = counted(oracle.enumerate_class, lambda spec: (spec.length, spec.avoid))
    monkeypatch.setattr(oracle, "enumerate_class", classes)
    assert set(verify._three_routes(6, 14, 0, [])) == {""}
    # one of each: the k, ck recurrence, series K and T, and the classes
    # C_m(123) and C_m(132) for the lengths m = 2n and 2n + 1, n <= 6
    patterns = ((1, 2, 3), (1, 3, 2))
    assert calls == Counter(
        ["k, ck", "K", "T"] + [(m, p) for m in range(14) for p in patterns]
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
