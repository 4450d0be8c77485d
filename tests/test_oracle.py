from itertools import permutations
from math import comb

import pytest

from censym.oracle import (
    CapExceeded,
    ClassSpec,
    DEFAULT_MAX_EVEN_LENGTH,
    descent_histogram,
    enumerate_class,
    max_even_length,
)
from censym.perms import avoids_pattern, is_centrosymmetric, word_contains_pattern

from tests.paper import C6_132, C7_132


def _texts(spec):
    return {"".join(str(v) for v in p.values) for p in enumerate_class(spec)}


def test_centrosymmetric_counts(catalogue):
    assert catalogue(5, "centrosymmetric count 2^n n!").ok


def test_odd_centrosymmetric_counts_match_even():
    for n in range(5):
        even = sum(
            1 for _ in enumerate_class(ClassSpec(2 * n, centrosymmetric=True))
        )
        odd = sum(
            1
            for _ in enumerate_class(ClassSpec(2 * n + 1, centrosymmetric=True))
        )
        assert odd == even


def test_members_are_valid():
    spec = ClassSpec(8, centrosymmetric=True, avoid=(1, 2, 3))
    members = list(enumerate_class(spec))
    assert len(members) == comb(8, 4)
    for p in members:
        assert is_centrosymmetric(p)
        assert avoids_pattern(p, (1, 2, 3))
    assert members == sorted(members)


def test_smallest_123_class():
    assert _texts(ClassSpec(3, centrosymmetric=True, avoid=(1, 2, 3))) == {"321"}


def test_length_four_centrosymmetric_class():
    got = _texts(ClassSpec(4, centrosymmetric=True))
    assert got == {"1234", "2143", "2413", "3142", "3412", "4231", "4321", "1324"}


def test_c6_and_c7_132_lists():
    for length, listed in ((6, C6_132), (7, C7_132)):
        spec = ClassSpec(length, centrosymmetric=True, avoid=(1, 3, 2))
        assert {p.values for p in enumerate_class(spec)} == listed


def test_132_counts(catalogue):
    assert catalogue(6, "132-avoiding count 2^n").ok


def test_known_histograms():
    assert descent_histogram(
        ClassSpec(4, centrosymmetric=True, avoid=(1, 2, 3))
    ) == {1: 2, 2: 3, 3: 1}
    assert descent_histogram(
        ClassSpec(2, centrosymmetric=True, avoid=(1, 2, 3))
    ) == {0: 1, 1: 1}
    assert descent_histogram(ClassSpec(0, centrosymmetric=True)) == {0: 1}


def test_subclasses_partition_the_class():
    for n in range(1, 5):
        whole = _texts(ClassSpec(2 * n, centrosymmetric=True, avoid=(1, 2, 3)))
        parts = []
        for name in ("k", "g", "composite"):
            parts.append(
                _texts(
                    ClassSpec(
                        2 * n,
                        centrosymmetric=True,
                        avoid=(1, 2, 3),
                        subclass=name,
                    )
                )
            )
        assert set().union(*parts) == whole
        assert sum(len(part) for part in parts) == len(whole)
        ck = _texts(
            ClassSpec(2 * n, centrosymmetric=True, avoid=(1, 2, 3), subclass="ck")
        )
        assert ck <= parts[0]


def test_subclass_requires_even_centro_123():
    with pytest.raises(ValueError):
        ClassSpec(4, centrosymmetric=True, avoid=(1, 3, 2), subclass="k")
    with pytest.raises(ValueError):
        ClassSpec(5, centrosymmetric=True, avoid=(1, 2, 3), subclass="k")
    with pytest.raises(ValueError):
        ClassSpec(4, avoid=(1, 2, 3), subclass="k")
    with pytest.raises(ValueError):
        ClassSpec(4, centrosymmetric=True, avoid=(1, 2, 3), subclass="x")
    with pytest.raises(ValueError):
        ClassSpec(-2)


def test_caps(monkeypatch):
    monkeypatch.delenv("CENSYM_MAX_ORACLE_N", raising=False)
    assert max_even_length() == DEFAULT_MAX_EVEN_LENGTH
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(18, centrosymmetric=True)))
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(19, centrosymmetric=True)))
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(10)))
    monkeypatch.setenv("CENSYM_MAX_ORACLE_N", "6")
    assert max_even_length() == 6
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(8, centrosymmetric=True)))
    assert sum(1 for _ in enumerate_class(ClassSpec(7, centrosymmetric=True))) == 48


def test_general_class_counts():
    for m in range(7):
        catalan = comb(2 * m, m) // (m + 1)
        got = sum(1 for _ in enumerate_class(ClassSpec(m, avoid=(1, 2, 3))))
        assert got == catalan
        got = sum(1 for _ in enumerate_class(ClassSpec(m, avoid=(1, 3, 2))))
        assert got == catalan


def test_avoid_patterns_other_than_length_three():
    spec = ClassSpec(5, avoid=(1, 2))
    assert _texts(spec) == {"54321"}
    spec = ClassSpec(4, centrosymmetric=True, avoid=(2, 1))
    assert _texts(spec) == {"1234"}


@pytest.fixture(scope="module")
def centro_members():
    """All centrosymmetric permutations of each length 0..10, unfiltered."""
    return [
        list(enumerate_class(ClassSpec(length, centrosymmetric=True)))
        for length in range(11)
    ]


@pytest.mark.parametrize(
    "pattern",
    [p for k in range(1, 5) for p in permutations(range(1, k + 1))],
    ids=lambda p: "".join(map(str, p)),
)
def test_pruned_search_equals_filter(centro_members, pattern):
    for length, members in enumerate(centro_members):
        want = [p for p in members if not word_contains_pattern(p.values, pattern)]
        spec = ClassSpec(length, centrosymmetric=True, avoid=pattern)
        assert list(enumerate_class(spec)) == want, (pattern, length)
