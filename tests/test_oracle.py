import ast
import gc
import hashlib
from itertools import combinations, islice, permutations
from math import comb
from pathlib import Path

import pytest

import censym.oracle
from censym.bijection import phi
from censym.oracle import (
    CapExceeded,
    ClassSpec,
    DEFAULT_MAX_EVEN_LENGTH,
    descent_histogram,
    enumerate_class,
    length_cap,
)
from censym.paths import classify
from censym.perms import contains_pattern, is_centrosymmetric, word_contains_pattern
from censym.tables import FAMILIES, descent_tables

from tests.paper import C6_132, C7_132
from tests.reference import centro_avoiders, lis_length


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
        assert not contains_pattern(p, (1, 2, 3))
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


def _phi_subclasses(p):
    """The subclasses of p as the shape of its path image defines them."""
    c = classify(phi(p))
    return {
        name
        for name, match in (
            ("k", c.is_dyck_path),
            ("ck", c.is_dyck_path and c.is_elevated),
            ("g", not c.is_dyck_path and c.split is None),
            ("composite", c.split is not None),
        )
        if match
    }


def test_subclasses_partition_the_class():
    for n in range(7):
        spec = ClassSpec(2 * n, centrosymmetric=True, avoid=(1, 2, 3))
        whole = list(enumerate_class(spec))
        parts = {
            name: set(
                enumerate_class(
                    ClassSpec(
                        2 * n, centrosymmetric=True, avoid=(1, 2, 3), subclass=name
                    )
                )
            )
            for name in ("k", "ck", "g", "composite")
        }
        assert sum(len(parts[name]) for name in ("k", "g", "composite")) == len(whole)
        assert parts["k"] | parts["g"] | parts["composite"] == set(whole)
        assert parts["ck"] <= parts["k"]
        for p in whole:
            assert {name for name in parts if p in parts[name]} == _phi_subclasses(p)


def test_subclasses_come_out_in_the_order_of_the_class():
    for length in range(0, 15, 2):
        whole = list(enumerate_class(ClassSpec(length, True, (1, 2, 3))))
        for name in censym.oracle.SUBCLASSES:
            got = list(enumerate_class(ClassSpec(length, True, (1, 2, 3), name)))
            want = [p for p in whole if name in _phi_subclasses(p)]
            assert got == want, (length, name)


def test_search_leaves_no_cyclic_garbage():
    # members must go as soon as the caller drops them, not at the next
    # run of the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        # 1324 goes through the backtracking containment test
        # below length 8 the whole class is completed with no frame pushed
        cases = (
            (6, None),
            (8, None),
            (9, None),
            (6, (1, 2, 3)),
            (6, (1, 3, 2, 4)),
            (7, (1, 3, 2, 4)),
        )
        for length, avoid in cases:
            list(enumerate_class(ClassSpec(length, centrosymmetric=True, avoid=avoid)))
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert length_cap(DEFAULT_MAX_EVEN_LENGTH) == DEFAULT_MAX_EVEN_LENGTH
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(18, centrosymmetric=True)))
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(19, centrosymmetric=True)))
    with pytest.raises(CapExceeded):
        list(enumerate_class(ClassSpec(10)))
    monkeypatch.setenv("CENSYM_MAX_ORACLE_N", "6")
    assert length_cap(DEFAULT_MAX_EVEN_LENGTH) == 6
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


def test_avoid_must_be_a_permutation():
    # both once enumerated as classes: 16 members and 1
    with pytest.raises(ValueError, match="duplicate value 2"):
        ClassSpec(8, centrosymmetric=True, avoid=(2, 3, 2))
    with pytest.raises(ValueError, match="value 0 out of range"):
        ClassSpec(4, avoid=(0, 5))


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


def _descent_row(m, pattern):
    hist = descent_histogram(ClassSpec(m, centrosymmetric=True, avoid=pattern))
    return [hist.get(d, 0) for d in range(m)]


def test_reverse_and_complement_symmetries():
    # reverse and complement map descents d to m-1-d and keep the class
    # centrosymmetric; their composite fixes every centrosymmetric member
    for m in range(1, 12):
        row_123 = _descent_row(m, (1, 2, 3))
        row_132 = _descent_row(m, (1, 3, 2))
        assert _descent_row(m, (3, 2, 1)) == row_123[::-1], m
        assert _descent_row(m, (2, 1, 3)) == row_132, m
        assert _descent_row(m, (2, 3, 1)) == row_132[::-1], m
        assert _descent_row(m, (3, 1, 2)) == row_132[::-1], m


def test_oracle_imports_only_perms():
    tree = ast.parse(Path(censym.oracle.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            internal.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert node.module.split(".")[0] != "censym", node.module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "censym" for a in node.names)
    assert internal == {"perms"}


PATTERNS3 = [(1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]


@pytest.mark.parametrize(
    "pattern",
    [*PATTERNS3, None],
    ids=lambda p: "all" if p is None else "".join(map(str, p)),
)
def test_summary_search_equals_unpruned_reference(pattern):
    # with no pattern, every leaf is a member, in the order of its half
    for length in range(13):
        spec = ClassSpec(length, centrosymmetric=True, avoid=pattern)
        got = [p.values for p in enumerate_class(spec)]
        assert got == centro_avoiders(length, pattern), (pattern, length)


@pytest.mark.parametrize(
    "length, digest",
    [
        (13, "e46b6008c89a16e2db7b4142427dc93d968af635805a8c22c4aafd88bd930f5e"),
        (14, "b8b2f246bbb12d9fcd95a401562f1de1710e363bc9c3c9c5cc04aa0d1c356d4b"),
    ],
)
def test_whole_class_past_the_reference_is_frozen(length, digest):
    # the reference stops at length 12; these digests were taken from the
    # search before it completed each half's last values from index words
    h = hashlib.sha256()
    for p in enumerate_class(ClassSpec(length, centrosymmetric=True)):
        h.update(bytes(p.values))
    assert h.hexdigest() == digest


def test_subclass_walks_are_frozen(monkeypatch):
    # every subclass at every even length to 16, in order; the digest was
    # taken while composite was still filtered after a walk of the class
    monkeypatch.delenv("CENSYM_MAX_ORACLE_N", raising=False)
    h = hashlib.sha256()
    for name in censym.oracle.SUBCLASSES:
        for length in range(0, 17, 2):
            for p in enumerate_class(ClassSpec(length, True, (1, 2, 3), name)):
                h.update(bytes(p.values))
    assert (
        h.hexdigest()
        == "d315fd6e371d49bb5736c3330b1d6157903874aca0c515393707f56a9e5d9a7b"
    )


def test_tail_words_are_the_halves_in_order():
    for k in range(5):
        values = list(range(1, 2 * k + 1))
        halves = sorted(
            w
            for w in permutations(values, k)
            if all(v + u != 2 * k + 1 for v, u in combinations(w, 2))
        )
        words = censym.oracle._tail_words(k)
        assert [tuple(values[i] for i in w) for w in words] == halves


@pytest.mark.parametrize("avoid", [None, (1, 2, 3)], ids=["all", "123"])
def test_first_members_at_length_2400(monkeypatch, avoid):
    # the search keeps its own stack, so depth 1200 is no recursion limit
    monkeypatch.setenv("CENSYM_MAX_ORACLE_N", "2400")
    spec = ClassSpec(2400, centrosymmetric=True, avoid=avoid)
    first = list(islice(enumerate_class(spec), 3))
    assert len(first) == 3 and first == sorted(first)
    for p in first:
        assert is_centrosymmetric(p)
        assert avoid is None or lis_length(p.values) < 3
    if avoid is None:
        assert first[0].values == tuple(range(1, 2401))
    else:
        half = tuple(range(1200, 0, -1))
        assert first[0].values == half + tuple(2401 - v for v in reversed(half))


@pytest.fixture
def containment_calls(monkeypatch):
    """The patterns of the oracle's word_contains_pattern calls, as made."""
    calls = []

    def counted(word, pattern):
        calls.append(pattern)
        return word_contains_pattern(word, pattern)

    monkeypatch.setattr(censym.oracle, "word_contains_pattern", counted)
    return calls


@pytest.mark.parametrize(
    "pattern, subclass",
    [(p, None) for p in PATTERNS3]
    + [((1, 2, 3), s) for s in censym.oracle.SUBCLASSES],
    ids=["".join(map(str, p)) for p in PATTERNS3] + list(censym.oracle.SUBCLASSES),
)
def test_summaries_cut_exactly(containment_calls, pattern, subclass):
    # the summaries and the subclass cuts cut every branch without members,
    # so each leaf the search reaches is a member and the final filter runs
    # once; the subclasses are defined at even lengths only
    for length in range(0, 15, 1 if subclass is None else 2):
        spec = ClassSpec(length, True, pattern, subclass)
        containment_calls.clear()
        members = sum(1 for _ in enumerate_class(spec))
        assert len(containment_calls) == members, (pattern, subclass, length)


def test_search_yields_before_the_class_is_built(containment_calls):
    spec = ClassSpec(16, centrosymmetric=True, avoid=(1, 2, 3))
    first = next(enumerate_class(spec))
    assert first.values == (8, 7, 6, 5, 4, 3, 2, 1, 16, 15, 14, 13, 12, 11, 10, 9)
    assert len(containment_calls) < 10 < comb(16, 8)


def test_subclass_cuts_leave_fewer_leaves(containment_calls):
    # k and ck take only values above n in the half, so every leaf is a
    # member (Catalan 6 and 5); ck and g cut a right component ending
    # before n, and g and composite one ending at n, and a composite leaf
    # is cut unless one ended before n, so every g and composite leaf is a
    # member too: C(11, 5) and C(11, 4)
    leaves = {}
    for name in censym.oracle.SUBCLASSES:
        containment_calls.clear()
        list(enumerate_class(ClassSpec(12, True, (1, 2, 3), name)))
        leaves[name] = len(containment_calls)
    assert leaves == {"k": 132, "ck": 42, "g": 462, "composite": 330}


@pytest.mark.parametrize(
    "families", [("k",), ("ck",), ("g",), ("k", "ck")], ids="-".join
)
def test_subclass_tables_equal_the_shared_walk(families):
    # a subclass family asked alone, or with another, gives the table
    # that the oracle gives for it when every family is asked
    shared = descent_tables("oracle", FAMILIES, 7)
    alone = descent_tables("oracle", families, 7)
    assert alone == {f: shared[f] for f in families}


def test_oracle_tables_equal_the_recurrence_at_n_7():
    # n = 7: lengths 14 for k, ck and g, 15 for v
    families = ("v", "k", "ck", "g")
    assert descent_tables("oracle", families, 7) == descent_tables(
        "recurrence", families, 7
    )


def test_k_table_counts_no_components(component_builds):
    # the search's cuts decide all four subclasses from the half alone, so
    # no oracle table, nor any subclass walk, builds right components
    assert descent_tables("oracle", FAMILIES, 6) == descent_tables(
        "recurrence", FAMILIES, 6
    )
    for length in range(0, 13, 2):
        for name in censym.oracle.SUBCLASSES:
            list(enumerate_class(ClassSpec(length, True, (1, 2, 3), name)))
    assert component_builds == []
