import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from censym.paths import (
    InvalidPath,
    LatticePath,
    classify,
    enumerate_prefixes,
)
from tests.reference import dyck_prefixes


def test_validation():
    with pytest.raises(InvalidPath, match="dips below the x-axis at step 3"):
        LatticePath("UDD")
    with pytest.raises(InvalidPath, match="illegal character"):
        LatticePath("UDX")
    assert LatticePath("").steps == ""


def test_basic_statistics():
    p = LatticePath("UUUDDUUUUUUDDUUD")
    assert p.final_height == 6
    assert p.returns == 0
    assert p.heights()[:6] == (0, 1, 2, 3, 2, 1)
    assert LatticePath("UUDUDD").returns == 1
    assert LatticePath("UDUD").returns == 2
    assert LatticePath("UDUD").last_return() == 4
    assert LatticePath("UU").last_return() is None


def test_valleys_and_triple_falls():
    assert LatticePath("UUUUDDDDUD").triple_falls == 2
    assert LatticePath("UUDDUUDD").triple_falls == 0
    assert LatticePath("UDUDUD").valleys == 2
    assert LatticePath("UUUDDD").valleys == 0


@given(st.lists(st.sampled_from("UD"), max_size=40))
def test_random_step_strings(steps):
    text = "".join(steps)
    h = 0
    valid = True
    for c in text:
        h += 1 if c == "U" else -1
        if h < 0:
            valid = False
            break
    if not valid:
        with pytest.raises(InvalidPath):
            LatticePath(text)
        return
    p = LatticePath(text)
    assert p.final_height == h
    assert len(p.heights()) == len(text) + 1
    assert LatticePath(str(p)) == p


def test_classify_kinds():
    assert classify(LatticePath("")).kind == "dyck"
    assert classify(LatticePath("UUDD")).kind == "dyck"
    assert classify(LatticePath("UDUD")).kind == "dyck"
    assert classify(LatticePath("UUUU")).kind == "elevated-proper"
    assert classify(LatticePath("UUDU")).kind == "elevated-proper"
    c = classify(LatticePath("UDUU"))
    assert c.kind == "composite"
    assert c.split == (LatticePath("UD"), LatticePath("UU"))


def test_classify_rejects_odd_length():
    with pytest.raises(InvalidPath):
        classify(LatticePath("U"))


def test_empty_path_conventions():
    p = LatticePath("")
    assert p.is_dyck_path
    assert not p.is_elevated
    assert p.returns == 0


def test_elevated_dyck_path():
    p = LatticePath("UUDD")
    assert p.is_dyck_path and p.is_elevated
    q = LatticePath("UDUD")
    assert q.is_dyck_path and not q.is_elevated


def test_enumerate_counts_and_order(catalogue):
    got = [p.steps for p in enumerate_prefixes(4)]
    assert got == ["UUUU", "UUUD", "UUDU", "UUDD", "UDUU", "UDUD"]
    for length in range(0, 15, 2):
        assert [p.steps for p in enumerate_prefixes(length)] == dyck_prefixes(length)
    assert catalogue(6, "prefix count C(2n, n)").ok


def test_enumeration_leaves_no_cyclic_garbage():
    # a call's state must go when the caller drops it, not at the next
    # run of the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        for length in range(0, 11, 2):
            list(enumerate_prefixes(length))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_validation():
    with pytest.raises(InvalidPath):
        list(enumerate_prefixes(3))
    with pytest.raises(InvalidPath):
        list(enumerate_prefixes(40))
    with pytest.raises(InvalidPath):
        list(enumerate_prefixes(-2))


def test_composite_split_reassembles(catalogue):
    assert catalogue(5, "classification trichotomy and split").ok
