import random
from collections import deque
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censym import perms
from censym.bijection import (
    _phi_blocks,
    even_to_odd_132,
    generate_c123_structural,
    generate_c132,
    odd_embed,
    phi,
    phi_inverse,
    phi_trace,
)
from censym.oracle import ClassSpec, enumerate_class
from censym.paths import InvalidPath, LatticePath, enumerate_prefixes
from censym.perms import (
    InvalidPermutation,
    Permutation,
    VerificationError,
    is_centrosymmetric,
    parse_permutation,
    right_connected_components,
    stats,
)

from tests.paper import PHI_FIGURE, PHI_INVERSE_FIGURE
from tests.reference import c132_recursive, lis_length

LENGTH_FOUR_MAP = {
    (2, 1, 4, 3): "UUUU",
    (2, 4, 1, 3): "UUUD",
    (3, 1, 4, 2): "UUDU",
    (3, 4, 1, 2): "UUDD",
    (4, 2, 3, 1): "UDUU",
    (4, 3, 2, 1): "UDUD",
}

# long prefixes: one tall run, unit blocks, one peak, a tall sawtooth
LONG_PATHS = {
    "U": "U" * 100000,
    "UD": "UD" * 50000,
    "peak": "U" * 50000 + "D" * 50000,
    "sawtooth": ("U" * 300 + "D" * 299) * 160 + "U" * 160,
}


def test_phi_on_all_length_four_members():
    for values, steps in LENGTH_FOUR_MAP.items():
        assert phi(Permutation(values)).steps == steps
        assert phi_inverse(LatticePath(steps)).values == values


def test_phi_figure_example():
    member, path = PHI_FIGURE
    assert phi(parse_permutation(member)).steps == path


def test_phi_inverse_figure_example():
    path, member = PHI_INVERSE_FIGURE
    assert str(phi_inverse(LatticePath(path))) == member


def test_phi_empty_and_length_two():
    assert phi(Permutation(())).steps == ""
    assert phi(Permutation((1, 2))).steps == "UU"
    assert phi(Permutation((2, 1))).steps == "UD"


def test_phi_rejects_non_members():
    with pytest.raises(InvalidPermutation, match="not centrosymmetric"):
        phi(Permutation((1, 3, 2)))
    with pytest.raises(InvalidPermutation, match="contains the pattern 123"):
        phi(Permutation((1, 2, 3, 4)))


def test_phi_inverse_rejects_odd_length():
    with pytest.raises(InvalidPath):
        phi_inverse(LatticePath("UUD"))


def test_phi_blocks_guards():
    with pytest.raises(VerificationError, match="last block deletes 2 steps"):
        _phi_blocks((1, 2))
    with pytest.raises(VerificationError, match="removed steps must all be ups"):
        _phi_blocks((3, 4, 2, 8))
    with pytest.raises(VerificationError, match="a block removes a value twice"):
        _phi_blocks((1, 4))


class _EndsOnlyDeque(deque):
    """A deque whose O(n) index and del raise."""

    def index(self, *args):
        raise AssertionError("deque.index")

    def __delitem__(self, i):
        raise AssertionError("del on a deque")


def test_members_take_only_the_linear_path(monkeypatch):
    monkeypatch.setattr(perms, "deque", _EndsOnlyDeque)
    upper = perms._UpperValues(5)  # S = 10 9 8 7 6
    assert upper.pop(3) == 7  # moves 10 9 8 onto the deque
    with pytest.raises(AssertionError):
        upper.pop(1)
    with pytest.raises(AssertionError):
        upper.index(9)
    short = [path.steps for m in range(0, 13, 2) for path in enumerate_prefixes(m)]
    for steps in short + list(LONG_PATHS.values()):
        path = LatticePath(steps)
        p = phi_inverse(path)
        assert phi(p) == path
        assert 2 * len(stats(p)["tiny_minima"]) == path.final_height


@st.composite
def dyck_prefixes(draw, max_length):
    """Even-length Dyck prefixes up to max_length: random steps, with each
    D that would leave height 0 turned into a U.  Hypothesis favours small
    integers, so the longest length is also drawn on its own."""
    n = draw(st.integers(0, max_length // 2) | st.just(max_length // 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    height, steps = 0, []
    for _ in range(2 * n):
        up = height == 0 or rng.getrandbits(1)
        height += 1 if up else -1
        steps.append("U" if up else "D")
    return LatticePath("".join(steps))


@settings(deadline=None, max_examples=40)
@given(dyck_prefixes(10**4))
def test_phi_properties_on_long_prefixes(path):
    p = phi_inverse(path)
    assert is_centrosymmetric(p) and lis_length(p.values) < 3
    assert phi(p) == path
    components = len(right_connected_components(p))
    assert components == 2 * path.returns + (not path.is_dyck_path)


@settings(deadline=None, max_examples=40)
@given(dyck_prefixes(10**4))
def test_final_height_on_random_prefixes(path):
    blocks = phi_trace(phi_inverse(path)).blocks
    assert path.final_height == 2 * sum(b.tiny for b in blocks)


@pytest.mark.parametrize("n", range(7))
def test_round_trips(n, catalogue):
    assert catalogue(
        n, "round trip path -> member -> path", "round trip member -> path -> member"
    ).ok


def test_phi_trace_blocks_of_figure_member():
    member, path = PHI_FIGURE
    trace = phi_trace(parse_permutation(member))
    assert [b.emitted for b in trace.blocks] == ["UUUUUUDDD", "UUD", "UDDD"]
    assert [b.deleted for b in trace.blocks] == [3, 4, 0]
    assert [b.tiny for b in trace.blocks] == [False, False, True]
    assert "".join(b.emitted for b in trace.blocks) == path


def test_final_height_counts_tiny_minima(catalogue):
    assert catalogue(5, "final height 2#tiny; Dyck iff no tiny minima").ok


def test_components_vs_returns_exhaustive(catalogue):
    assert catalogue(5, "right components track path returns").ok


def test_predicted_heights_on_no_tiny_members(catalogue):
    assert catalogue(5, "per-block height formulas (no tiny minima)").ok
    for n in range(6):
        for p in map(phi_inverse, enumerate_prefixes(2 * n)):
            trace = phi_trace(p)
            if any(b.tiny for b in trace.blocks):
                assert trace.predicted_heights is None
            else:
                assert trace.predicted_heights == trace.block_heights()


def test_composite_factorization(catalogue):
    assert catalogue(5, "composite members factor at the last return").ok


def test_odd_embed_known_values():
    assert odd_embed(Permutation(())).values == (1,)
    assert odd_embed(Permutation((1,))).values == (3, 2, 1)
    assert odd_embed(Permutation((2, 1))).values == (5, 4, 3, 2, 1)
    assert odd_embed(Permutation((1, 2))).values == (4, 5, 3, 1, 2)


def test_odd_embed_rejects_pattern():
    with pytest.raises(InvalidPermutation):
        odd_embed(Permutation((1, 2, 3)))


def test_odd_round_trip_and_image(catalogue):
    assert catalogue(5, "odd 123 class is the lifted image of S_n(123)").ok


def test_even_to_odd_132_follows_listed_correspondence():
    pairs = [
        ("1 2 3 4 5 6", "1 2 3 4 5 6 7"),
        ("4 5 6 1 2 3", "5 6 7 4 1 2 3"),
        ("5 6 3 4 1 2", "6 7 3 4 5 1 2"),
        ("5 6 4 3 1 2", "6 7 5 4 3 1 2"),
        ("6 2 3 4 5 1", "7 2 3 4 5 6 1"),
        ("6 4 5 2 3 1", "7 5 6 4 2 3 1"),
        ("6 5 3 4 2 1", "7 6 3 4 5 2 1"),
        ("6 5 4 3 2 1", "7 6 5 4 3 2 1"),
    ]
    for even_text, odd_text in pairs:
        even = parse_permutation(even_text)
        assert even_to_odd_132(even) == parse_permutation(odd_text)


def test_even_to_odd_132_maps_the_even_class_onto_the_odd_one_in_order():
    # the inserted middle value sends C_2n(132) onto C_2n+1(132) in the
    # oracle's order, and des d to d + (d mod 2)
    for n in range(7):
        even = list(enumerate_class(ClassSpec(2 * n, True, (1, 3, 2))))
        odd = list(enumerate_class(ClassSpec(2 * n + 1, True, (1, 3, 2))))
        assert [even_to_odd_132(p) for p in even] == odd, n
        for p, q in zip(even, odd):
            d = perms.descent_count(p)
            assert perms.descent_count(q) == d + d % 2, p


def test_generate_c132_matches_brute_force(catalogue):
    assert catalogue(4, "132 structural generator matches brute force").ok
    counts = [sum(1 for _ in generate_c132(m)) for m in range(9)]
    assert counts == [2 ** (m // 2) for m in range(9)]


def test_generate_c132_matches_recursive_reference():
    for n in range(17):
        assert [p.values for p in generate_c132(n)] == c132_recursive(n), n


def test_structural_generator_matches_path_generator(catalogue):
    assert catalogue(6, "structural generator matches inverse image").ok
    counts = [sum(1 for _ in generate_c123_structural(2 * n)) for n in range(7)]
    assert counts == [comb(2 * n, n) for n in range(7)]


def test_structural_generator_reaches_length_2400():
    # one stack frame per block, so 1200 blocks deep is no recursion limit
    first = next(generate_c123_structural(2400))
    assert first.values == tuple(range(1200, 0, -1)) + tuple(range(2400, 1200, -1))
    perms.require_member(first)
