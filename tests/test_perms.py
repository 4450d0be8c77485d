import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from censym.perms import (
    InvalidPermutation,
    Permutation,
    _backtrack_contains,
    _walk_blocks,
    contains_pattern,
    descent_count,
    descent_set,
    descents_from_half,
    is_centrosymmetric,
    left_half_word,
    ltr_minima,
    parse_permutation,
    rank_within,
    require_member,
    right_connected_components,
    stats,
    word_contains_pattern,
)

from censym.bijection import phi_trace
from censym.oracle import ClassSpec, enumerate_class
from tests.paper import PHI_FIGURE
from tests.reference import (
    centrosymmetric_by_pairs,
    complement,
    descent_count_by_index,
    descent_set_by_index,
    block_lengths,
    descents_from_half_by_index,
    lis_length,
    minima,
    reverse,
    right_components,
    statistic_words,
    tiny_values,
)

perms_upto = lambda m: st.integers(1, m).flatmap(
    lambda k: st.permutations(range(1, k + 1))
)


def c123(length):
    """C_length(123) by brute force."""
    return enumerate_class(ClassSpec(length, centrosymmetric=True, avoid=(1, 2, 3)))


def test_validation_rejects_garbage():
    with pytest.raises(InvalidPermutation):
        Permutation((1, 3))
    with pytest.raises(InvalidPermutation):
        Permutation((1, 1, 2))
    with pytest.raises(InvalidPermutation):
        Permutation((0, 1))
    with pytest.raises(InvalidPermutation):
        Permutation((1.5, 2))


def test_parse_accepts_spaces_and_commas():
    assert parse_permutation("2 1 4 3") == Permutation((2, 1, 4, 3))
    assert parse_permutation("2,1,4,3") == Permutation((2, 1, 4, 3))
    assert parse_permutation("2, 1, 4, 3") == Permutation((2, 1, 4, 3))
    first_bad = {
        "2 1 x": "'x' at position 3",
        "x,1": "'x' at position 1",
        "1, 2 3.0 y": "'3.0' at position 3",
    }
    for text, token in first_bad.items():
        with pytest.raises(InvalidPermutation) as caught:
            parse_permutation(text)
        assert str(caught.value) == f"non-integer token {token}"


def test_str_round_trip():
    p = Permutation((3, 1, 4, 2))
    assert parse_permutation(str(p)) == p
    assert str(Permutation(())) == ""


def test_reverse_complement():
    p = Permutation((2, 4, 1, 3))
    assert reverse(p).values == (3, 1, 4, 2)
    assert complement(p).values == (3, 1, 4, 2)
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p


def test_centrosymmetric_means_reverse_complement_fixed():
    for values in itertools.permutations(range(1, 6)):
        p = Permutation(values)
        assert is_centrosymmetric(p) == (reverse(complement(p)) == p)


def test_descents():
    assert descent_set(Permutation((4, 2, 3, 1))) == (1, 3)
    assert descent_count(Permutation((1, 2, 3))) == 0
    assert descent_count(Permutation((3, 2, 1))) == 2
    assert descent_set(Permutation(())) == ()


def test_lis_length():
    assert lis_length(()) == 0
    assert lis_length((5, 1, 4, 2, 3)) == 3
    assert lis_length(range(1, 8)) == 7


@pytest.mark.parametrize(
    "word,pattern,expected",
    [
        ((2, 1, 4, 3), (1, 2, 3), False),
        ((2, 4, 1, 3), (1, 3, 2), True),
        ((6, 3, 5, 1), (3, 1, 2), True),
        ((1, 2), (1, 2, 3), False),
        ((), (1,), False),
    ],
)
def test_word_contains_pattern(word, pattern, expected):
    assert word_contains_pattern(word, pattern) is expected


@pytest.mark.parametrize(
    "pattern",
    [p for k in (1, 2, 3) for p in itertools.permutations(range(1, k + 1))],
    ids=lambda p: "".join(map(str, p)),
)
def test_scans_agree_with_backtracking(pattern):
    for m in range(9):
        for word in itertools.permutations(range(1, m + 1)):
            want = _backtrack_contains(word, pattern)
            assert word_contains_pattern(word, pattern) is want, word
            assert word_contains_pattern(list(word), pattern) is want, word


def _brute_contains(values, pattern):
    k = len(pattern)
    for combo in itertools.combinations(values, k):
        ranks = sorted(range(k), key=lambda i: combo[i])
        std = [0] * k
        for r, i in enumerate(ranks, start=1):
            std[i] = r
        if tuple(std) == tuple(pattern):
            return True
    return False


@given(perms_upto(7), st.permutations(range(1, 4)))
def test_contains_pattern_matches_brute_force(values, pattern):
    p = Permutation(tuple(values))
    expected = _brute_contains(p.values, tuple(pattern))
    assert contains_pattern(p, tuple(pattern)) == expected


def test_ltr_minima():
    assert ltr_minima(Permutation((4, 2, 3, 1))) == (4, 2, 1)
    assert ltr_minima(Permutation((1, 2, 3))) == (1,)
    assert ltr_minima(Permutation(())) == ()


def test_right_components_of_known_example():
    # 78645312 splits as 78|6|45|3|12 reading maximal right-hand blocks
    p = Permutation((7, 8, 6, 4, 5, 3, 1, 2))
    assert right_connected_components(p) == (
        (1, 2),
        (3, 3),
        (4, 5),
        (6, 6),
        (7, 8),
    )


def test_right_components_match_reversed_components():
    for m in range(8):
        for values in itertools.permutations(range(1, m + 1)):
            assert right_connected_components(Permutation(values)) == (
                right_components(values)
            ), values


@given(perms_upto(7))
def test_right_components_partition_positions(values):
    p = Permutation(tuple(values))
    blocks = right_connected_components(p)
    covered = [i for start, end in blocks for i in range(start, end + 1)]
    assert covered == list(range(1, len(p) + 1))


def test_descents_from_half_agrees_with_direct_count(catalogue):
    assert catalogue(3, "descents recoverable from the first half").ok


def test_descent_set_mirror_symmetry(catalogue):
    assert catalogue(3, "mirror-symmetric descent sets").ok


def test_statistics_match_their_index_loop_forms():
    for values in statistic_words():
        p = Permutation(values)
        centro = centrosymmetric_by_pairs(values)
        assert is_centrosymmetric(p) == centro, values
        assert descent_set(p) == descent_set_by_index(values), values
        assert descent_count(p) == descent_count_by_index(values), values
        if centro and len(values) % 2 == 0:
            assert descents_from_half(p) == descents_from_half_by_index(values), values
        else:
            with pytest.raises(InvalidPermutation):
                descents_from_half(p)


def test_rank_within_known_block():
    alphabet = (3, 4, 5, 7, 8, 9, 10, 12, 13, 14)
    assert rank_within((9, 7, 14, 13, 12), alphabet) == (6, 4, 10, 9, 8)


def test_require_member_messages():
    with pytest.raises(InvalidPermutation, match="not centrosymmetric"):
        require_member(Permutation((1, 3, 2)))
    with pytest.raises(InvalidPermutation, match="contains the pattern 123"):
        require_member(Permutation((1, 2, 3, 4)))


def paper_alphabets(p):
    """The alphabets A_0 .. A_s of p's minima decomposition as sorted
    tuples, by the definition: A_i is A_{i-1} without block i's entries
    and their complements."""
    m = len(p)
    alphabets = [tuple(range(1, m + 1))]
    for b in phi_trace(p).blocks:
        removed = {b.minimum, *b.word}
        removed |= {m + 1 - v for v in removed}
        alphabets.append(tuple(a for a in alphabets[-1] if a not in removed))
    return alphabets


def lower_median(alphabet):
    return alphabet[len(alphabet) // 2 - 1]


def test_minima_decomposition_of_figure_member():
    p = parse_permutation(PHI_FIGURE[0])
    blocks = phi_trace(p).blocks
    assert minima(blocks) == (11, 9, 7)
    assert block_lengths(blocks) == (2, 0, 3)
    assert tuple(b.tiny for b in blocks) == (False, False, True)
    alphabets = paper_alphabets(p)
    assert alphabets[0] == tuple(range(1, 17))
    assert alphabets[1] == (3, 4, 5, 7, 8, 9, 10, 12, 13, 14)
    assert lower_median(alphabets[0]) == 8


def test_tiny_flags_are_lower_medians():
    for n in range(7):
        for p in c123(2 * n):
            blocks = phi_trace(p).blocks
            medians = map(lower_median, paper_alphabets(p))
            flags = tuple(x == m for x, m in zip(minima(blocks), medians))
            assert tuple(b.tiny for b in blocks) == flags


def test_walk_ranks_match_the_alphabets():
    # rank is x's rank in A_{i-1} and n is half its size, by the definition
    for n in range(7):
        for p in c123(2 * n):
            walk = list(_walk_blocks(p.values[:n]))
            alphabets = paper_alphabets(p)
            assert len(walk) == len(alphabets) - 1
            for (x, _, rank, half, _), alphabet in zip(walk, alphabets):
                assert (rank, half) == (alphabet.index(x) + 1, len(alphabet) // 2)


def test_minima_decomposition_tiny_flags_monotone(catalogue):
    assert catalogue(3, "minima decomposition well formed").ok


def test_left_half_word():
    assert left_half_word(Permutation((4, 2, 3, 1))) == (4, 2)
    with pytest.raises(InvalidPermutation):
        left_half_word(Permutation((1, 3, 2)))


def test_stats_record():
    record = stats(Permutation((4, 2, 3, 1)))
    assert record == {
        "n": 4,
        "centrosymmetric": True,
        "descents": [1, 3],
        "des": 2,
        "ltr_minima": [4, 2, 1],
        "tiny_minima": [2],
        "right_components": 3,
    }
    assert stats(Permutation((1, 2, 3)))["tiny_minima"] is None
    for n in range(6):
        for p in c123(2 * n):
            tiny = list(tiny_values(phi_trace(p).blocks))
            assert stats(p)["tiny_minima"] == tiny
