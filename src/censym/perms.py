"""Permutations in one-line notation and the statistics used throughout.

Positions and values are 1-based.  A permutation of length 2n is
centrosymmetric when p(i) + p(2n+1-i) = 2n+1 for every i, i.e. its plot is
invariant under a half-turn.  The empty permutation is a valid member of
every class here and anchors the recurrences at n = 0.

_walk_blocks walks the left-to-right-minima blocks of a 123-avoiding
member's first half; stats reads it for the tiny minima, and phi reads
it too.  Its public record, block by block, is bijection.phi_trace.
"""

from collections import deque
from itertools import compress
from math import inf
from operator import gt


class InvalidPermutation(ValueError):
    """Input is not a permutation or lacks a property an operation requires."""


class VerificationError(Exception):
    """A theorem-backed consistency check failed for a concrete input."""


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> str(Permutation((2, 4, 1, 3)))
    '2 4 1 3'
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        n = len(values)
        seen = set()
        for pos, v in enumerate(values, start=1):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidPermutation(f"non-integer entry {v!r} at position {pos}")
            if not 1 <= v <= n:
                raise InvalidPermutation(
                    f"value {v} out of range 1..{n} at position {pos}"
                )
            if v in seen:
                raise InvalidPermutation(f"duplicate value {v} at position {pos}")
            seen.add(v)
        self.values = values

    @classmethod
    def _trusted(cls, values):
        """A permutation of values the library built itself, unchecked."""
        p = object.__new__(cls)
        p.values = tuple(values)
        return p

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.values == other.values

    def __lt__(self, other):
        return self.values < other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Permutation({self.values!r})"

    def __str__(self):
        return " ".join(str(v) for v in self.values)


def parse_permutation(text: str) -> Permutation:
    """Parse space- or comma-separated 1-based values.

    >>> parse_permutation("2, 4, 1, 3") == Permutation((2, 4, 1, 3))
    True
    """
    tokens = text.replace(",", " ").split()
    try:
        values = tuple(map(int, tokens))
    except ValueError:  # name the first token that is not an int
        for pos, tok in enumerate(tokens, start=1):
            try:
                int(tok)
            except ValueError:
                raise InvalidPermutation(
                    f"non-integer token {tok!r} at position {pos}"
                ) from None
    return Permutation(values)


def is_centrosymmetric(p: Permutation) -> bool:
    """Is p its own reverse complement?"""
    v = p.values
    return v == tuple(map((len(v) + 1).__sub__, reversed(v)))


def descent_set(p: Permutation) -> tuple:
    """Positions i with p(i) > p(i+1), 1-based."""
    v = p.values
    return tuple(compress(range(1, len(v)), map(gt, v, v[1:])))


def descent_count(p: Permutation) -> int:
    v = p.values
    return sum(map(gt, v, v[1:]))


def _backtrack_contains(word: tuple, pattern: tuple) -> bool:
    """Containment by pruned backtracking over positions.

    An occurrence is grown left to right, and every partial choice must
    already be order-isomorphic to the corresponding pattern prefix.  The
    chosen positions are an explicit stack: i is the next position to try
    for the pattern entry after them.
    """
    n, k = len(word), len(pattern)
    chosen = []
    i = 0
    while len(chosen) < k:
        m = len(chosen)
        if i <= n - (k - m):
            v = word[i]
            if all(
                (v > word[c]) == (pattern[m] > pattern[j])
                for j, c in enumerate(chosen)
            ):
                chosen.append(i)
            i += 1
        elif chosen:
            i = chosen.pop() + 1
        else:
            return False
    return True


def _has_ascent(word) -> bool:
    return any(a < b for a, b in zip(word, word[1:]))


def _contains_123(word) -> bool:
    """Left to right, keeping the least value and the least end of an ascent."""
    low = mid = inf
    for v in word:
        if v > mid:
            return True
        if v > low:
            mid = v
        else:
            low = v
    return False


def _contains_132(word) -> bool:
    """Right to left: a stack of candidate 2s and the largest 2 under a 3."""
    two = -inf
    stack = []
    for v in reversed(word):
        if v < two:
            return True
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return False


# Patterns of length 1 to 3 and their linear scans; reverse (w[::-1]) and
# complement (negation, which reverses the order) carry 321 onto 123 and
# 231, 312, 213 onto 132.
_SCANS = {
    (1,): bool,
    (1, 2): _has_ascent,
    (2, 1): lambda w: _has_ascent(w[::-1]),
    (1, 2, 3): _contains_123,
    (3, 2, 1): lambda w: _contains_123(w[::-1]),
    (1, 3, 2): _contains_132,
    (2, 3, 1): lambda w: _contains_132(w[::-1]),
    (3, 1, 2): lambda w: _contains_132([-v for v in w]),
    (2, 1, 3): lambda w: _contains_132([-v for v in reversed(w)]),
}


def word_contains_pattern(word, pattern) -> bool:
    """Classical containment for a word of distinct integers.

    Every permutation pattern of length 1 to 3 has an O(len(word)) scan:
    123 keeps a running minimum and second minimum, 132 a right-to-left
    stack, and the other 3-patterns reverse and/or complement the word
    onto one of those two.  The empty pattern and longer patterns go
    through pruned backtracking over positions.  word may be any
    iterable.
    """
    word = tuple(word)
    pattern = tuple(pattern)
    scan = _SCANS.get(pattern)
    if scan is None:
        return _backtrack_contains(word, pattern)
    return scan(word)


def contains_pattern(p: Permutation, pattern) -> bool:
    """Does p contain the pattern as an order-isomorphic subsequence?

    The pattern is validated as a permutation first.
    """
    pat = pattern if isinstance(pattern, Permutation) else Permutation(pattern)
    return word_contains_pattern(p.values, pat.values)


def ltr_minima(p: Permutation) -> tuple:
    """Values of the left-to-right minima, in position order."""
    out = []
    cur = len(p) + 1
    for v in p.values:
        if v < cur:
            out.append(v)
            cur = v
    return tuple(out)


def right_connected_components(p: Permutation) -> tuple:
    """Finest split into position intervals I with p(I) = m+1-I, read
    left to right, as 1-based (start, end) pairs.

    These are the connected components of the reversed permutation,
    mapped back.  A cut follows position i exactly when
    min(p(1..i)) = m+1-i.
    """
    m = len(p)
    out = []
    start = 1
    low = m + 1
    for i, v in enumerate(p.values, start=1):
        if v < low:
            low = v
        if low == m + 1 - i:
            out.append((start, i))
            start = i + 1
    return tuple(out)


def _require_even_centrosymmetric(p: Permutation):
    v = p.values  # the test of is_centrosymmetric, one call fewer per member
    if len(v) % 2 or v != tuple(map((len(v) + 1).__sub__, reversed(v))):
        raise InvalidPermutation("not centrosymmetric of even length")


def require_member(p: Permutation):
    """Check p is an even-length centrosymmetric 123-avoider."""
    _require_even_centrosymmetric(p)
    if word_contains_pattern(p.values, (1, 2, 3)):
        raise InvalidPermutation("contains the pattern 123")


def left_half_word(p: Permutation) -> tuple:
    """First n entries of a centrosymmetric permutation of length 2n.

    The first half determines the whole permutation: position 2n+1-i must
    carry the complement of position i.
    """
    _require_even_centrosymmetric(p)
    return p.values[: len(p) // 2]


def descents_from_half(p: Permutation) -> int:
    """des(p) recovered from the first half alone.

    Descent positions of a centrosymmetric permutation are mirror
    symmetric, so des(p) = 2 des(w) plus one middle descent exactly when
    p(n) > n.
    """
    _require_even_centrosymmetric(p)
    n = len(p) // 2
    if n == 0:
        return 0
    w = p.values[:n]
    return 2 * sum(map(gt, w, w[1:])) + (w[-1] > n)


def rank_within(word, alphabet) -> tuple:
    """Rewrite a word over a sorted alphabet by ranks (order isomorphism)."""
    rank = {a: i for i, a in enumerate(alphabet, start=1)}
    return tuple(rank[v] for v in word)


def embed_in(word, alphabet) -> tuple:
    """Inverse of rank_within: send value v to the v-th smallest symbol."""
    return tuple(alphabet[v - 1] for v in word)


class _UpperValues:
    """The live upper values of a complement-closed alphabet, descending.

    The alphabet starts as {1..2N}, and values leave it in complement
    pairs {v, 2N+1-v}, so it is fixed by its live values above N.  They
    are kept as S = moved followed by the untouched run hi, hi-1, .., lo,
    where moved is a descending deque of values above hi.  pop and index
    are O(1) at the deque's ends and inside the run; a value leaves the
    run at most once, so a walk that only takes those positions is
    linear in N.  Any other position goes through the deque's own index
    and del.
    """

    def __init__(self, half):
        self.moved = deque()
        self.hi, self.lo = 2 * half, half + 1

    def index(self, u):
        """Position of the live upper value u in S."""
        moved = self.moved
        if u <= self.hi:
            return len(moved) + self.hi - u
        if moved[0] == u:
            return 0
        if moved[-1] == u:
            return len(moved) - 1
        return moved.index(u)

    def pop(self, i):
        """Remove S[i] and return it."""
        moved = self.moved
        m = len(moved)
        if i >= m:
            v = self.hi - (i - m)
            if v == self.lo:
                self.lo += 1
            else:  # the run above v moves onto the deque
                moved.extend(range(self.hi, v, -1))
                self.hi = v - 1
            return v
        if i == 0:
            return moved.popleft()
        if i == m - 1:
            return moved.pop()
        v = moved[i]
        del moved[i]
        return v


def _walk_blocks(w):
    """Walk the minima blocks of a half word w on {1..2n}, left to right.

    Yields (x, word, rank, n, tiny) for each block x word: rank is x's rank
    among the live values A_{i-1} (x renormalized onto the remainder's
    {1..2n}), n is the remainder's half length, so |A_{i-1}| = 2n, and
    tiny says whether x is the lower median of A_{i-1}.  A value above N
    (N = len(w)) ranks 2n - index(x) among the live values, and one at or
    below N ranks index(2N+1-x) + 1, with index its position in the live
    upper values.  On a member every value leaves from the position
    phi_inverse takes it from, so the walk is linear.  A word holding a
    value twice, or a value and its complement, would remove a value
    twice and raises VerificationError before the first block.
    """
    half = len(w)
    full = 2 * half
    if len({*w, *(full + 1 - v for v in w)}) != full:
        raise VerificationError("a block removes a value twice")
    upper = _UpperValues(half)
    i = 0
    while i < half:
        x = w[i]
        j = i + 1
        while j < half and w[j] > x:
            j += 1
        n = half - i
        pos = upper.index(x if x > half else full + 1 - x)
        rank = 2 * n - pos if x > half else pos + 1
        yield x, w[i + 1 : j], rank, n, rank == n
        upper.pop(pos)
        for v in w[i + 1 : j]:
            upper.pop(upper.index(v if v > half else full + 1 - v))
        i = j


def stats(p: Permutation) -> dict:
    """The statistics record emitted by the command line interface.

    tiny_minima is populated only for even-length centrosymmetric
    123-avoiders, where the notion is defined; otherwise it is None.
    """
    record = {
        "n": len(p),
        "centrosymmetric": is_centrosymmetric(p),
        "descents": list(descent_set(p)),
        "des": descent_count(p),
        "ltr_minima": list(ltr_minima(p)),
        "tiny_minima": None,
        "right_components": len(right_connected_components(p)),
    }
    if (
        len(p) % 2 == 0
        and record["centrosymmetric"]
        and not contains_pattern(p, (1, 2, 3))
    ):
        half = p.values[: len(p) // 2]
        record["tiny_minima"] = [x for x, *_, tiny in _walk_blocks(half) if tiny]
    return record
