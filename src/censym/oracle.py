"""Exhaustive ground truth, independent of the bijection and the formulas.

Centrosymmetric permutations are generated directly from first-half
choices: the complement pairs {v, m+1-v} partition the values, each pair
contributes exactly one value to the first half, and the second half is
forced (odd lengths pin the middle fixed point).  That is n! 2^n candidates
for length 2n instead of (2n)!.

Pattern filters prune on what every completion of a partial first half
must contain.  The half fixes its mirror image at positions 2n+1-i as well
(and an odd length the middle), so half + middle + mirror is a
subsequence of every completion.  Each value x of a complement pair not
yet used lands between the half and its mirror, whichever of the pair the
half takes later, so half + [x] + mirror is a subsequence of every
completion too.  A node is cut as soon as one of these known words
contains the pattern.  The cuts drop only branches without members, so
the members come out in the same (lexicographic) order as an unpruned
search.

The search is one loop over an explicit stack, one frame per value of
the half but the last, and it yields each member as soon as it reaches
its leaf.  The mirror is kept next to the half, as a deque that gains
m+1-v on the left when the half gains v, so a value v that ends the
half is a leaf with no frame of its own: its word is the one tuple
half + [v] + middle + [m+1-v] + mirror.

The whole class, with no pattern, needs no cut and no leaf test, so the
completions of a frame with 2k free values depend only on the order of
those values: the k-index words of _tail_words(k).  That search pushes no
frame of 2 TAIL free values.  It reads every completion of one from
half + free + middle + mirror with one itemgetter per word, built once per
length, since top - free[i] is free[2k-1-i]; for n <= TAIL the root is
completed the same way.  So only pattern and subclass searches reach a
leaf.

For 123 the cut needs no scan of the known words.  Each frame keeps two
numbers for its half: lo, the least value, and s, the least value that
ends an ascent.  A new value v past s completes a 123; otherwise it
lowers lo or s, a leaf's value too, so a leaf meets the same cut.
With m+1 = top, the known words contain 123 exactly when
s < top - lo (an occurrence across the half and its mirror) or some x
between them has x > s or lo < x < top - lo; the free values are sorted
and closed under complement, so that is a test of two of them and the
middle.  321 is the same test on top - v, since the complement maps the
free values and the mirror onto themselves.

For 132 each frame keeps three numbers: lo; g, the least value above lo
that the half lacks; and d, the least value of the half with a smaller
value after it.  While the known words avoid 132, the half holds the
values from lo to g - 1, and from d to top - 1 when d > g.  So a new
value u > lo is cut unless it is g (lo, u, g is an occurrence, since g
comes after the half in every completion); u = g keeps lo and d and
moves g to g + 1, or to top when g + 1 is d.  A new u < lo is cut when
u + lo < top (u, top - u, top - lo); otherwise lo becomes u, d becomes
the old lo, and g becomes u + 1 unless that is the old lo.  With y the
least value left between the half and its mirror, the node is then cut
when y + d < top (y, top - e, top - d for an e < d after d) or
y < lo < top - lo (lo, top - y, top - lo).  Every other occurrence the
parent's words lack passes through two of u, x and top - u; each of the
seven ways that can happen implies one of these four cuts, so the cut is
exact.  213 is the reverse-complement of 132, which maps half + [x] +
mirror to half + [top - x] + mirror, so the known words contain 213
exactly when they contain 132 and the search cuts 213 the same way;
312 and 231 take the same cuts on top - v.

Other patterns test the known words with perms.word_contains_pattern.
Whatever the pattern, the one containment test on the whole permutation
decides membership at every leaf; the summaries only decide where the
search cuts.

The search alone decides the four subclasses, from their definitions on
the permutation, so this module imports nothing but perms.  A member p
of C_2n(123) is in k when its half holds only values above n; ck is k
with two right components, g is not k with one, and composite is not k
with more.  A component ends after position i exactly when
min(p(1..i)) = 2n+1-i, and as p is centrosymmetric, exactly when one
ends after 2n-i, so the ends in the half fix them all.  A k or ck frame
tries only its free values above n.  A half of length i = n+1-h, h the
pairs free at its frame, ends a component when its least value lo is
n+h, and p is in k exactly when one ends at n.  So ck cuts an end for
i < n, g for i <= n, and composite for i = n; a composite frame carries
one bit, set once an end for some i < n is seen, and its leaf is cut
unless the bit is set.  Only k holds the empty permutation.  The cuts
drop only branches without members and keep no leaf outside the
subclass, so a subclass comes out in the order of its class.
"""

import os
from collections import Counter, deque, namedtuple
from itertools import permutations as _all_permutations, repeat
from math import inf
from operator import itemgetter

from .perms import Permutation, descent_count, word_contains_pattern

GENERAL_MAX_LENGTH = 9
TAIL = 3  # the unrestricted search completes a half's last TAIL values at once
DEFAULT_MAX_EVEN_LENGTH = 16
SUBCLASSES = ("k", "ck", "g", "composite")


class CapExceeded(ValueError):
    """Requested enumeration is larger than the configured budget."""


def length_cap(default: int) -> int:
    """The even length set by the environment variable CENSYM_MAX_ORACLE_N.

    Unset or empty means default; any other value must be a non-negative
    decimal integer.
    """
    text = os.environ.get("CENSYM_MAX_ORACLE_N", "")
    if not text:
        return default
    if not (text.isascii() and text.isdigit()):
        raise ValueError(
            f"CENSYM_MAX_ORACLE_N must be a non-negative decimal integer, not {text!r}"
        )
    return int(text)


class ClassSpec(
    namedtuple(
        "ClassSpec",
        "length centrosymmetric avoid subclass",
        defaults=(False, None, None),
    )
):
    """A permutation class to enumerate by brute force.

    avoid is a pattern, a permutation in one-line tuple form such as
    (1, 2, 3), or None.
    subclass refines the even centrosymmetric 123-avoiders by the shape of
    their path image: 'k' Dyck paths, 'ck' elevated Dyck paths, 'g'
    elevated proper prefixes, 'composite' the rest.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.avoid is not None:
            if not isinstance(self.avoid, tuple):
                raise ValueError("avoid must be a tuple of values or None")
            Permutation(self.avoid)  # raises unless avoid is a permutation
        if self.subclass is not None:
            if self.subclass not in SUBCLASSES:
                raise ValueError(f"unknown subclass {self.subclass!r}")
            if not (
                self.centrosymmetric
                and self.avoid == (1, 2, 3)
                and self.length % 2 == 0
            ):
                raise ValueError(
                    "subclasses are defined for even centrosymmetric 123-avoiders"
                )
        return self


def _check_cap(spec: ClassSpec):
    if spec.centrosymmetric:
        cap = length_cap(DEFAULT_MAX_EVEN_LENGTH)
        limit = cap if spec.length % 2 == 0 else cap + 1
        if spec.length > limit:
            raise CapExceeded(
                f"centrosymmetric length {spec.length} exceeds cap {limit} "
                "(set CENSYM_MAX_ORACLE_N to raise it)"
            )
    elif spec.length > GENERAL_MAX_LENGTH:
        raise CapExceeded(
            f"general length {spec.length} exceeds cap {GENERAL_MAX_LENGTH}"
        )


def _tail_words(k: int) -> list:
    """Index words of every half over a sorted, complement-closed list of
    2k values, in lexicographic order.

    A half takes one value of each pair {free[i], free[2k-1-i]}, so a word
    is k indices, none equal to an earlier one or its mirror 2k-1-i.
    """
    words = [()]
    for _ in range(k):
        words = [
            (*w, i)
            for w in words
            for i in range(2 * k)
            if i not in w and 2 * k - 1 - i not in w
        ]
    return words


def _tail_getters(n: int, mid: int) -> list:
    """One itemgetter per word of _tail_words(k), k = min(n, TAIL), that
    reads a whole member of length 2n + mid from half + free + middle +
    mirror, the half and its mirror of length n - k and free of 2k values.
    """
    k = min(n, TAIL)
    h = n - k
    f = h + 2 * k  # where the middle starts
    return [
        itemgetter(
            *range(h),
            *(h + i for i in w),
            *range(f, f + mid),
            *(f - 1 - i for i in reversed(w)),  # top - free[i] is free[2k-1-i]
            *range(f + mid, f + mid + h),
        )
        for w in _tail_words(k)
    ]


def _centro_members(length: int, avoid, subclass=None):
    """Centrosymmetric permutations from first-half choices, filtered, each
    yielded as soon as the search reaches it, in lexicographic order.

    A subclass search cuts every branch that holds none of its members,
    so each member of the pattern class that it yields is in the subclass.
    With no pattern (and so no subclass) a half's last min(n, TAIL) values
    come from the getters of _tail_getters, a map per frame, and no leaf
    is reached.
    """
    n = length // 2
    top = length + 1  # a complement pair is {v, top - v}
    middle = [n + 1] if length % 2 else []
    if n == 0:  # the empty permutation is in k and in no other subclass
        if subclass in (None, "k") and (
            avoid is None or not word_contains_pattern(middle, avoid)
        ):
            yield Permutation._trusted(middle)
        return
    cut123 = avoid in ((1, 2, 3), (3, 2, 1))  # the search cuts by 123 summaries
    cut132 = avoid in ((1, 3, 2), (2, 1, 3), (3, 1, 2), (2, 3, 1))  # by 132 summaries
    flip = avoid in ((3, 2, 1), (3, 1, 2), (2, 3, 1))  # the summaries read top - v
    high = subclass in ("k", "ck")  # the half takes only the upper free values
    # ck and g have no right component ending before n, and g and composite
    # none at n, where k has one; one ends at n + 1 - h
    none_before = subclass in ("ck", "g")
    none_at = subclass in ("g", "composite")

    def known_words_contain(free):
        return word_contains_pattern((*half, *middle, *mirror), avoid) or any(
            word_contains_pattern((*half, x, *mirror), avoid) for x in free
        )

    half = []
    mirror = deque()  # top - w for w in reversed(half)
    # a frame: the half's free values (sorted, closed under complement),
    # the index of the next one to try, the half's summaries: lo and s for
    # 123, lo and the pair (g, d) for 132, and split: the half ends a right
    # component before n, or the subclass is not composite
    free = [v for v in range(1, top) if v not in middle]
    if avoid is None:  # the whole class: a subclass comes with a pattern
        getters = _tail_getters(n, len(middle))

        def completions(base):  # half + free + middle + mirror -> members
            words = map(itemgetter.__call__, getters, repeat(base))
            return map(Permutation._trusted, words)

        if n <= TAIL:
            yield from completions((*free, *middle))
            return
    split = subclass != "composite"
    stack = [[free, n if high else 0, inf, (inf, inf) if cut132 else inf, split]]
    while stack:
        frame = stack[-1]
        free, i, lo, s, split = frame
        size = len(free)
        if i == size:
            stack.pop()
            if stack:
                half.pop()
                mirror.popleft()
            continue
        frame[1] = i + 1
        v = free[i]
        j = size - 1 - i  # free[j] == top - v
        a, b = (i, j) if i < j else (j, i)  # indices of the pair's lower, upper value
        if cut123:
            u = top - v if flip else v
            if u > s:  # half + [u] contains 123
                continue
            if u < lo:
                lo = u
            elif u < s:
                s = u
            # an occurrence across the half and its mirror, or through one
            # value x between them: x > s, or lo < x < top - lo.  Those x are
            # the middle (top / 2) and the free values but the pair at a, b:
            # test the largest of them and the largest below top / 2
            if s < top - lo or (middle and lo < middle[0]):
                continue
            h = size // 2
            if h > 1 and (
                free[-2 if a == 0 else -1] > s
                or free[h - 2 if a == h - 1 else h - 1] > lo
            ):
                continue
            # a right component ends with the half, at n + 1 - h, when lo is
            # top - (n + 1 - h); a composite leaf needs one ended before n
            if subclass and lo == n + h:
                if none_before if h > 1 else none_at:
                    continue
                split = True
            if not split and h == 1:
                continue
        elif cut132:
            u = top - v if flip else v
            g, d = s
            if u > lo:
                if u != g:  # lo, u, g
                    continue
                g = top if g + 1 == d else g + 1  # the half holds d to top - 1
            elif u + lo < top:  # u, top - u, top - lo
                continue
            else:
                if u + 1 < lo:
                    g = u + 1
                lo, d = u, lo
            # y is the least value left between the half and its mirror, top
            # for none: y, top - e, top - d for an e < d after d in the half,
            # or lo, top - y, top - lo
            if size > 2:
                y = free[1 if a == 0 else 0]
            else:
                y = middle[0] if middle else top
            if y + d < top or y < lo < top - lo:
                continue
            s = (g, d)
        if size == 2:  # v ends the half: a leaf
            word = (*half, v, *middle, top - v, *mirror)
            if not word_contains_pattern(word, avoid):
                yield Permutation._trusted(word)
            continue
        child = free[:a] + free[a + 1 : b] + free[b + 1 :]
        if avoid is None and size == 2 * TAIL + 2:  # the child's whole tail at once
            yield from completions((*half, v, *child, *middle, top - v, *mirror))
            continue
        half.append(v)
        mirror.appendleft(top - v)
        if avoid is None or cut123 or cut132 or not known_words_contain(child):
            stack.append([child, size // 2 - 1 if high else 0, lo, s, split])
            continue
        half.pop()
        mirror.popleft()


def _general_members(length: int, avoid):
    for values in _all_permutations(range(1, length + 1)):
        if avoid is None or not word_contains_pattern(values, avoid):
            yield Permutation._trusted(values)


def enumerate_class(spec: ClassSpec):
    """Members of the class, in a deterministic (lexicographic) order."""
    _check_cap(spec)
    if spec.centrosymmetric:
        members = _centro_members(spec.length, spec.avoid, spec.subclass)
    else:
        members = _general_members(spec.length, spec.avoid)
    yield from members


def descent_histogram(spec: ClassSpec) -> dict:
    """Counter of descent numbers over the class, as a plain dict."""
    return dict(Counter(descent_count(p) for p in enumerate_class(spec)))
