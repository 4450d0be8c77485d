"""Plain reference computations that tests compare the library against.

The library has no copy of these, so a test that uses one checks the
library against an independent route.
"""

from bisect import bisect_left
from itertools import permutations


def lis_length(seq) -> int:
    """Length of a longest increasing subsequence (patience sorting)."""
    tails = []
    for v in seq:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def centro_avoiders(length: int, pattern) -> list:
    """Value tuples of the centrosymmetric permutations of the length that
    avoid 123 or 321, in lexicographic order, from every half choice with
    no pruning.  A word avoids 321 when its complement avoids 123."""
    n, top = length // 2, length + 1
    middle = (n + 1,) if length % 2 else ()
    flip = {(1, 2, 3): False, (3, 2, 1): True}[tuple(pattern)]
    out = []
    for half in permutations([v for v in range(1, top) if v not in middle], n):
        if len({min(v, top - v) for v in half}) < n:
            continue  # the half holds both values of a complement pair
        word = half + middle + tuple(top - v for v in reversed(half))
        if lis_length([top - v for v in word] if flip else word) < 3:
            out.append(word)
    return out
