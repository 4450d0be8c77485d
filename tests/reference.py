"""Plain reference computations that tests compare the library against.

The library has no copy of these, so a test that uses one checks the
library against an independent route.
"""

from bisect import bisect_left


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
