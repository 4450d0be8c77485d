"""Plain reference computations that tests compare the library against.

The library has no copy of these, so a test that uses one checks the
library against an independent route.
"""

import random
from bisect import bisect_left
from itertools import accumulate, permutations, product

from censym.perms import Permutation
from censym.series import BivariateSeries, _div, _pneg, _trim


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


def reverse(p: Permutation) -> Permutation:
    return Permutation(p.values[::-1])


def complement(p: Permutation) -> Permutation:
    return Permutation(len(p) + 1 - v for v in p.values)


def dyck_prefixes(length: int) -> list:
    """Step strings of the Dyck prefixes of the length, lexicographic with
    U < D: every U/D word whose partial sums are all nonnegative."""
    return [
        "".join(word)
        for word in product("UD", repeat=length)
        if min(accumulate((1 if c == "U" else -1 for c in word), initial=0)) >= 0
    ]


def contains_pattern3(word, pattern) -> bool:
    """Does the word contain the length-3 pattern (a, b, c)?  Some value y
    of the word plays b: a value before y must sit against y as a against
    b, a value after y as c against b, and the two against each other as a
    against c, so the least or the greatest of each side decides."""
    a, b, c = pattern
    for j, y in enumerate(word):
        before = [x for x in word[:j] if (x < y) == (a < b)]
        after = [z for z in word[j + 1 :] if (z < y) == (c < b)]
        if before and after and (
            min(before) < max(after) if a < c else max(before) > min(after)
        ):
            return True
    return False


def centro_avoiders(length: int, pattern=None) -> list:
    """Value tuples of the centrosymmetric permutations of the length that
    avoid the length-3 pattern (all of them for pattern None), in
    lexicographic order, from every half choice with no pruning: an order
    of the complement pairs {k, top - k}, k <= n, and one value of each."""
    n, top = length // 2, length + 1
    middle = (n + 1,) if length % 2 else ()
    out = []
    for pairs in permutations(range(1, n + 1)):
        for uppers in product((False, True), repeat=n):
            half = tuple(top - k if up else k for k, up in zip(pairs, uppers))
            word = half + middle + tuple(top - v for v in reversed(half))
            if pattern is None or not contains_pattern3(word, pattern):
                out.append(word)
    return sorted(out)


# the perms statistics by index loops, a second route to each of them


def centrosymmetric_by_pairs(values) -> bool:
    n = len(values)
    return all(values[i] + values[n - 1 - i] == n + 1 for i in range(n))


def descent_set_by_index(values) -> tuple:
    return tuple(i for i in range(1, len(values)) if values[i - 1] > values[i])


def descent_count_by_index(values) -> int:
    return sum(values[i - 1] > values[i] for i in range(1, len(values)))


def descents_from_half_by_index(values) -> int:
    """2 des(w) + [w(n) > n] for the first half w of a length-2n word."""
    n = len(values) // 2
    if n == 0:
        return 0
    w = values[:n]
    d = sum(w[i] > w[i + 1] for i in range(n - 1))
    return 2 * d + (1 if w[-1] > n else 0)


def mirror_closed_by_set(descents, m) -> bool:
    """Is the set of descent positions closed under i -> m - i?"""
    dset = set(descents)
    return all((m - i) in dset for i in dset)


def statistic_words() -> list:
    """All of C_m for m <= 10, then random words of lengths 0 to 30, most
    of them not centrosymmetric."""
    rng = random.Random(0)
    words = [w for m in range(11) for w in centro_avoiders(m)]
    for length in range(31):
        words.extend(tuple(rng.sample(range(1, length + 1), length)) for _ in range(20))
    return words


def tiny_values(blocks) -> tuple:
    """The tiny minima of a trace's blocks, in block order."""
    return tuple(b.minimum for b in blocks if b.tiny)


def minima(blocks) -> tuple:
    """The left-to-right minima x_i of a trace's blocks."""
    return tuple(b.minimum for b in blocks)


def block_lengths(blocks) -> tuple:
    """The block word lengths l_1 .. l_s of a trace's blocks."""
    return tuple(len(b.word) for b in blocks)


def right_components(values) -> tuple:
    """Right connected components as 1-based (start, end) pairs: the
    connected components of the reversed word (intervals I it maps onto
    I, cut after i when max(w(1..i)) = i), mapped back and sorted."""
    m = len(values)
    components = []
    start = mx = 0
    for i, v in enumerate(reversed(values), start=1):
        mx = max(mx, v)
        if mx == i:
            components.append((start + 1, i))
            start = i
    return tuple(sorted((m + 1 - b, m + 1 - a) for a, b in components))


def c132_recursive(n: int) -> list:
    """Value tuples of the centrosymmetric 132-avoiders of length n.

    Even lengths: the identity, then for each y above n/2 the values
    y..n, a shorter member shifted into the middle values, and 1..n+1-y.
    Odd lengths insert the middle fixed point into each member of length
    n-1, shifting the values above it up by one.
    """
    if n == 0:
        return [()]
    if n % 2:
        h = n // 2
        out = []
        for w in c132_recursive(n - 1):
            shifted = tuple(v + (v > h) for v in w)
            out.append(shifted[:h] + (h + 1,) + shifted[h:])
        return out
    out = [tuple(range(1, n + 1))]
    for y in range(n // 2 + 1, n + 1):
        for inner in c132_recursive(2 * y - 2 - n):
            middle = tuple(v + n + 1 - y for v in inner)
            out.append(tuple(range(y, n + 1)) + middle + tuple(range(1, n + 2 - y)))
    return out


def padd_by_index(a, b) -> tuple:
    """The sum of two y-polynomials, one index at a time, trimmed."""
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def pdot_by_index(a, b) -> tuple:
    """The sum of p * q over the pairs (p, q) of zip(a, b), each product
    by the dense double loop over coefficient indices, trimmed."""
    out = []
    for p, q in zip(a, b):
        if p and q:
            out += [0] * (len(p) + len(q) - 1 - len(out))
            for i, cp in enumerate(p):
                if cp:
                    for j, cq in enumerate(q):
                        out[i + j] += cp * cq
    return _trim(out)


def series_sqrt(d: BivariateSeries) -> BivariateSeries:
    """Square root of a series with constant term exactly 1, by convolving
    the root with itself: r_n = (d_n - sum_{0<i<n} r_i r_{n-i}) / 2."""
    if d.coeffs[0] != (1,):
        raise ValueError("constant term must be 1")
    root = [(1,)]
    for i in range(1, d.order + 1):
        known = pdot_by_index(root[1:i], reversed(root[1:i]))
        acc = padd_by_index(d.coeffs[i], _pneg(known))
        root.append(tuple(_div(c, 2) for c in acc))
    return BivariateSeries(d.order, root)
