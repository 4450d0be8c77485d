"""Uniform random Dyck prefixes from exact ballot counts.

A Dyck prefix is a U/D word whose partial heights never go below 0.  The
sampler draws each step with probability proportional to the number of
valid completions after it, counted exactly with integers, so every prefix
of the requested length is equally likely and no draw is rejected.

With r steps left at height h, the number of completions is

    N(r, h) = C(r, u0) + C(r, u0 + 1) + ... + C(r, u0 + h),
    u0 = ceil((r - h) / 2),

by the reflection principle.  N(r, h) = N(r-1, h+1) + N(r-1, h-1) and the
two windows differ only in their end terms, so

    N(r-1, h+1) - N(r-1, h-1) = C(r-1, a) + C(r-1, a + h + 1),
    a = ceil((r - h) / 2) - 1,

which needs two binomials per step.  Both are carried from step to step
by exact one-step updates instead of being recomputed.
"""

import random
from math import comb


def completions(r: int, h: int) -> int:
    """Number of U/D words of r steps from height h that stay >= 0."""
    if h < 0:
        return 0
    u0 = (r - h + 1) // 2
    return sum(comb(r, u) for u in range(max(u0, 0), min(u0 + h, r) + 1))


def _binom(m: int, k: int) -> int:
    return comb(m, k) if 0 <= k <= m else 0


def random_prefix(rng: random.Random, length: int) -> str:
    """One Dyck prefix of the given length, uniform over all of them."""
    if length <= 0:
        return ""
    h = 0
    total = completions(length, 0)
    # C(m, lo) and C(m, hi) for the current row m = r - 1
    m = length - 1
    lo = (length + 1) // 2 - 1
    hi = lo + 1
    c_lo, c_hi = _binom(m, lo), _binom(m, hi)
    steps = []
    for r in range(length, 0, -1):
        up = total if h == 0 else (total + c_lo + c_hi) // 2
        go_up = h == 0 or rng.randrange(total) < up
        if go_up:
            steps.append("U")
            h += 1
            total = up
        else:
            steps.append("D")
            h -= 1
            total -= up
        if m == 0:
            break
        # next row is m - 1; U moves lo down by one, D moves hi down by one
        # C(m-1, k) = C(m, k) (m-k)/m and C(m-1, k-1) = C(m, k) k/m
        if go_up:
            c_lo, lo = c_lo * lo // m, lo - 1
            c_hi = c_hi * (m - hi) // m
        else:
            c_lo = c_lo * (m - lo) // m
            c_hi, hi = c_hi * hi // m, hi - 1
        m -= 1
    return "".join(steps)


def random_prefixes(seed: int, count: int, length: int) -> list:
    """``count`` independent uniform Dyck prefixes, fixed by ``seed``."""
    rng = random.Random(seed)
    return [random_prefix(rng, length) for _ in range(count)]
