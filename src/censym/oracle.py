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
contains the pattern; at a leaf the known word is the whole permutation,
so the test there is the final filter.  The cuts drop only branches
without members, so the members come out in the same (lexicographic)
order as an unpruned search.

The k, ck and g subclasses are read off the permutation alone (see
_subclass_match), so this module imports nothing but perms.
"""

import os
from collections import Counter
from dataclasses import dataclass
from itertools import permutations as _all_permutations

from .perms import (
    Permutation,
    descent_count,
    right_connected_components,
    word_contains_pattern,
)

GENERAL_MAX_LENGTH = 9
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


def max_even_length() -> int:
    """Cap on centrosymmetric even lengths (odd may go one further)."""
    return length_cap(DEFAULT_MAX_EVEN_LENGTH)


@dataclass(frozen=True)
class ClassSpec:
    """A permutation class to enumerate by brute force.

    avoid is a pattern in one-line tuple form, e.g. (1, 2, 3).  subclass
    refines the even centrosymmetric 123-avoiders by the shape of their
    path image: 'k' Dyck paths, 'ck' elevated Dyck paths, 'g' elevated
    proper prefixes, 'composite' the rest.
    """

    length: int
    centrosymmetric: bool = False
    avoid: tuple | None = None
    subclass: str | None = None

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.avoid is not None and not isinstance(self.avoid, tuple):
            raise ValueError("avoid must be a tuple of values or None")
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


def _check_cap(spec: ClassSpec):
    if spec.centrosymmetric:
        cap = max_even_length()
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


def _centro_members(length: int, avoid):
    """Centrosymmetric permutations from first-half choices, filtered."""
    n = length // 2
    middle = [n + 1] if length % 2 else []
    half = []
    out = []

    def rec(free):
        # free: the values of the complement pairs the half has not used
        mirror = [length + 1 - w for w in reversed(half)]
        if avoid is not None and (
            word_contains_pattern(half + middle + mirror, avoid)
            or any(word_contains_pattern(half + [x] + mirror, avoid) for x in free)
        ):
            return
        if len(half) == n:
            out.append(Permutation._trusted(half + middle + mirror))
            return
        for v in free:
            half.append(v)
            rec([w for w in free if w != v and w != length + 1 - v])
            half.pop()

    rec([v for v in range(1, length + 1) if v not in middle])
    # rec's closure holds rec itself and out; without this the cycle keeps
    # every member alive until the cyclic garbage collector runs
    del rec
    return out


def _general_members(length: int, avoid):
    out = []
    for values in _all_permutations(range(1, length + 1)):
        if avoid is None or not word_contains_pattern(values, avoid):
            out.append(Permutation._trusted(values))
    return out


def _subclass_match(p: Permutation, name: str) -> bool:
    """Subclass of an even centrosymmetric 123-avoider, from p alone.

    p is in k (its path image is a Dyck path) when its first half holds
    only values above n; with c right components, ck is k with c == 2,
    g is not k with c == 1, and composite is the rest.
    """
    n = len(p) // 2
    high = all(v > n for v in p.values[:n])
    c = len(right_connected_components(p))
    if name == "k":
        return high
    if name == "ck":
        return high and c == 2
    if name == "g":
        return not high and c == 1
    return not high and c != 1  # composite


def enumerate_class(spec: ClassSpec):
    """Members of the class, in a deterministic (lexicographic) order."""
    _check_cap(spec)
    if spec.centrosymmetric:
        members = _centro_members(spec.length, spec.avoid)
    else:
        members = _general_members(spec.length, spec.avoid)
    if spec.subclass is None:
        yield from members
    else:
        for p in members:
            if _subclass_match(p, spec.subclass):
                yield p


def descent_histogram(spec: ClassSpec) -> dict:
    """Counter of descent numbers over the class, as a plain dict."""
    return dict(Counter(descent_count(p) for p in enumerate_class(spec)))
