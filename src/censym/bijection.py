"""The bijection phi between even-length centrosymmetric 123-avoiders and
Dyck prefixes, the structural maps around it, and class generators.

phi works block by block on the minima decomposition of the first half.
A block (x_1, w_1) with l_1 = |w_1| at a level with half length n emits

    U^k D^(l_1+1)   with k = 2n+1-x_1,          when x_1 > n (not tiny),
    U^k D^l_1       with k = n+1,               when x_1 = n (tiny),

and the path of the renormalized remainder sigma' follows with its
leftmost k-l_1-1 (tiny: k-l_1-2) steps removed; those removed steps are
always U steps.  The final height of phi(p) is twice the number of tiny
minima, so phi(p) is a Dyck path exactly when p has none.

Both directions run as one loop over the blocks.  Instead of renormalizing
the remainder, they keep its alphabet, the values of {1..2n} not yet
removed with their complements.  It is closed under complement, so its
live values above n fix it: perms._UpperValues keeps them descending, as
a deque followed by an untouched run.  A value's rank among the live
values is its renormalized value, and it is read off its position there.
phi reads its blocks from perms._walk_blocks, the block walk that
perms.stats uses too, and phi_trace is the public record of that walk.
A block takes its values from the front of the live upper values, from
the run, or from the deque's far end, so phi and phi_inverse take O(n)
time and no recursion: a round trip at 2n = 10^5 takes about 0.3 s on a
2-vCPU host.
"""

from collections import namedtuple
from math import inf

from .perms import (
    InvalidPermutation,
    Permutation,
    VerificationError,
    _UpperValues,
    _require_even_centrosymmetric,
    _walk_blocks,
    contains_pattern,
    embed_in,
    is_centrosymmetric,
    require_member,
)
from .paths import InvalidPath, LatticePath


class PhiBlock(namedtuple("PhiBlock", "minimum word tiny emitted deleted")):
    """One minima-decomposition block together with its emitted steps.

    The first half of a member of length 2n factors as x_1 w_1 ... x_s w_s,
    where the x_i are its left-to-right minima.  Alphabet A_0 = {1..2n};
    A_i removes from A_{i-1} the pair {x_i, 2n+1-x_i} and the entries of
    w_i together with their complements.  x_i is "tiny" when it equals
    the lower median of A_{i-1}; once a minimum is tiny, all later ones
    are.  minimum is the block's x_i, word its w_i as a tuple of values,
    tiny whether x_i is tiny, and emitted its U/D steps.  deleted is the
    number of leading steps removed from the recursive remainder path at
    this block's level: k-l-1 when the block is not tiny and k-l-2 when
    it is, with k computed at that level.
    """

    __slots__ = ()


class PhiTrace(namedtuple("PhiTrace", "blocks predicted_heights")):
    """Per-block emission record of phi; fragments concatenate to the path.

    It is the library's record of a member's minima decomposition: blocks
    is a tuple of PhiBlock, one per left-to-right minimum of the first
    half, in order.  predicted_heights lists the closed-form pairs (height
    after the block's first descent, height after the whole block); the
    formulas hold only when no minimum is tiny, so the field is None
    otherwise.
    """

    __slots__ = ()

    def block_heights(self) -> tuple:
        """Measured (after-first-descent, after-block) height pairs."""
        if any(b.tiny for b in self.blocks):
            raise ValueError("block heights are read off only without tiny minima")
        out = []
        h = 0
        for b in self.blocks:
            first_d = b.emitted.index("D")
            p_height = h + first_d - 1
            q_height = h + b.emitted.count("U") - b.emitted.count("D")
            out.append((p_height, q_height))
            h = q_height
        return tuple(out)


def _phi_blocks(w):
    """The blocks of a half word on {1..2n} as PhiBlock field tuples.

    w must be the first half of a valid member.  A block's emitted steps
    have the deletion of the block before already trimmed off, so they
    concatenate to phi's path.
    """
    blocks = []
    previous = 0  # the deletion of the block before
    for x, word, x1, n, tiny in _walk_blocks(w):
        l1 = len(word)
        k = 2 * n + 1 - x1
        downs, delete = (l1, k - l1 - 2) if tiny else (l1 + 1, k - l1 - 1)
        if previous > k and downs:
            raise VerificationError("removed steps must all be ups")
        emitted = "U" * (k - previous) + "D" * downs
        blocks.append((x, word, tiny, emitted, delete))
        previous = delete
    if previous:
        raise VerificationError(f"last block deletes {previous} steps of an empty path")
    return blocks


def phi(p: Permutation) -> LatticePath:
    """Map a member of the even centrosymmetric 123-avoiding class to its path."""
    require_member(p)
    blocks = _phi_blocks(p.values[: len(p) // 2])
    return LatticePath("".join(emitted for _, _, _, emitted, _ in blocks))


def phi_trace(p: Permutation) -> PhiTrace:
    """The minima decomposition of p with phi's per-block bookkeeping
    (validates membership)."""
    require_member(p)
    blocks = tuple(PhiBlock(*b) for b in _phi_blocks(p.values[: len(p) // 2]))
    predicted = None
    if not any(b.tiny for b in blocks):
        pairs = [(b.minimum, b.word) for b in blocks]
        predicted = _predicted_heights(pairs, len(p) // 2)
    return PhiTrace(blocks=blocks, predicted_heights=predicted)


def _predicted_heights(blocks, n):
    out = []
    consumed = 0  # l_1 + ... + l_{j-1}
    for j, (x, wi) in enumerate(blocks, start=1):
        after_first_descent = 2 * n - (j - 1) - x - consumed
        consumed += len(wi)
        after_block = 2 * n - (j - 1) - x - consumed
        out.append((after_first_descent, after_block))
    return tuple(out)


def _inv_half(steps: str):
    """First half of the preimage of a Dyck prefix, on the {1..2n} scale.

    The path still to be read is U^a D^b steps[pos:]; each pass peels the
    first block off it.  With S the live upper values, descending, a rank
    r > n is S[2n-r] and a rank r <= n is the complement of S[r-1], so a
    block only takes S[j-1] (its minimum when not tiny), S[n-1] (the
    partner of a tiny minimum) and S[0] (its word).
    """
    full = len(steps)
    upper = _UpperValues(full // 2)
    half = []
    n = full // 2  # half length of the remainder
    a = b = pos = 0
    while n:
        j = a
        if not b:  # no D pending, so the U run goes on into steps
            while pos < full and steps[pos] == "U":
                j += 1
                pos += 1
        k = b
        while pos < full and steps[pos] == "D":
            k += 1
            pos += 1

        if j <= n:
            # first block not tiny: x_1 = 2n+1-j, w_1 = 2n .. 2n-k+2
            head = [upper.pop(j - 1), *(upper.pop(0) for _ in range(k - 1))]
            a, b = j - k, 0
        elif j == n + 1:
            # tiny first block: x_1 = n, w_1 = 2n .. 2n-k+1
            head = [full + 1 - upper.pop(n - 1), *(upper.pop(0) for _ in range(k))]
            a, b = j - k - 2, 0
        else:
            # run of tiny blocks with empty words: peel one symbol pair
            head = [full + 1 - upper.pop(n - 1)]
            a, b = j - 2, k
        half += head
        n -= len(head)
    return tuple(half)


def phi_inverse(path: LatticePath) -> Permutation:
    """Preimage of an even-length Dyck prefix under phi."""
    if len(path) % 2:
        raise InvalidPath("preimages exist for even lengths only")
    half = _inv_half(path.steps)
    m = 2 * len(half)
    return Permutation(half + tuple(m + 1 - v for v in reversed(half)))


# ---------------------------------------------------------------------------
# odd-length 123-avoiders


def odd_embed(alpha: Permutation) -> Permutation:
    """Embed a 123-avoiding alpha in S_n as the centrosymmetric member of
    length 2n+1 whose right half is alpha itself.

    The left half is the reverse of alpha complemented to 2n+2, and n+1
    sits in the middle.  For nonempty alpha, des grows to 2 des(alpha) + 2.
    """
    if contains_pattern(alpha, (1, 2, 3)):
        raise InvalidPermutation("contains the pattern 123")
    n = len(alpha)
    left = tuple(2 * n + 2 - v for v in reversed(alpha.values))
    return Permutation(left + (n + 1,) + alpha.values)


def odd_project(p: Permutation) -> Permutation:
    """Inverse of odd_embed: the right half of an odd-length member.

    Avoiding 123 forces the right half of a centrosymmetric permutation of
    length 2n+1 to be exactly the values {1..n}.
    """
    if len(p) % 2 == 0:
        raise InvalidPermutation("odd length required")
    if not is_centrosymmetric(p):
        raise InvalidPermutation("not centrosymmetric")
    if contains_pattern(p, (1, 2, 3)):
        raise InvalidPermutation("contains the pattern 123")
    return Permutation(p.values[len(p) // 2 + 1 :])


# ---------------------------------------------------------------------------
# 132-avoiders


def even_to_odd_132(p: Permutation) -> Permutation:
    """Insert a middle fixed point: C_{2n}(132) -> C_{2n+1}(132).

    Values above n shift up by one to make room for the new middle value
    n+1.  Descents are preserved except that a middle descent of p (an odd
    des) turns into one more: des goes from 2t+1 to 2t+2.
    """
    _require_even_centrosymmetric(p)
    if contains_pattern(p, (1, 3, 2)):
        raise InvalidPermutation("contains the pattern 132")
    n = len(p) // 2
    shifted = tuple(v + 1 if v > n else v for v in p.values)
    return Permutation(shifted[:n] + (n + 1,) + shifted[n:])


def generate_c132(n: int):
    """All centrosymmetric 132-avoiders of length n.

    A member is the identity wrapped in layers, outermost first: a layer
    of width w puts the top w values left to it, increasing, at the front
    and the bottom w at the back, and with r values left its width runs
    from r // 2 down to 1.  The identity fills the middle, the fixed point
    of an odd length included, so odd members are even_to_odd_132 of the
    even ones.  The widths are the stack of a depth-first search, and each
    member comes before the members that wrap it in more layers.
    """
    if n < 0:
        raise InvalidPermutation("length must be nonnegative")
    widths = []
    while True:
        yield _layered(n, widths)
        left = n - 2 * sum(widths)
        if left > 1:  # one more layer, the widest first
            widths.append(left // 2)
            continue
        while widths and widths[-1] == 1:  # no narrower layer at this depth
            widths.pop()
        if not widths:
            return
        widths[-1] -= 1


def _layered(n: int, widths) -> Permutation:
    """The member of length n with the given layer widths, outermost first."""
    front = []
    top = n
    for w in widths:
        front += range(top - w + 1, top + 1)
        top -= w
    back = [n + 1 - v for v in reversed(front)]
    return Permutation._trusted(front + list(range(n - top + 1, top + 1)) + back)


# ---------------------------------------------------------------------------
# the structural generator for even-length 123-avoiders


def _structural_half_words(n: int):
    """Half words of members of length 2n, built from the block structure.

    A half word is x_1 w_1 followed by a smaller half word embedded in the
    reduced alphabet, where x_1 >= n, w_1 runs down from 2n through
    2n-l_1+1 with 2n-l_1+1 > x_1, and the embedded remainder starts below
    x_1.  The search keeps one stack frame per block: its remaining
    choices of (l_1, x_1), its alphabet in the values of 1..2n, the value
    its x_1 must stay below, and where its block starts in the word.
    """
    if n == 0:
        yield ()
        return
    word = []
    stack = [(_block_choices(n), tuple(range(1, 2 * n + 1)), inf, 0)]
    while stack:
        choices, alphabet, bound, start = stack[-1]
        choice = next(choices, None)
        if choice is None:
            stack.pop()
            continue
        l1, x1 = choice
        if alphabet[x1 - 1] >= bound:
            continue
        full = len(alphabet)
        del word[start:]
        word.append(alphabet[x1 - 1])
        word.extend(reversed(alphabet[full - l1 :]))  # w_1
        rest = full // 2 - 1 - l1
        if rest == 0:
            yield tuple(word)
            continue
        # drop w_1 and x_1 with their complements from the alphabet
        reduced = tuple(
            a for a in range(l1 + 1, full - l1 + 1) if a != x1 and a != full + 1 - x1
        )
        sub = embed_in(reduced, alphabet)
        stack.append((_block_choices(rest), sub, alphabet[x1 - 1], len(word)))


def _block_choices(n: int):
    """(l_1, x_1) for a first block at half length n, in search order."""
    return ((l1, x1) for l1 in range(n) for x1 in range(n, 2 * n - l1 + 1))


def generate_c123_structural(length: int):
    """An independent generator for the even class, from its block structure."""
    if length % 2:
        raise InvalidPermutation("length must be even")
    for half in _structural_half_words(length // 2):
        yield Permutation(half + tuple(length + 1 - v for v in reversed(half)))
