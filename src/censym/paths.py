"""Dyck prefixes: U/D lattice paths that never dip below the x-axis.

A Dyck prefix of length m has steps U = +1 and D = -1 and all partial sums
nonnegative.  A Dyck path additionally ends at height 0; a proper prefix
does not.  A return is a D step landing at height 0, and a prefix is
elevated when it has no return or a single return at the last step.  The
empty path counts as a Dyck path and is not elevated.
"""

from collections import namedtuple


class InvalidPath(ValueError):
    """Input is not a valid Dyck prefix."""


class LatticePath:
    """An U/D path staying weakly above the x-axis.

    >>> LatticePath("UUDU").final_height
    2
    """

    __slots__ = ("steps",)

    def __init__(self, steps: str):
        h = 0
        for i, c in enumerate(steps, start=1):
            if c == "U":
                h += 1
            elif c == "D":
                h -= 1
                if h < 0:
                    raise InvalidPath(f"path dips below the x-axis at step {i}")
            else:
                raise InvalidPath(f"illegal character {c!r} at step {i}")
        self.steps = steps

    @classmethod
    def _trusted(cls, steps):
        """A path of steps the library built itself, unchecked."""
        path = object.__new__(cls)
        path.steps = steps
        return path

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, LatticePath) and self.steps == other.steps

    def __lt__(self, other):
        return self.steps < other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"LatticePath({self.steps!r})"

    def __str__(self):
        return self.steps

    def heights(self) -> tuple:
        """Heights after each step (length len+1, starting at 0)."""
        out = [0]
        for c in self.steps:
            out.append(out[-1] + (1 if c == "U" else -1))
        return tuple(out)

    @property
    def final_height(self) -> int:
        return self.steps.count("U") - self.steps.count("D")

    def _return_ends(self) -> list:
        """1-based indices of the D steps landing at height 0, in order."""
        # a valid path lands at height 0 only by a D step
        return [i for i, h in enumerate(self.heights()) if i and not h]

    @property
    def returns(self) -> int:
        """Number of D steps landing at height 0."""
        return len(self._return_ends())

    def last_return(self) -> int | None:
        """1-based index of the last D step landing at height 0, if any."""
        ends = self._return_ends()
        return ends[-1] if ends else None

    @property
    def valleys(self) -> int:
        """Occurrences of the factor DU."""
        return self.steps.count("DU")

    @property
    def triple_falls(self) -> int:
        """Occurrences of the factor DDD, counted with overlaps.

        A maximal run of m >= 3 consecutive D steps contributes m - 2.
        """
        s = self.steps
        return sum(1 for i in range(len(s) - 2) if s[i : i + 3] == "DDD")

    @property
    def is_dyck_path(self) -> bool:
        return self.final_height == 0

    @property
    def is_elevated(self) -> bool:
        """No return, or exactly one return at the last step; empty path no."""
        if not self.steps:
            return False
        r = self.returns
        return r == 0 or (r == 1 and self.final_height == 0)


class PathClassification(
    namedtuple("PathClassification", "is_dyck_path is_elevated split")
):
    """Exactly one of: Dyck path, elevated proper prefix, or composite.

    Composite prefixes split at their last return into a nonempty Dyck path
    followed by a nonempty elevated proper prefix, the pair held in split
    (None otherwise).  Elevated Dyck paths are Dyck paths with is_elevated
    set.
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        if self.is_dyck_path:
            return "dyck"
        return "elevated-proper" if self.split is None else "composite"


def classify(path: LatticePath) -> PathClassification:
    """Classify an even-length Dyck prefix."""
    if len(path) % 2:
        raise InvalidPath("classification requires even length")
    if path.is_dyck_path:
        return PathClassification(True, path.is_elevated, None)
    last = path.last_return()
    if last is None:
        # proper with no return: elevated proper prefix
        return PathClassification(False, True, None)
    # both parts are sub-walks of a valid path that start at height 0
    left = LatticePath._trusted(path.steps[:last])
    right = LatticePath._trusted(path.steps[last:])
    return PathClassification(False, False, (left, right))


MAX_ENUMERATION_LENGTH = 32


def enumerate_prefixes(length: int):
    """All Dyck prefixes of the given even length, lexicographic with U < D.

    There are binomial(2n, n) prefixes of length 2n.
    """
    if length % 2:
        raise InvalidPath("length must be even")
    if not 0 <= length <= MAX_ENUMERATION_LENGTH:
        raise InvalidPath(
            f"length {length} exceeds enumeration cap {MAX_ENUMERATION_LENGTH}"
        )

    # a frame is (steps, height); U is pushed last so that it is walked
    # first, and D only above height 0, so every leaf is a valid prefix
    stack = [("", 0)]
    while stack:
        steps, h = stack.pop()
        if len(steps) == length:
            yield LatticePath._trusted(steps)
            continue
        if h:
            stack.append((steps + "D", h - 1))
        stack.append((steps + "U", h + 1))
