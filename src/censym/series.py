"""Exact truncated bivariate power series; no floating point anywhere.

A series is truncated in x at a fixed order; each x^n coefficient is a
dense polynomial in y with int coefficients.  Scalars that enter from
outside (terms, scale factors, operands) must be ints, and division and
square root must come out exact: anything else raises.  Division and
square root work by coefficient recurrences and need the constant term to
be a nonzero scalar (respectively exactly 1), which every formula used
here satisfies after factoring out the appropriate monomial.

The private y-polynomial kernel (`_padd`, `_pmul`, `_pshift`, ...) is the
package's only polynomial arithmetic; `tables` runs its recurrences on it.
"""

from itertools import chain, islice


def _int(c):
    """c itself, exactly an int (no bool): the kernel has no other coefficient."""
    if type(c) is not int:
        raise TypeError(f"coefficient {c!r} is not an int")
    return c


def _div(c, d):
    """c / d as an int; raises unless d divides c."""
    q, r = divmod(c, d)
    if r:
        raise ValueError(f"coefficient {c} is not divisible by {d}")
    return q


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pdot(a, b):
    """The y-polynomial sum of p * q over the pairs (p, q) of zip(a, b)."""
    out = []
    for p, q in zip(a, b):
        if p and q:
            out += [0] * (len(p) + len(q) - 1 - len(out))
            for i, cp in enumerate(p):
                if cp:
                    for j, cq in enumerate(q):
                        out[i + j] += cp * cq
    return _trim(out)


def _pmul(a, b):
    return _pdot((a,), (b,))


def _pscale(a, s):
    if not s:
        return ()
    return tuple(c * s for c in a)


def _pshift(a, k):
    if not a:
        return ()
    return (0,) * k + tuple(a)


def _pdiv_y(a, k):
    if any(c != 0 for c in a[:k]):
        raise ValueError(f"coefficient {a!r} is not divisible by y^{k}")
    return tuple(a[k:])


class BivariateSeries:
    """A power series in x, truncated at x^order, over int polynomials in y."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = [tuple(c) for c in islice(coeffs, order + 1)]
        if not set(map(type, chain.from_iterable(coeffs))) <= {int}:
            for c in chain.from_iterable(coeffs):
                _int(c)  # raises at the first coefficient that is not an int
        coeffs += [()] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(_trim(c) for c in coeffs)

    @classmethod
    def from_terms(cls, order: int, terms):
        """Build from (x-exponent, y-exponent, coefficient) triples."""
        rows = [{} for _ in range(order + 1)]
        for i, j, c in terms:
            if i <= order:
                rows[i][j] = rows[i].get(j, 0) + _int(c)
        coeffs = []
        for row in rows:
            width = max(row) + 1 if row else 0
            coeffs.append(tuple(row.get(j, 0) for j in range(width)))
        return cls(order, coeffs)

    @classmethod
    def constant(cls, order: int, c):
        return cls.from_terms(order, [(0, 0, c)])

    @classmethod
    def one(cls, order: int):
        return cls.constant(order, 1)

    def coefficient(self, i: int, j: int) -> int:
        if i > self.order:
            raise IndexError(f"x^{i} is beyond truncation order {self.order}")
        row = self.coeffs[i]
        return row[j] if j < len(row) else 0

    def y_degree(self, i: int) -> int:
        """Degree in y of the x^i coefficient (-1 for zero)."""
        return len(self.coeffs[i]) - 1

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"BivariateSeries(order={self.order}, coeffs={self.coeffs!r})"

    def truncate(self, order: int) -> "BivariateSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return BivariateSeries(order, self.coeffs[: order + 1])

    def _coerce(self, other):
        if isinstance(other, BivariateSeries):
            return other
        return BivariateSeries.constant(self.order, other)

    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return BivariateSeries(
            order,
            (_padd(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        return BivariateSeries(self.order, (_pneg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return BivariateSeries(
            order, (_pdot(a[: n + 1], reversed(b[: n + 1])) for n in range(order + 1))
        )

    __rmul__ = __mul__

    def scale(self, s) -> "BivariateSeries":
        s = _int(s)
        return BivariateSeries(self.order, (_pscale(c, s) for c in self.coeffs))

    def mul_term(self, i: int, j: int, c=1) -> "BivariateSeries":
        """Multiply by c x^i y^j, keeping the truncation order."""
        c = _int(c)
        out = [()] * (self.order + 1)
        for a, row in enumerate(self.coeffs):
            if a + i <= self.order and row:
                out[a + i] = _pscale(_pshift(row, j), c)
        return BivariateSeries(self.order, out)

    def _unit_constant(self):
        head = self.coeffs[0]
        if len(head) != 1 or head[0] == 0:
            raise ValueError("constant term must be a nonzero scalar")
        return head[0]

    def __truediv__(self, other):
        other = self._coerce(other)
        c0 = other._unit_constant()
        order = min(self.order, other.order)
        quotient = []
        for i in range(order + 1):
            known = _pdot(other.coeffs[1 : i + 1], reversed(quotient))
            acc = _padd(self.coeffs[i], _pneg(known))
            quotient.append(tuple(_div(c, c0) for c in acc))
        return BivariateSeries(order, quotient)

    def sqrt(self) -> "BivariateSeries":
        """Square root of a series with constant term exactly 1."""
        if self.coeffs[0] != (1,):
            raise ValueError("constant term must be 1")
        root = [(1,)]
        for i in range(1, self.order + 1):
            known = _pdot(root[1:i], reversed(root[1:i]))
            acc = _padd(self.coeffs[i], _pneg(known))
            root.append(tuple(_div(c, 2) for c in acc))
        return BivariateSeries(self.order, root)

    def div_x(self, k: int) -> "BivariateSeries":
        """Exact division by x^k; the order drops by k."""
        if any(self.coeffs[i] for i in range(min(k, self.order + 1))):
            raise ValueError(f"series is not divisible by x^{k}")
        if self.order < k:
            raise ValueError("truncation order too small to divide by x^k")
        return BivariateSeries(self.order - k, self.coeffs[k:])

    def div_y(self, k: int) -> "BivariateSeries":
        """Exact division by y^k."""
        return BivariateSeries(self.order, (_pdiv_y(c, k) for c in self.coeffs))

    def substitute_y_squared(self) -> "BivariateSeries":
        """The series with y replaced by y^2."""
        out = []
        for row in self.coeffs:
            spread = [0] * (2 * len(row) - 1 if row else 0)
            for j, c in enumerate(row):
                spread[2 * j] = c
            out.append(tuple(spread))
        return BivariateSeries(self.order, out)


_EVEN_SQRT_ARG = [(0, 0, 1), (1, 2, -4), (2, 2, -4), (2, 4, 4)]
_ODD_SQRT_ARG = [(0, 0, 1), (1, 1, -4), (2, 1, -4), (2, 2, 4)]


def _series_Q(order, named):
    num = BivariateSeries.from_terms(order, [(1, 0, 1), (1, 1, 1)])
    den = BivariateSeries.from_terms(order, [(0, 0, 1), (1, 0, -1), (1, 2, -1)])
    return num / den


def _series_R(order, named):
    num = BivariateSeries.from_terms(order, [(1, 0, 1)])
    den = BivariateSeries.from_terms(order, [(0, 0, 1), (1, 0, -1), (1, 2, -1)])
    return num / den


def _series_E(order, named):
    work = order + 1
    root = BivariateSeries.from_terms(work, _ODD_SQRT_ARG).sqrt()
    num = root + BivariateSeries.from_terms(
        work,
        [(0, 0, -1), (1, 1, 2), (2, 1, 2), (1, 2, -2), (2, 2, -4), (2, 3, 2)],
    )
    num = num.div_x(1).div_y(2)
    den = BivariateSeries.from_terms(order, [(0, 0, -2), (1, 1, 2), (1, 0, -2)])
    return num / den


def _series_V(order, named):
    work = order + 1
    root = BivariateSeries.from_terms(work, _EVEN_SQRT_ARG).sqrt()
    num = (root - 1).div_x(1).div_y(2)
    den = BivariateSeries.from_terms(order, [(0, 0, -2), (1, 0, -2), (1, 2, 2)])
    return num / den


def _series_K(order, named):
    work = order + 1
    root = BivariateSeries.from_terms(work, _EVEN_SQRT_ARG).sqrt()
    num = BivariateSeries.from_terms(
        work, [(0, 0, 1), (1, 2, -2), (2, 2, -2), (2, 4, 2)]
    ) - root
    num = num.div_x(1).div_y(3)
    den = BivariateSeries.from_terms(order, [(0, 0, 2), (1, 0, 2), (1, 2, -2)])
    return BivariateSeries.one(order) + num / den


def _series_CK(order, named):
    k = named["K"]
    xy = BivariateSeries.from_terms(order, [(1, 1, 1)])
    t1 = (k - 1 - xy).mul_term(1, 2)
    t2 = (k - 1).mul_term(2, 2) - (k - 1).mul_term(2, 4)
    t3 = BivariateSeries.from_terms(order, [(0, 0, 1), (1, 1, 1), (2, 1, 1)])
    return t1 + t2 + t3


def _series_T(order, named):
    k = named["K"]
    num = (
        -(k * k).mul_term(1, 3)
        + k
        + k.mul_term(1, 1)
        - k.mul_term(1, 2).scale(2)
        + k.mul_term(1, 3)
        + BivariateSeries.from_terms(order, [(1, 2, 1), (1, 1, -2), (1, 0, 1)])
    )
    den = (
        BivariateSeries.from_terms(order, [(0, 0, 1), (1, 1, -1), (1, 3, 1)])
        - k.mul_term(1, 2)
        - k.mul_term(1, 3)
    )
    return num / den


def _series_S(order, named):
    t, k = named["T"], named["K"]
    return (
        BivariateSeries.from_terms(order, [(0, 0, 1), (1, 0, 1)])
        + (t - 1).mul_term(1, 1)
        + t.mul_term(1, 2)
        - k.mul_term(1, 2)
    )


# a builder takes the order and the NamedSeries that looks up its inputs
_BUILDERS = {
    "Q": _series_Q,
    "R": _series_R,
    "E": _series_E,
    "V": _series_V,
    "K": _series_K,
    "CK": _series_CK,
    "S": _series_S,
    "T": _series_T,
}
NAMED_SERIES = tuple(_BUILDERS)


class NamedSeries(dict):
    """The closed-form series at one order by name, each expanded exactly
    on first lookup and kept, so the K and T that CK, T and S are written in
    are built once.  Every division on the way must be exact, and row n
    must have y-degree at most 2n+1."""

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        super().__init__()
        self.order = order

    def __missing__(self, name: str) -> BivariateSeries:
        if name not in _BUILDERS:
            raise ValueError(f"unknown series {name!r} (choose from {NAMED_SERIES})")
        s = _BUILDERS[name](self.order, self)
        for n, row in enumerate(s.coeffs):
            if len(row) - 1 > 2 * n + 1:
                raise ValueError(
                    f"{name}: x^{n} row has y-degree {len(row) - 1}, beyond 2n+1"
                )
        self[name] = s
        return s
