"""Exact truncated bivariate power series; no floating point anywhere.

A series is truncated in x at a fixed order; each x^n coefficient is a
dense polynomial in y with int coefficients.  Scalars that enter from
outside (terms, scale factors, operands) must be ints, and division and
square root must come out exact: anything else raises.  Division and
square root work by coefficient recurrences and need the constant term to
be a nonzero scalar (respectively exactly 1), which every formula used
here satisfies after factoring out the appropriate monomial.  The square
root R of D solves its differential equation 2 D R' = D' R, a
convolution against D: the named closed forms take roots of series of
x-degree 2, so each root row costs two row products.  T is built in a
rationalized form with no series in K in its denominator, so every
divisor here has x-degree at most 2 and every named row costs O(1) row
products; verify checks it against the printed quotient in K.

The private y-polynomial kernel (`_padd`, `_pmul`, `_pshift`, ...) is the
package's only polynomial arithmetic; `tables` runs its recurrences on it.
Its row product `_pdot` multiplies only pairs of nonzero coefficients:
the table rows are mostly zeros (k_30 has 16 nonzero coefficients out of
60, 29 leading zeros and then odd degrees only), so a dense product would
spend about three quarters of its multiply-adds on zeros.
"""

from functools import cached_property
from itertools import chain, islice, starmap, zip_longest
from operator import add, sub


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
    return _trim(starmap(add, zip_longest(a, b, fillvalue=0)))


def _psub(a, b):
    return _trim(starmap(sub, zip_longest(a, b, fillvalue=0)))


def _pneg(a):
    return tuple(-c for c in a)


def _pdot(a, b):
    """The y-polynomial sum of p * q over the pairs (p, q) of zip(a, b);
    only pairs of nonzero coefficients are multiplied."""
    out = []
    for p, q in zip(a, b):
        if p and q:
            out += [0] * (len(p) + len(q) - 1 - len(out))
            terms = [(j, cq) for j, cq in enumerate(q) if cq]
            for i, cp in enumerate(p):
                if cp:
                    for j, cq in terms:
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
            acc = _psub(self.coeffs[i], known)
            quotient.append(tuple(_div(c, c0) for c in acc))
        return BivariateSeries(order, quotient)

    def sqrt(self) -> "BivariateSeries":
        """Square root of a series with constant term exactly 1.

        R = sqrt(D) solves 2 D R' = D' R, so r_0 = 1 and
        2n r_n = sum_{j=1..n} (3j - 2n) d_j r_{n-j}; only the nonzero rows
        d_j enter, so a D of x-degree 2 costs two row products per row.
        """
        if self.coeffs[0] != (1,):
            raise ValueError("constant term must be 1")
        rows = [(j, d) for j, d in enumerate(self.coeffs) if j and d]
        root = [(1,)]
        for n in range(1, self.order + 1):
            terms = [(j, d) for j, d in rows if j <= n]
            acc = _pdot(
                [_pscale(d, 3 * j - 2 * n) for j, d in terms],
                [root[n - j] for j, _ in terms],
            )
            root.append(tuple(_div(c, 2 * n) for c in acc))
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
    num = (named.even_root - 1).div_x(1).div_y(2)
    den = BivariateSeries.from_terms(order, [(0, 0, -2), (1, 0, -2), (1, 2, 2)])
    return num / den


def _series_K(order, named):
    num = BivariateSeries.from_terms(
        order + 1, [(0, 0, 1), (1, 2, -2), (2, 2, -2), (2, 4, 2)]
    ) - named.even_root
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
    # the printed T, a quotient in K, rationalized: with h = 1 + x - xy^2,
    # g = 1 - 2xy - 2xy^2 and R the even root,
    # T = ((1 - y)(2xy^3 - 2xy - 2y - 1) g + (1 + y) R) / (2 y^2 h g);
    # verify checks it against the printed form; the root's extra order
    # drops at the first sum
    root = named.even_root
    poly = BivariateSeries.from_terms
    g = poly(order, [(0, 0, 1), (1, 1, -2), (1, 2, -2)])
    # (1 - y)(2xy^3 - 2xy - 2y - 1), expanded
    factor = poly(
        order,
        [(0, 0, -1), (0, 1, -1), (0, 2, 2), (1, 1, -2), (1, 2, 2), (1, 3, 2), (1, 4, -2)],
    )
    num = factor * g + root + root.mul_term(0, 1)
    den = poly(order, [(0, 0, 2), (1, 0, 2), (1, 2, -2)]) * g
    return num.div_y(2) / den


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
    on first lookup and kept, so the K that CK and S are written in, and
    the T that S is written in, are built once.  Every division on the way
    must be exact, and row n must have y-degree at most 2n+1."""

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        super().__init__()
        self.order = order

    @cached_property
    def even_root(self) -> BivariateSeries:
        """The even root that V, K and T are written in, at order + 1."""
        return BivariateSeries.from_terms(self.order + 1, _EVEN_SQRT_ARG).sqrt()

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
