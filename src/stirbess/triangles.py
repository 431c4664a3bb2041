"""Number triangles: Stirling (both kinds), Lah, Bessel, generalized Stirling.

Every family here satisfies one recurrence whose coefficient is linear in
n and k,

    T(n+1, k) = T(n, k-1) + (a*n + b*k) * T(n, k),

with delta initial conditions T(n, 0) = [n == 0], T(0, k) = [k == 0], and

    (a, b) = (1, 0)              unsigned Stirling, first kind
    (a, b) = (-1, 0)             signed Stirling, first kind
    (a, b) = (0, 1)              Stirling, second kind
    (a, b) = (1, 1)              Lah
    (a, b) = (-2, 1)             Bessel, first kind (signed)
    (a, b) = (-1, 2)             Bessel, second kind
    (a, b) = (h*s, h - h*s)      generalized Stirling with parameters (s, h),
                                 whose coefficient is h*(k + s*(n - k))

A ``RecurrenceTriangle`` holds (a, b) and its rows, always in integers: with
D the lcm of the denominators of a and b (its ``scale``; 1 for the integral
families), row n holds D^(n-k) T(n, k), which satisfies

    D^(n+1-k) T(n+1, k) = D^(n-(k-1)) T(n, k-1) + (D*a*n + D*b*k) * D^(n-k) T(n, k),

a recurrence with integer coefficients.  ``Triangles.table(a, b)`` owns one
per exact (a, b), the store's only index: ``Triangles.rows`` maps a family
name and ``Triangles.gs_triangle`` a generalized-Stirling pair (s, h) to
their (a, b), so the two share a table wherever their (a, b) agree.  A float
parameter is refused.  D and the integer rows serve exact sums over a
common denominator; ``Triangles.gs_rows`` and ``Triangles.gs`` give
``Fraction`` views, GS(n, k) = row n [k] / D^(n-k).
``Triangles.memo`` keeps what a caller derives from the tables, found again
without hashing a ``Fraction``.

Bessel numbers of the first kind b(n, k) and second kind B(n, k), and the
Lah numbers L(n, k), also have module functions computing their factorial
closed forms, b and B memoized.  The identity suite uses those as its
references, so its checks do not rest on the recurrence they are compared
with.

Entries outside 0 <= k <= n are implicitly 0, with the (0, 0) = 1
convention, so summation identities can run with free index ranges.
Rows are sealed as tuples when built.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, TypeVar

from .exactnum import binomial_int, factorial
from .polys import Rational, _rational_param, _refuse_float


class RecurrenceTriangle:
    """Memoized integer rows of T(n+1, k) = T(n, k-1) + (a*n + b*k) * T(n, k),
    T(0, 0) = 1, for rational a and b: with D = ``scale``, the lcm of their
    denominators, row n holds D^(n-k) T(n, k)."""

    def __init__(self, a: Rational, b: Rational):
        a, b = _rational_param("a", a), _rational_param("b", b)
        self.scale = math.lcm(a.denominator, b.denominator)
        self._a, self._b = (a * self.scale).numerator, (b * self.scale).numerator
        self._rows: list[tuple[int, ...]] = [(1,)]

    def rows(self, n: int) -> list[tuple[int, ...]]:
        """The sealed rows, at least rows 0..n; row m holds D^(m-k) T(m, k)
        for k = 0..m."""
        if n < 0:
            raise ValueError("row index must be nonnegative")
        a, b = self._a, self._b
        while len(self._rows) <= n:
            prev = self._rows[-1]
            am = a * (len(prev) - 1)
            middle = (prev[k - 1] + (am + b * k) * prev[k] for k in range(1, len(prev)))
            self._rows.append((am * prev[0], *middle, prev[-1]))
        return self._rows

    def value(self, n: int, k: int) -> int:
        """Entry (n, k) of the integer rows, 0 outside 0 <= k <= n."""
        row = self.rows(n)[n]
        return row[k] if 0 <= k <= n else 0

    def fractions(self, n: int) -> list[tuple[Fraction, ...]]:
        """Rows 0..n as ``Fraction``: row m holds T(m, 0..m)."""
        d, rows = self.scale, self.rows(n)[: n + 1]
        return [tuple(Fraction(v, d ** (m - k)) for k, v in enumerate(row)) for m, row in enumerate(rows)]

    def fraction(self, n: int, k: int) -> Fraction:
        """T(n, k) itself, D^(n-k) T(n, k) over D^(n-k); 0 outside 0 <= k <= n."""
        v = self.value(n, k)
        return Fraction(v, self.scale ** (n - k)) if 0 <= k <= n else Fraction(0)


# b and B keep their last 2^14 values, more than the identity suite's sums read
# at n_max = 120 (10,982 and 7,381 arguments), each many times
@functools.lru_cache(maxsize=1 << 14)
def bessel_b(n: int, k: int) -> int:
    """Bessel number of the first kind (signed).

    b(n, k) = (-1)^(n-k) (2n-k-1)! / (2^(n-k) (k-1)! (n-k)!) on the band
    1 <= k <= n; zero outside, with b(0, 0) = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k < 1 or k > n:
        return 0
    num = factorial(2 * n - k - 1)
    den = (factorial(k - 1) * factorial(n - k)) << (n - k)
    q, r = divmod(num, den)
    assert r == 0, f"inexact division in b({n}, {k})"
    return -q if (n - k) % 2 else q


@functools.lru_cache(maxsize=1 << 14)
def bessel_B(n: int, k: int) -> int:
    """Bessel number of the second kind.

    B(n, k) = n! / (2^(n-k) (2k-n)! (n-k)!) on the band
    ceil(n/2) <= k <= n; zero outside, with B(0, 0) = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k < (n + 1) // 2 or k > n:
        return 0
    num = factorial(n)
    den = (factorial(2 * k - n) * factorial(n - k)) << (n - k)
    q, r = divmod(num, den)
    assert r == 0, f"inexact division in B({n}, {k})"
    return q


def lah(n: int, k: int) -> int:
    """Lah number L(n, k) = ((n-1)!/(k-1)!) C(n, k) for 1 <= k <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k < 1 or k > n:
        return 0
    return factorial(n - 1) // factorial(k - 1) * binomial_int(n, k)


# family: (a, b) of its recurrence, in the order the CLI lists the families
RECURRENCES = {
    "stirling1": (1, 0),
    "stirling1-signed": (-1, 0),
    "stirling2": (0, 1),
    "lah": (1, 1),
    "bessel-b": (-2, 1),
    "bessel-B": (-1, 2),
}


def gs_recurrence(s: Rational, h: Rational) -> tuple[Rational, Rational]:
    """(a, b) of the generalized Stirling recurrence with parameters (s, h):
    (h*s, h - h*s), whose coefficient a*n + b*k is h*(k + s*(n - k))."""
    return h * s, h - h * s


_T = TypeVar("_T")


class Triangles:
    """The memoized recurrence tables, one per exact (a, b), built and found
    only by ``table``: the families of ``RECURRENCES`` and the
    generalized-Stirling pairs are names for some of them.  (a, b) are keyed
    by value, so equal ints and Fractions find the same table."""

    def __init__(self):
        self._tables: dict[tuple[Rational, Rational], RecurrenceTriangle] = {}
        self._memo: dict[tuple[int, ...], tuple[tuple, object]] = {}

    def table(self, a: Rational, b: Rational) -> RecurrenceTriangle:
        """The table of T(n+1, k) = T(n, k-1) + (a*n + b*k) * T(n, k); a float
        a or b is refused, even where an equal exact key has a table."""
        _refuse_float("a", a)
        _refuse_float("b", b)
        table = self._tables.get((a, b))
        if table is None:
            table = self._tables[a, b] = RecurrenceTriangle(a, b)
        return table

    def stirling1(self, n: int, k: int) -> int:
        """Unsigned Stirling number of the first kind (cycle counts)."""
        return self.table(1, 0).value(n, k)

    def stirling2(self, n: int, k: int) -> int:
        """Stirling number of the second kind (set partition counts)."""
        return self.table(0, 1).value(n, k)

    def stirling1_signed(self, n: int, k: int) -> int:
        return self.table(-1, 0).value(n, k)

    def rows(self, family: str, n: int) -> list[tuple[int, ...]]:
        """The sealed rows of a family in ``RECURRENCES``, at least rows 0..n;
        row m holds T(m, 0..m)."""
        return self.table(*RECURRENCES[family]).rows(n)

    def gs_triangle(self, s: Rational, h: Rational) -> RecurrenceTriangle:
        """``table(*gs_recurrence(s, h))``, the generalized Stirling table with
        parameters (s, h), h != 0: row m holds D^(m-k) GS(m, 0..m).  It finds
        the table by (a, b), so callers that read it often keep it, as the
        evaluators do through ``memo``."""
        s, h = _rational_param("s", s), _rational_param("h", h)
        if h == 0:
            raise ValueError("parameter h must be nonzero")
        return self.table(*gs_recurrence(s, h))

    def memo(self, key: tuple, derive: Callable[[Triangles], _T]) -> _T:
        """``derive(self)``, kept on this table set under the ids of ``key``'s
        items, as ``Fraction`` does not cache its hash.  Put the caller first
        in ``key``, so two callers never share an entry, then the objects the
        result depends on, such as one case's values."""
        ids = tuple(map(id, key))
        entry = self._memo.get(ids)
        if entry is None:  # the entry holds key, so no other object gets its ids
            entry = self._memo[ids] = (key, derive(self))
        return entry[1]

    def gs_rows(self, s: Rational, h: Rational, n: int) -> list[tuple[Fraction, ...]]:
        """Rows 0..n of the generalized Stirling table with parameters (s, h),
        h != 0, as ``Fraction``; row m holds GS(m, 0..m)."""
        return self.gs_triangle(s, h).fractions(n)

    def gs(self, s: Rational, h: Rational, n: int, k: int) -> Fraction:
        """Generalized Stirling number with parameters (s, h), h != 0."""
        return self.gs_triangle(s, h).fraction(n, k)


DEFAULT = Triangles()


# These read DEFAULT at call time, so replacing it swaps the tables they use.
def stirling1(n: int, k: int) -> int:
    return DEFAULT.stirling1(n, k)


def stirling2(n: int, k: int) -> int:
    return DEFAULT.stirling2(n, k)


def stirling1_signed(n: int, k: int) -> int:
    return DEFAULT.stirling1_signed(n, k)


def gs(s: Rational, h: Rational, n: int, k: int) -> Fraction:
    return DEFAULT.gs(s, h, n, k)
