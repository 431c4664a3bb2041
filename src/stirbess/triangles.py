"""Number triangles: Stirling (both kinds), Lah, Bessel, generalized Stirling.

The recursively defined families share one recurrence whose coefficient is
linear in n and k,

    T(n+1, k) = T(n, k-1) + (a*n + b*k) * T(n, k),

with delta initial conditions T(n, 0) = [n == 0], T(0, k) = [k == 0], and

    (a, b) = (1, 0)              unsigned Stirling, first kind
    (a, b) = (0, 1)              Stirling, second kind
    (a, b) = (h*s, h - h*s)      generalized Stirling with parameters (s, h),
                                 whose coefficient is h*(k + s*(n - k))

A ``RecurrenceTriangle`` holds (a, b) and its rows.  Generalized-Stirling
rows start from ``Fraction(1)``, so they are ``Fraction`` when built;
``Triangles.gs_rows`` returns them for summing and ``Triangles.gs`` indexes them.

Bessel numbers of the first kind b(n, k) and second kind B(n, k), and the
Lah numbers L(n, k), are module functions computing their factorial closed
forms; their agreement with the matching generalized-Stirling
specializations is checked by the identity suite rather than shared as one
code path.  ``Triangles`` holds only the memoized recurrence tables.

Entries outside 0 <= k <= n are implicitly 0, with the (0, 0) = 1
convention, so summation identities can run with free index ranges.
Rows are sealed as tuples when built.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import binomial_int, factorial
from .polys import Rational


class RecurrenceTriangle:
    """Memoized rows of T(n+1, k) = T(n, k-1) + (a*n + b*k) * T(n, k), T(0, 0) = one."""

    def __init__(self, a: Rational, b: Rational, one: Rational = 1):
        self._a, self._b = a, b
        self._rows: list[tuple] = [(one,)]

    def rows(self, n: int) -> list[tuple]:
        """The sealed rows, at least rows 0..n; row m holds T(m, 0..m)."""
        if n < 0:
            raise ValueError("row index must be nonnegative")
        a, b = self._a, self._b
        while len(self._rows) <= n:
            prev = self._rows[-1]
            am = a * (len(prev) - 1)
            middle = (prev[k - 1] + (am + b * k) * prev[k] for k in range(1, len(prev)))
            self._rows.append((am * prev[0], *middle, prev[-1]))
        return self._rows

    def value(self, n: int, k: int):
        row = self.rows(n)[n]
        return row[k] if 0 <= k <= n else 0


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


class Triangles:
    """The memoized recurrence tables: Stirling numbers of both kinds and
    generalized Stirling numbers.

    Generalized-Stirling tables are keyed by the exact rational pair
    (s, h); no cache sharing between parameter pairs that agree only up
    to scaling.
    """

    def __init__(self):
        self._stirling1 = RecurrenceTriangle(1, 0)
        self._stirling2 = RecurrenceTriangle(0, 1)
        self._gs: dict[tuple[Fraction, Fraction], RecurrenceTriangle] = {}

    def stirling1(self, n: int, k: int) -> int:
        """Unsigned Stirling number of the first kind (cycle counts)."""
        return self._stirling1.value(n, k)

    def stirling2(self, n: int, k: int) -> int:
        """Stirling number of the second kind (set partition counts)."""
        return self._stirling2.value(n, k)

    def stirling1_signed(self, n: int, k: int) -> int:
        v = self._stirling1.value(n, k)
        return -v if (n - k) % 2 else v

    def gs_rows(self, s: Rational, h: Rational, n: int) -> list[tuple[Fraction, ...]]:
        """The sealed rows, at least rows 0..n, of the generalized Stirling
        table with parameters (s, h), h != 0; row m holds GS(m, 0..m)."""
        s, h = Fraction(s), Fraction(h)
        if h == 0:
            raise ValueError("parameter h must be nonzero")
        table = self._gs.get((s, h))
        if table is None:
            table = self._gs[s, h] = RecurrenceTriangle(h * s, h - h * s, Fraction(1))
        return table.rows(n)

    def gs(self, s: Rational, h: Rational, n: int, k: int) -> Fraction:
        """Generalized Stirling number with parameters (s, h), h != 0."""
        row = self.gs_rows(s, h, n)[n]
        return row[k] if 0 <= k <= n else Fraction(0)


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
