"""Number triangles: Stirling (both kinds), Lah, Bessel, generalized Stirling.

The recursively defined families share one two-term recurrence shape,

    T(n+1, k) = T(n, k-1) + c(n, k) * T(n, k),

with delta initial conditions T(n, 0) = [n == 0], T(0, k) = [k == 0], and

    c(n, k) = n                    unsigned Stirling, first kind
    c(n, k) = k                    Stirling, second kind
    c(n, k) = h*(k + s*(n - k))    generalized Stirling with parameters (s, h)

Bessel numbers of the first kind b(n, k) and second kind B(n, k), and the
Lah numbers L(n, k), are module functions computing their factorial closed
forms; their agreement with the matching generalized-Stirling
specializations is checked by the identity suite rather than shared as one
code path.  ``Triangles`` holds only the memoized recurrence tables.

Entries outside 0 <= k <= n are implicitly 0, with the (0, 0) = 1
convention, so summation identities can run with free index ranges.
Rows are built single-threaded under a lock and sealed as tuples; sealed
rows are safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable

from .exactnum import binomial_int, factorial
from .polys import Rational


class RecurrenceTriangle:
    """Memoized rows of one recursively defined triangle."""

    def __init__(self, coeff: Callable[[int, int], Rational]):
        self._coeff = coeff
        self._rows: list[tuple] = [(1,)]
        self._lock = threading.Lock()

    def row(self, n: int) -> tuple:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if n >= len(self._rows):
            with self._lock:
                while len(self._rows) <= n:
                    m = len(self._rows) - 1
                    prev = self._rows[m]
                    nxt = []
                    for k in range(m + 2):
                        above = prev[k] if k <= m else 0
                        left = prev[k - 1] if 1 <= k <= m + 1 else 0
                        nxt.append(left + self._coeff(m, k) * above)
                    self._rows.append(tuple(nxt))
        return self._rows[n]

    def value(self, n: int, k: int):
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if k < 0 or k > n:
            return 0
        return self.row(n)[k]


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
        self._stirling1 = RecurrenceTriangle(lambda n, k: n)
        self._stirling2 = RecurrenceTriangle(lambda n, k: k)
        self._gs: dict[tuple[Fraction, Fraction], RecurrenceTriangle] = {}
        self._gs_lock = threading.Lock()

    def stirling1(self, n: int, k: int) -> int:
        """Unsigned Stirling number of the first kind (cycle counts)."""
        return self._stirling1.value(n, k)

    def stirling2(self, n: int, k: int) -> int:
        """Stirling number of the second kind (set partition counts)."""
        return self._stirling2.value(n, k)

    def stirling1_signed(self, n: int, k: int) -> int:
        v = self._stirling1.value(n, k)
        return -v if (n - k) % 2 else v

    def gs(self, s: Rational, h: Rational, n: int, k: int) -> Fraction:
        """Generalized Stirling number with parameters (s, h), h != 0."""
        s = Fraction(s)
        h = Fraction(h)
        if h == 0:
            raise ValueError("parameter h must be nonzero")
        key = (s, h)
        table = self._gs.get(key)
        if table is None:
            with self._gs_lock:
                table = self._gs.setdefault(
                    key, RecurrenceTriangle(lambda n_, k_: h * (k_ + s * (n_ - k_)))
                )
        v = table.value(n, k)
        return v if isinstance(v, Fraction) else Fraction(v)


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
